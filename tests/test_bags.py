"""Data-bag formation: templates, genomic bags, time binning, I/O."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pansurv import bags
from pansurv import synthetic as sg
from pansurv import training as tr


def make_meta(**overrides):
    base = dict(sex="female", age=58, race="White", cancer_type="BRCA",
                primary_diagnosis="Infiltrating duct carcinoma", stage="Stage II",
                t_stage="T2", n_stage="N1", m_stage="M0", treatments="radiation")
    base.update(overrides)
    return bags.PatientMeta(**base)


class TestTextBag:
    def test_demographic_template(self):
        bag = bags.render_text_bag(make_meta())
        assert bag[0] == "She is a 58-year-old White race Woman."

    def test_male_demographic(self):
        bag = bags.render_text_bag(make_meta(sex="male", age=63, race="Asian"))
        assert bag[0] == "He is a 63-year-old Asian race Man."

    def test_cancer_template_uses_full_name(self):
        bag = bags.render_text_bag(make_meta(cancer_type="BLCA"))
        assert bag[1] == "This is a patient who has Bladder Urothelial Carcinoma."

    def test_diagnosis_template(self):
        bag = bags.render_text_bag(make_meta())
        assert bag[2] == ("She has Infiltrating duct carcinoma at Stage II. "
                          "T2, N1, M0.")

    def test_treatment_templates(self):
        cases = {
            "radiation": "Radiation is applied.",
            "pharmaceutical": "Pharmaceutical is applied.",
            "both": "Radiation and pharmaceutical therapy is applied.",
            "none": "No treatment is applied.",
        }
        for treatment, sentence in cases.items():
            assert bags.render_text_bag(make_meta(treatments=treatment))[3] == sentence

    def test_missing_field_names_field(self):
        with pytest.raises(bags.TemplateError, match="t_stage"):
            bags.render_text_bag(make_meta(t_stage=""))

    def test_unknown_vocab_rejected(self):
        with pytest.raises(bags.TemplateError):
            bags.render_text_bag(make_meta(race="Martian"))
        with pytest.raises(bags.TemplateError):
            bags.render_text_bag(make_meta(age=0))

    def test_pure_function(self):
        a = bags.render_text_bag(make_meta())
        b = bags.render_text_bag(make_meta())
        assert a == b


class TestGenomicBag:
    SCHEMA = {g: [f"{g}_{i:04d}" for i in range(4)] for g in bags.GENOMIC_GROUPS}

    def _bag(self, values=None, mask=None, schema=None):
        """GenomicBag over SCHEMA, fully observed at 0.5 unless overridden."""
        v = {g: np.full(4, 0.5) for g in bags.GENOMIC_GROUPS}
        m = {g: np.ones(4) for g in bags.GENOMIC_GROUPS}
        v.update(values or {})
        m.update(mask or {})
        return bags.GenomicBag(values=v, mask=m, schema=schema or dict(self.SCHEMA))

    def test_fully_observed_mask_all_ones(self):
        bag = self._bag()
        for g in bags.GENOMIC_GROUPS:
            np.testing.assert_array_equal(bag.mask[g], np.ones(4))
            assert bag.values[g].dtype == np.float64

    def test_missing_group_all_zero(self):
        bag = self._bag(values={"TF": np.zeros(4)}, mask={"TF": np.zeros(4)})
        np.testing.assert_array_equal(bag.values["TF"], np.zeros(4))
        np.testing.assert_array_equal(bag.mask["TF"], np.zeros(4))

    def test_unknown_gene_rejected(self):
        # genes are positional: a value past the schema's last gene, or a
        # mask slot without a gene, names no gene of the schema
        with pytest.raises(bags.SchemaError, match="TSG"):
            self._bag(values={"TSG": np.full(5, 0.5)})
        with pytest.raises(bags.SchemaError, match="ONC"):
            self._bag(mask={"ONC": np.ones(3)})

    def test_unknown_group_rejected(self):
        schema = {**self.SCHEMA, "XYZ": ["XYZ_0000"]}
        with pytest.raises(bags.SchemaError):
            self._bag(schema=schema)
        schema = {g: n for g, n in self.SCHEMA.items() if g != "CGF"}
        with pytest.raises(bags.SchemaError):
            self._bag(schema=schema)

    def test_mask_entries_binary(self):
        with pytest.raises(bags.SchemaError, match="0 or 1"):
            self._bag(mask={"PK": np.array([1.0, 0.5, 1.0, 1.0])})

    def test_padded_positions_hold_zero(self):
        mask = np.array([0.0, 1.0, 0.0, 0.0])
        bag = self._bag(values={"TSG": np.array([0.0, 2.5, 0.0, 0.0])},
                        mask={"TSG": mask})
        np.testing.assert_array_equal(bag.values["TSG"] * (1 - bag.mask["TSG"]),
                                      np.zeros(4))
        with pytest.raises(bags.SchemaError, match="padded"):
            self._bag(values={"TSG": np.array([1.0, 2.5, 0.0, 0.0])},
                      mask={"TSG": mask})


class TestTimeBinning:
    def test_single_bin_empty_edges(self):
        assert len(bags.compute_bin_edges([1.0, 2.0, 3.0], 1)) == 0

    def test_quartile_edges_from_sorting(self):
        times = np.arange(1.0, 101.0)
        edges = bags.compute_bin_edges(times, 4)
        # sort-and-index: element at position i*n/4 for i = 1..3
        np.testing.assert_array_equal(edges, [26.0, 51.0, 76.0])

    def test_too_few_distinct_times(self):
        with pytest.raises(bags.BinningError):
            bags.compute_bin_edges([5.0, 5.0, 5.0, 9.0], 4)

    def test_collapsed_quantile_rejected(self):
        times = [1.0] + [5.0] * 10 + [9.0]
        with pytest.raises(bags.BinningError):
            bags.compute_bin_edges(times, 4)

    def test_assignment_conventions(self):
        edges = [26.0, 51.0, 76.0]
        assert bags.assign_time_bin(3.0, edges) == 0
        assert bags.assign_time_bin(26.0, edges) == 1  # boundary -> higher bin
        assert bags.assign_time_bin(200.0, edges) == 3

    @given(st.lists(st.floats(0, 500), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_assignment_monotone(self, months):
        edges = [10.0, 50.0, 120.0]
        months = sorted(months)
        binned = [bags.assign_time_bin(m, edges) for m in months]
        assert binned == sorted(binned)


def make_records(rng, n=4):
    schema = {g: [f"{g}_{i:04d}" for i in range(3)] for g in bags.GENOMIC_GROUPS}
    recs = []
    for i in range(n):
        genomic = bags.GenomicBag(
            values={g: rng.standard_normal(3) * np.array([1, 1, 0]) for g in bags.GENOMIC_GROUPS},
            mask={g: np.array([1.0, 1.0, 0.0]) for g in bags.GENOMIC_GROUPS},
            schema=schema,
        )
        recs.append(bags.PatientRecord(
            id=f"P{i:03d}", cancer_type="BRCA", meta=make_meta(),
            wsi=bags.WsiBag(rng.standard_normal((5, 6))), genomic=genomic,
            survival_months=float(10 + i), censored=bool(i % 2),
        ))
    return recs


class TestCohortIO:
    def test_roundtrip_inline(self, rng, tmp_path):
        recs = make_records(rng)
        path = tmp_path / "cohort.jsonl"
        bags.write_cohort(str(path), recs)
        back = bags.read_cohort(str(path))
        assert [r.id for r in back] == [r.id for r in recs]
        np.testing.assert_allclose(back[0].wsi.patch_features, recs[0].wsi.patch_features)
        np.testing.assert_allclose(back[2].genomic.values["TF"], recs[2].genomic.values["TF"])
        assert back[1].censored is True and back[0].censored is False

    def test_roundtrip_binary_sidecars(self, rng, tmp_path):
        recs = make_records(rng)
        path = tmp_path / "cohort.jsonl"
        bags.write_cohort(str(path), recs, binary_patches=True)
        assert (tmp_path / "cohort.jsonl.P000.patches.bin").exists()
        back = bags.read_cohort(str(path))
        np.testing.assert_array_equal(back[3].wsi.patch_features, recs[3].wsi.patch_features)

    def test_binary_matrix_header(self, rng, tmp_path):
        m = rng.standard_normal((3, 7))
        p = tmp_path / "m.bin"
        bags.write_patch_matrix(str(p), m)
        raw = p.read_bytes()
        assert len(raw) == 8 + 3 * 7 * 8
        assert int.from_bytes(raw[:4], "little") == 3
        assert int.from_bytes(raw[4:8], "little") == 7
        np.testing.assert_array_equal(bags.read_patch_matrix(str(p)), m)

    def test_wsi_bag_requires_patches(self):
        with pytest.raises(ValueError):
            bags.WsiBag(np.zeros((0, 4)))


@pytest.fixture(scope="module")
def cohort_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort") / "cohort.jsonl"
    bags.write_cohort(str(path), make_records(np.random.default_rng(5), n=3))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_cohort_reads_or_raises_cohort_error(cohort_file, data):
    """A truncated cohort file, or one with a single byte changed, either
    reads or raises CohortError naming the file; nothing else escapes."""
    path, raw = cohort_file
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        damaged = bytearray(raw)
        damaged[data.draw(st.integers(0, len(raw) - 1), label="position")] ^= \
            data.draw(st.integers(1, 255), label="xor")
    bad = path.with_name("damaged.jsonl")
    bad.write_bytes(bytes(damaged))
    try:
        records = bags.read_cohort(str(bad))
    except bags.CohortError as exc:
        assert str(bad) in str(exc)
    else:
        assert all(isinstance(r, bags.PatientRecord) for r in records)


_SCALARS = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3)
_VALUES = st.sampled_from([
    _SCALARS, st.lists(_SCALARS, max_size=4),
    st.dictionaries(st.sampled_from(bags.GENOMIC_GROUPS) | st.text(max_size=3), _SCALARS,
                    max_size=6)]).flatmap(lambda kind: kind)


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_decoded_record_validates_or_raises_value_error(data):
    """Any JSON object decoded as a cohort spec or train config and then
    validated either passes or raises a ValueError."""
    cls = data.draw(st.sampled_from([sg.CohortSpec, tr.TrainConfig]), label="cls")
    names = st.sampled_from([f.name for f in fields(cls)] + ["bogus"])
    obj = data.draw(st.dictionaries(names, _VALUES, min_size=1, max_size=2), label="obj")
    try:
        bags.decode(cls, obj).validate()
    except ValueError:
        pass
