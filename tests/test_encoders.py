"""Encoder tests: positional encoding, masked genomic transformer,
patch projector, deterministic text embedding."""

import numpy as np
import pytest

from pansurv import autodiff as ad
from pansurv import bags, encoders

from conftest import gradcheck


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = encoders.pe_matrix(1, 8)[0]
        np.testing.assert_array_equal(pe[0::2], np.zeros(4))
        np.testing.assert_array_equal(pe[1::2], np.ones(4))

    def test_first_component_is_sin_pos(self):
        mat = encoders.pe_matrix(18, 6)
        for p in (1, 3, 17):
            assert abs(mat[p, 0] - np.sin(p)) < 1e-15

    def test_direct_evaluation_pos1_d4(self):
        pe = encoders.pe_matrix(2, 4)[1]
        expected = [np.sin(1.0), np.cos(1.0), np.sin(1e-2), np.cos(1e-2)]
        np.testing.assert_allclose(pe, expected, rtol=1e-15)

    def test_odd_dimension_rejected(self):
        with pytest.raises(encoders.EncoderError):
            encoders.pe_matrix(3, 5)

    def test_matrix_matches_vector(self):
        # each row is the per-position formula, whatever the matrix length
        mat = encoders.pe_matrix(6, 8)
        arg = np.arange(6)[:, None] / np.power(10000.0, np.arange(4) / 4.0)
        np.testing.assert_allclose(mat[:, 0::2], np.sin(arg), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(mat[:, 1::2], np.cos(arg), rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(encoders.pe_matrix(3, 8), mat[:3])


def small_genomic_bag(rng, sizes=(3, 4, 2, 3, 5, 3), missing_group=None):
    schema = {g: [f"{g}_{i:04d}" for i in range(n)]
              for g, n in zip(bags.GENOMIC_GROUPS, sizes)}
    values, mask = {}, {}
    for g in bags.GENOMIC_GROUPS:
        n = len(schema[g])
        if g == missing_group:
            values[g] = np.zeros(n)
            mask[g] = np.zeros(n)
        else:
            values[g] = rng.standard_normal(n)
            mask[g] = np.ones(n)
            mask[g][n // 2] = 0.0  # one padded slot per group
            values[g][n // 2] = 0.0
    return bags.GenomicBag(values=values, mask=mask, schema=schema)


class TestGenomicEncoder:
    D = 16

    def _params(self, rng):
        return encoders.init_genomic_params(rng, self.D)

    def test_output_shape(self, rng):
        params = self._params(rng)
        values, mask = encoders.bag_to_arrays(small_genomic_bag(rng))
        feats, tokens = encoders.encode_genomic_arrays(values, mask, params)
        assert feats.data.shape == (6, self.D)
        assert tokens.data.shape == (6, 5, self.D)
        assert mask.sum(axis=1).all()

    def test_masked_values_cannot_influence_output(self, rng):
        params = self._params(rng)
        bag = small_genomic_bag(rng)
        values, mask = encoders.bag_to_arrays(bag)
        base, _ = encoders.encode_genomic_arrays(values, mask, params)
        for trial in range(10):
            perturbed = values + (1 - mask) * rng.standard_normal(values.shape) * 100
            out, _ = encoders.encode_genomic_arrays(perturbed, mask, params)
            assert np.array_equal(base.data, out.data)

    def test_absent_group_zero_vector_and_flag(self, rng):
        params = self._params(rng)
        values, mask = encoders.bag_to_arrays(small_genomic_bag(rng, missing_group="PK"))
        feats, _ = encoders.encode_genomic_arrays(values, mask, params)
        absent = mask.sum(axis=1) == 0
        idx = bags.GENOMIC_GROUPS.index("PK")
        assert absent[idx]
        np.testing.assert_array_equal(feats.data[idx], np.zeros(self.D))
        assert not absent[[i for i in range(6) if i != idx]].any()
        assert np.all(feats.data[~absent].any(axis=1))

    def test_gradient_wrt_unmasked_input(self, rng):
        params = self._params(rng)
        bag = small_genomic_bag(rng, sizes=(2, 2, 2, 2, 2, 2))
        values, mask = encoders.bag_to_arrays(bag)
        w = rng.standard_normal((6, self.D))

        def build(t):
            feats, _ = encoders.encode_genomic_arrays(t["v"], mask, params)
            return ad.tsum(ad.mul(feats, w))

        gradcheck(build, {"v": values}, tol=1e-5)

    def test_deterministic(self, rng):
        params = self._params(rng)
        values, mask = encoders.bag_to_arrays(small_genomic_bag(rng))
        a, _ = encoders.encode_genomic_arrays(values, mask, params)
        b, _ = encoders.encode_genomic_arrays(values, mask, params)
        assert np.array_equal(a.data, b.data)


class TestPatchProjector:
    def test_identity_projector(self, rng):
        d = 8
        params = {"patch.w": ad.Tensor(np.eye(d)), "patch.b": ad.Tensor(np.zeros(d))}
        x = rng.standard_normal((5, d))
        out = encoders.project_patches(x, params)
        np.testing.assert_array_equal(out.data, x)

    def test_single_patch_bag(self, rng):
        params = encoders.init_patch_params(rng, 4, 8)
        out = encoders.project_patches(rng.standard_normal((1, 4)), params)
        assert out.data.shape == (1, 8)

    def test_linearity_with_zero_bias(self, rng):
        params = encoders.init_patch_params(rng, 4, 8)
        x = rng.standard_normal((3, 4))
        out1 = encoders.project_patches(x, params)
        out2 = encoders.project_patches(2.5 * x, params)
        np.testing.assert_allclose(out2.data, 2.5 * out1.data, rtol=1e-12)

    def test_dimension_mismatch(self, rng):
        params = encoders.init_patch_params(rng, 4, 8)
        with pytest.raises(encoders.EncoderError):
            encoders.project_patches(rng.standard_normal((3, 5)), params)


class TestTextEmbedding:
    TABLE = encoders.frozen_text_table(seed=99, table_size=512, d_model=12)

    def _params(self, rng):
        return encoders.init_text_params(rng, 12)

    def _embed(self, sentence, p):
        """One sentence's unit vector: frozen row, then the adapter."""
        row = encoders.frozen_sentence_vector(sentence, self.TABLE)
        return encoders.embed_text_rows(row, p).data[0]

    def test_deterministic(self, rng):
        p = self._params(rng)
        a = self._embed("She is a 58-year-old White race Woman.", p)
        b = self._embed("She is a 58-year-old White race Woman.", p)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self, rng):
        p = self._params(rng)
        v = self._embed("Radiation is applied.", p)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_one_word_difference_changes_vector(self, rng):
        p = self._params(rng)
        a = self._embed("This is a patient who has Lung Adenocarcinoma.", p)
        b = self._embed("This is a patient who has Breast Adenocarcinoma.", p)
        cos = float(a @ b)
        assert cos < 1.0 - 1e-6

    def test_empty_sentence_rejected(self, rng):
        p = self._params(rng)
        with pytest.raises(encoders.EncoderError):
            self._embed("", p)
        with pytest.raises(encoders.EncoderError):
            self._embed("!!!", p)

    def test_table_reproducible_from_seed(self):
        again = encoders.frozen_text_table(seed=99, table_size=512, d_model=12)
        np.testing.assert_array_equal(self.TABLE, again)

    def test_bag_encodes_to_four_rows(self, rng):
        p = self._params(rng)
        meta = bags.PatientMeta(sex="male", age=70, race="Asian", cancer_type="LUAD",
                                primary_diagnosis="Adenocarcinoma", stage="Stage I",
                                t_stage="T1", n_stage="N0", m_stage="M0",
                                treatments="none")
        rows = np.stack([encoders.frozen_sentence_vector(s, self.TABLE)
                         for s in bags.render_text_bag(meta)])
        out = encoders.embed_text_rows(rows, p)
        assert out.data.shape == (4, 12)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(4),
                                   atol=1e-12)

    def test_only_adapter_is_trainable(self, rng):
        p = self._params(rng)
        bag_rows = np.stack([encoders.frozen_sentence_vector("No treatment is applied.",
                                                             self.TABLE)])
        with ad.tape_scope() as tape:
            out = ad.tsum(encoders.embed_text_rows(bag_rows, p))
        ad.backward(tape, out)
        assert p["text.adapter_w"].grad is not None

    def test_fnv1a_reference_values(self):
        # FNV-1a 64-bit known digests
        assert encoders._fnv1a64("") == 0xCBF29CE484222325
        assert encoders._fnv1a64("a") == 0xAF63DC4C8601EC8C
