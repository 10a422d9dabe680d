"""Generate a synthetic cohort, inspect its planted ground truth, and verify
the true risks discriminate survival times."""

import numpy as np

from pansurv import bags
from pansurv import survival as sv
from pansurv import synthetic as sg

spec = sg.CohortSpec(cases_per_cancer=40, seed=11)
records, truth = sg.generate_cohort(spec)
print(f"{len(records)} patients across {len(spec.cancers)} cancers")

rec = records[0]
print("\nexample text bag:")
for s in bags.render_text_bag(rec.meta):
    print("  ", s)
print(f"patches: {rec.wsi.patch_count} x {rec.wsi.patch_features.shape[1]}, "
      f"genomic groups: {[len(rec.genomic.values[g]) for g in bags.GENOMIC_GROUPS]}")

print("\nplanted genes for", rec.cancer_type)
for g in bags.GENOMIC_GROUPS:
    names = truth["planted"][rec.cancer_type][g]
    weights = np.round(truth["weights"][rec.cancer_type][g], 2)
    print(f"  {g}: {names} weights {weights.tolist()}")

risks = np.array([truth["patients"][r.id]["risk"] for r in records])
months = np.array([r.survival_months for r in records])
censored = np.array([r.censored for r in records])
print(f"\ncensoring rate: {censored.mean():.2f}")
print(f"ground-truth C-index (pooled): "
      f"{sv.concordance_index(risks, months, censored):.3f}")
for c in spec.cancers:
    mask = np.array([r.cancer_type == c for r in records])
    ci = sv.concordance_index(risks[mask], months[mask], censored[mask])
    print(f"  {c}: C={ci:.3f}, mean risk {risks[mask].mean():+.2f}, "
          f"median months {np.median(months[mask]):.0f}")

# round-trip through the cohort file format
bags.write_cohort("/tmp/demo_cohort.jsonl", records)
back = bags.read_cohort("/tmp/demo_cohort.jsonl")
print(f"\nround-trip through JSONL: {len(back)} patients, "
      f"bitwise patches equal: "
      f"{np.array_equal(back[0].wsi.patch_features, records[0].wsi.patch_features)}")
