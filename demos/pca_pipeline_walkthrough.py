"""Walk through the two-stage PCA aggregation on the bundled dataset,
stage by stage: spectra, retention decisions, loadings and the final index.

Run:  python demos/pca_pipeline_walkthrough.py
"""

import numpy as np

from indexforge import (
    PILLARS,
    REFERENCE_VARIANCE_PROFILE,
    compute_pca,
    eigen_symmetric,
    normalize_matrix,
)
from indexforge.datasets import load_nuts3_dataset

manifest, raw = load_nuts3_dataset()
normalized, _ = normalize_matrix(raw, manifest)

print("=== correlation structure (why PCA makes sense here) ===")
population_ids = manifest.pillar_ids(PILLARS[0])
r = np.corrcoef(normalized.columns(population_ids), rowvar=False)
print(f"Population pillar correlation matrix ({', '.join(population_ids)}):")
for row in r:
    print("   " + "  ".join(f"{v:+.2f}" for v in row))
eigenvalues, _ = eigen_symmetric(r)
print("eigenvalues:", "  ".join(f"{v:.3f}" for v in eigenvalues))

print("\n=== stage 1: one PCA per pillar ===")
result, audit = compute_pca(normalized, manifest, reference_profile=REFERENCE_VARIANCE_PROFILE)
for pillar in PILLARS:
    stage = audit.pillar_stages[pillar]
    shares = "  ".join(f"{s:.3f}" for s in stage.variance_shares)
    print(f"\n{pillar.value} ({len(stage.column_ids)} indicators)")
    print(f"  variance shares: {shares}")
    print(f"  retained {stage.retained} factor(s), cumulative variance "
          f"{stage.cumulative_variance:.3f}")
    print(f"  factor weights: " + "  ".join(f"{w:.3f}" for w in stage.factor_weights))
    print(f"  first-factor loadings:")
    for name, loading in zip(stage.column_ids, stage.loadings[:, 0]):
        print(f"    {name:10s} {loading:+.3f}")

print("\n=== stage 2: PCA over the four pillar sub-indexes ===")
final = audit.final_stage
print(f"variance shares: " + "  ".join(f"{s:.3f}" for s in final.variance_shares))
print(f"retained {final.retained} factors, cumulative variance {final.cumulative_variance:.3f}")
print("loadings (per pillar):")
for name, row in zip(final.column_ids, final.loadings):
    print("   " + f"{name:15s}" + "  ".join(f"{v:+.3f}" for v in row))

print("\n=== audit notes (measured vs documented reference profile) ===")
for note in audit.notes:
    print(" -", note)

print("\n=== final index ===")
for region in result.ranking:
    print(f"  {result.rescaled_index[region]:.3f}  {region}")

print("\nsub-index columns feeding stage 2 (per pillar):")
sub = np.column_stack(
    [audit.pillar_stages[p].combined() for p in PILLARS]
)
header = "  ".join(f"{p.value[:10]:>10s}" for p in PILLARS)
print(f"{'region':34s} {header}")
for i, region in enumerate(normalized.regions):
    cells = "  ".join(f"{v:+10.3f}" for v in sub[i])
    print(f"{region:34s} {cells}")
