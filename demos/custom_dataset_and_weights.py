"""Build a small custom dataset from scratch, derive a composite component
column, apply custom weights, and export every artifact the engine writes.

Run:  python demos/custom_dataset_and_weights.py
"""

from pathlib import Path

import numpy as np

from indexforge import (
    PILLARS,
    Direction,
    IndicatorMatrix,
    IndicatorSpec,
    Manifest,
    Pillar,
    build_comparison,
    build_weight_scheme,
    composite_indicator,
    compute_abreu,
    compute_delphi,
    normalize_matrix,
)
from indexforge.aggregate import write_index_csv
from indexforge.normalize import write_normalization_csv
from indexforge.stats import write_parallel_svg, write_report_json

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

# --- a toy six-district dataset -------------------------------------------
districts = ("North", "South", "East", "West", "Centre", "Islands")
rng = np.random.default_rng(7)

# Health access is derived from two component counts, the same way a
# composite indicator column would be prepared before ingestion.
doctors_per_1000 = rng.uniform(1.0, 6.0, size=6)
beds_per_1000 = rng.uniform(2.0, 9.0, size=6)
health_access = composite_indicator(
    {"doctors": doctors_per_1000, "beds": beds_per_1000}
)
print("derived health-access column:", np.round(health_access, 3))

specs = [
    IndicatorSpec("AgeDep", "Age dependency ratio", Pillar.POPULATION, Direction.COST),
    IndicatorSpec("Growth", "Population growth", Pillar.POPULATION),
    IndicatorSpec("Health", "Health access (derived)", Pillar.SOCIAL_WELFARE),
    IndicatorSpec("School", "School completion", Pillar.SOCIAL_WELFARE),
    IndicatorSpec("Income", "Median income", Pillar.ECONOMY),
    IndicatorSpec("Unemp", "Unemployment", Pillar.ECONOMY, Direction.COST),
    IndicatorSpec("Green", "Green cover", Pillar.ENVIRONMENT),
    IndicatorSpec("AirQ", "Air quality index", Pillar.ENVIRONMENT),
]
manifest = Manifest(specs)

values = np.column_stack(
    [
        rng.uniform(40, 80, 6),      # AgeDep
        rng.uniform(-1.5, 2.0, 6),   # Growth
        health_access,               # Health (derived)
        rng.uniform(60, 99, 6),      # School
        rng.uniform(14, 40, 6),      # Income (thousands)
        rng.uniform(3, 18, 6),       # Unemp
        rng.uniform(5, 70, 6),       # Green
        rng.uniform(20, 95, 6),      # AirQ
    ]
)
matrix = IndicatorMatrix(districts, manifest.ids, values)

# --- normalize and aggregate ------------------------------------------------
normalized, records = normalize_matrix(matrix, manifest)
write_normalization_csv(records, out_dir / "normalization.csv")

abreu = compute_abreu(normalized, manifest)

# Custom weighting: the economy counts double, and within Social Welfare
# the derived health column carries 70% of the pillar.
weights = build_weight_scheme(
    manifest,
    pillar_weights={
        Pillar.ECONOMY: 2.0,
        Pillar.POPULATION: 1.0,
        Pillar.SOCIAL_WELFARE: 1.0,
        Pillar.ENVIRONMENT: 1.0,
    },
    indicator_weights={"Health": 0.7, "School": 0.3},
)
print("\npillar weights:", {p.value: round(w, 3) for p, w in weights.pillar_weights.items()})
delphi = compute_delphi(normalized, manifest, weights)

print(f"\n{'district':10s} {'hierarchical':>13s} {'weighted':>9s}")
for district in districts:
    print(f"{district:10s} {abreu.rescaled_index[district]:13.3f} "
          f"{delphi.rescaled_index[district]:9.3f}")

write_index_csv(abreu, out_dir / "abreu.csv")
write_index_csv(delphi, out_dir / "delphi.csv")

report = build_comparison([abreu, delphi])
write_report_json(report, out_dir / "report.json")
write_parallel_svg(report, out_dir / "parallel.svg")

print(f"\nagreement between {' and '.join(report.names)}: "
      f"r = {report.r[0, 1]:.3f}, rank crossings = {report.crossings[0, 1]}")
print(f"artifacts written to {out_dir}/: "
      + ", ".join(sorted(p.name for p in out_dir.iterdir())))
