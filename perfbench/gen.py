"""Seeded, deterministic inputs for the synthetic workloads.

Every synthetic table is a low-rank factor model plus noise: a development
factor shared by all pillars plus two factors per pillar, so PCA finds real
structure and the three methods rank regions similarly but not identically. The same seed gives the same
bytes. The bundled workload needs no generated input; it runs on the
packaged 9 x 25 dataset.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import checks

PILLAR_NAMES = ("Population", "SocialWelfare", "Economy", "Environment")

#: name -> (regions, indicators per pillar or None for the bundled manifest,
#: dataset format, subcommand). BENCHMARK.json says why each workload exists.
SYNTHETIC = {
    "eu-report": (1200, None, "csv", "report"),
    "wide-report": (300, 50, "json", "report"),
    "tall-compute": (30000, None, "csv", "compute"),
}


def _wide_manifest(rng: np.random.Generator, per_pillar: int) -> list[dict]:
    total = per_pillar * len(PILLAR_NAMES)
    cost = set(rng.choice(total, size=total // 5, replace=False).tolist())
    rows = []
    for j in range(total):
        pillar = PILLAR_NAMES[j // per_pillar]
        rows.append({
            "id": f"W{j:03d}", "label": f"synthetic indicator {j}", "pillar": pillar,
            "direction": "cost" if j in cost else "benefit", "weight": "1.0", "unit": "u",
        })
    return rows


def _values(rng: np.random.Generator, manifest: list[dict], n: int) -> np.ndarray:
    """Regions x indicators: shared and per-pillar latent factors, loadings, noise.

    Cost indicators load negatively on their pillar's factors, so after
    inverse normalization they agree with the benefit ones.
    """
    k = len(manifest)
    values = np.empty((n, k))
    shared = rng.standard_normal(n)
    for pillar in PILLAR_NAMES:
        cols = [j for j, row in enumerate(manifest) if row["pillar"] == pillar]
        factors = rng.standard_normal((n, 2))
        factors[:, 0] = 0.6 * shared + 0.8 * factors[:, 0]
        loadings = rng.uniform(0.4, 1.0, size=(2, len(cols))) * np.array([[1.0], [0.5]])
        signs = np.array([-1.0 if manifest[j]["direction"] == "cost" else 1.0 for j in cols])
        block = factors @ loadings * signs + 0.5 * rng.standard_normal((n, len(cols)))
        scale = rng.uniform(1.0, 100.0, size=len(cols))
        offset = rng.uniform(0.0, 500.0, size=len(cols))
        values[:, cols] = block * scale + offset
    return np.round(values, 4)


def generate(workload: str, seed: int, out_dir: Path, bundled_manifest: Path) -> dict:
    """Write the workload's dataset (and manifest if it has its own) to out_dir.

    Returns the paths and shape; bundled_manifest is the packaged manifest
    the 25-indicator workloads reuse.
    """
    n, per_pillar, fmt, command = SYNTHETIC[workload]
    rng = np.random.default_rng([seed, n])
    out_dir.mkdir(parents=True, exist_ok=True)
    if per_pillar is None:
        manifest_path = bundled_manifest
        manifest = checks.read_manifest(bundled_manifest)
    else:
        manifest = _wide_manifest(rng, per_pillar)
        manifest_path = out_dir / "manifest.csv"
        with manifest_path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(manifest[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(manifest)
    values = _values(rng, manifest, n)
    if per_pillar is not None:
        values[:, int(rng.integers(len(manifest)))] = 42.0  # one constant column
    ids = [row["id"] for row in manifest]
    order = rng.permutation(n)  # region labels are not in value order
    regions = [f"R{i:05d}" for i in order]
    data_path = out_dir / f"data.{fmt}"
    if fmt == "json":
        payload = {"regions": regions, "indicators": ids, "values": values.tolist()}
        data_path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    else:
        lines = ["region," + ",".join(ids)]
        lines.extend(
            region + "," + ",".join(f"{v:.4f}" for v in row)
            for region, row in zip(regions, values.tolist())
        )
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "command": command, "shape": [n, len(ids)], "data": data_path, "manifest": manifest_path,
    }
