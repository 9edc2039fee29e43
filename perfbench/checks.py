"""Output checks: independent numpy oracles and fidelity comparisons.

Nothing here imports indexforge. The oracle re-derives the normalized table,
abreu and delphi with plain numpy from the input files; the checks compare
the CLI's artifacts against it, test the PCA invariants, recompute Pearson r
and rank crossings, and (on the bundled dataset) compare against the
published reference table and the artifacts of the seed version.
Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

PILLARS = ("Population", "SocialWelfare", "Economy", "Environment")
#: Expert-panel pillar weights of the weighted method (percentages).
DELPHI_PILLAR_WEIGHTS = {"Economy": 28.4, "SocialWelfare": 26.2, "Environment": 24.0,
                         "Population": 21.0}
METHODS = ("abreu", "delphi", "pca")
COMPUTE_ARTIFACTS = ("normalization.csv", "abreu.csv", "abreu.json", "delphi.csv",
                     "delphi.json", "pca.csv", "pca.json", "pca_audit.json")
COMPARE_ARTIFACTS = ("report.json", "report.csv", "parallel.csv", "parallel.svg", "scatter.csv")

VALUE_TOL = 1e-9     # full-precision JSON floats against the oracle
CSV_TOL = 1e-6       # six-decimal CSV floats against their JSON twins


def read_manifest(path: Path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Regions, indicator ids and values of a dataset CSV or JSON file."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        return payload["regions"], payload["indicators"], np.array(payload["values"], float)
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    regions = [row[0] for row in rows[1:]]
    values = np.array([row[1:] for row in rows[1:]], dtype=float)
    return regions, rows[0][1:], values


def rescale(raw: np.ndarray) -> np.ndarray:
    lo, hi = raw.min(), raw.max()
    return np.full_like(raw, 0.5) if hi == lo else (raw - lo) / (hi - lo)


def ranking(regions, values) -> list[str]:
    """Descending by value, ties broken by region label."""
    return [regions[i] for i in sorted(range(len(regions)), key=lambda i: (-values[i], regions[i]))]


class Oracle:
    """abreu and delphi rescaled indexes recomputed from the raw table."""

    def __init__(self, regions, ids, values, manifest_rows):
        spec = {row["id"]: row for row in manifest_rows}
        lo, hi = values.min(axis=0), values.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        cost = np.array([spec[i]["direction"] == "cost" for i in ids])
        norm = np.where(cost, hi - values, values - lo) / span
        norm[:, hi == lo] = 0.5
        pillar = np.array([spec[i]["pillar"] for i in ids])
        means = np.column_stack([norm[:, pillar == p].mean(axis=1) for p in PILLARS])
        zero = (means == 0).any(axis=1)
        abreu = np.exp(np.log(np.where(zero[:, None], 1.0, means)).mean(axis=1))
        abreu[zero] = 0.0

        weight = np.array([float(spec[i]["weight"] or 1.0) for i in ids])
        panel = sum(DELPHI_PILLAR_WEIGHTS.values())
        flat = np.empty(len(ids))
        for p in PILLARS:
            mask = pillar == p
            flat[mask] = DELPHI_PILLAR_WEIGHTS[p] / panel * weight[mask] / weight[mask].sum()
        self.regions = list(regions)
        self.index = {"abreu": rescale(abreu), "delphi": rescale(norm @ flat)}


def load_index(out_dir: Path, method: str, regions) -> tuple[np.ndarray, np.ndarray, list[int], list[str]]:
    """(JSON rescaled, CSV rescaled, CSV ranks, JSON ranking) in ``regions`` order."""
    payload = json.loads((out_dir / f"{method}.json").read_text(encoding="utf-8"))
    with (out_dir / f"{method}.csv").open(newline="", encoding="utf-8") as handle:
        rows = {row["region"]: row for row in csv.DictReader(handle)}
    exact = np.array([payload["rescaled_index"][r] for r in regions], dtype=float)
    printed = np.array([float(rows[r]["rescaled"]) for r in regions])
    ranks = [int(rows[r]["rank"]) for r in regions]
    return exact, printed, ranks, payload["ranking"]


def check_invocation(out_dir: Path, oracle: Oracle, command: str) -> list[str]:
    """Artifacts present; abreu/delphi match the oracle; every ranking agrees
    with its values; PCA spans [0, 1] exactly; report r and crossings agree."""
    expected = COMPUTE_ARTIFACTS + (COMPARE_ARTIFACTS if command == "report" else ())
    missing = [name for name in expected if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifact(s): {', '.join(missing)}"]
    regions = oracle.regions
    problems = []
    exact = {}
    rankings = {}
    for method in METHODS:
        try:
            values, printed, ranks, listed = load_index(out_dir, method, regions)
        except (KeyError, ValueError) as exc:
            problems.append(f"{method}: unreadable artifact ({exc!r})")
            continue
        exact[method] = values
        if method in oracle.index:
            diff = float(np.abs(values - oracle.index[method]).max())
            if diff > VALUE_TOL:
                problems.append(f"{method}: off the oracle by {diff:.3g}")
        if float(np.abs(printed - values).max()) > CSV_TOL:
            problems.append(f"{method}: CSV values disagree with JSON")
        order = ranking(regions, values)
        rankings[method] = order
        position = {r: i + 1 for i, r in enumerate(order)}
        if listed != order or ranks != [position[r] for r in regions]:
            problems.append(f"{method}: ranks disagree with values")
        if method == "pca" and not (values.min() == 0.0 and values.max() == 1.0
                                    and ((values >= 0) & (values <= 1)).all()):
            problems.append("pca: rescaled values do not span [0, 1] exactly")
    if command == "report" and not problems:
        try:
            problems.extend(_check_report(out_dir, exact, rankings))
        except (KeyError, ValueError) as exc:
            problems.append(f"report: unreadable artifact ({exc!r})")
    return problems


def crossings(rank_a, rank_b) -> int:
    """Discordant region pairs between two rankings (numpy, O(n^2) memory)."""
    pos_b = {r: i for i, r in enumerate(rank_b)}
    b = np.array([pos_b[r] for r in rank_a])
    return int(np.triu(b[:, None] > b[None, :], k=1).sum())


def _check_report(out_dir: Path, exact: dict, rankings: dict) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    for a in METHODS:
        if report["rankings"].get(a) != rankings[a]:
            problems.append(f"report: {a} ranking differs from {a}.json")
        for b in METHODS:
            if a == b:
                continue
            r = float(np.corrcoef(exact[a], exact[b])[0, 1])
            if abs(report["pairwise_r"][f"{a}:{b}"] - r) > VALUE_TOL:
                problems.append(f"report: pearson {a}:{b} is off")
            if report["crossings"][f"{a}:{b}"] != crossings(rankings[a], rankings[b]):
                problems.append(f"report: crossings {a}:{b} are off")
    return problems


#: Largest allowed gap to the published two-decimal Table 3 values. The seed
#: engine measures 0.0047 (abreu) and 0.0152 (delphi, Algarve); the bands are
#: those gaps rounded up at the third decimal, so any drift beyond them fails.
REFERENCE_TOL = {"abreu": 0.005, "delphi": 0.016}


def reference_fit(out_dir: Path, table3: Path) -> dict:
    """How the bundled run fits the published Table 3: max abs difference
    and ranking agreement for abreu and delphi; PCA top-2 and bottom-2."""
    with Path(table3).open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    regions = [row["region"] for row in rows]
    fit = {}
    for method in METHODS:
        reference = np.array([float(row[method]) for row in rows])
        values = load_index(out_dir, method, regions)[0]
        ours, theirs = ranking(regions, values), ranking(regions, reference)
        fit[f"{method}_max_diff"] = float(np.abs(values - reference).max())
        fit[f"{method}_same_ranking"] = ours == theirs
        fit[f"{method}_same_extremes"] = (set(ours[:2]) == set(theirs[:2])
                                          and set(ours[-2:]) == set(theirs[-2:]))
    return fit


def check_reference(out_dir: Path, table3: Path) -> list[str]:
    fit = reference_fit(out_dir, table3)
    problems = []
    for method, tol in REFERENCE_TOL.items():
        if fit[f"{method}_max_diff"] > tol:
            problems.append(f"reference: {method} off by {fit[f'{method}_max_diff']:.4f} (> {tol})")
        if not fit[f"{method}_same_ranking"]:
            problems.append(f"reference: {method} ranking differs")
    if not fit["pca_same_extremes"]:
        problems.append("reference: pca top-2 or bottom-2 regions differ")
    return problems


_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")


def compare_text(actual: str, expected: str) -> str | None:
    """None when the non-float text is identical and every float is within
    1e-9 of its twin, or within one unit of its last printed decimal (so a
    roundoff-level change that flips a rounded digit is not a failure)."""
    if _FLOAT.split(actual) != _FLOAT.split(expected):
        return "non-float text differs"
    for a, e in zip(_FLOAT.findall(actual), _FLOAT.findall(expected)):
        decimals = len(e.split(".")[1].split("e")[0].split("E")[0])
        if abs(float(a) - float(e)) > max(VALUE_TOL, 1.5 * 10.0 ** -decimals):
            return f"float {a} differs from {e}"
    return None


def check_golden(out_dir: Path, golden_dir: Path) -> list[str]:
    """Every artifact of the seed version, compared with compare_text."""
    problems = []
    for golden in sorted(Path(golden_dir).iterdir()):
        actual = out_dir / golden.name
        if not actual.is_file():
            problems.append(f"golden: {golden.name} missing")
            continue
        problem = compare_text(actual.read_text(encoding="utf-8"), golden.read_text(encoding="utf-8"))
        if problem:
            problems.append(f"golden: {golden.name}: {problem}")
    return problems
