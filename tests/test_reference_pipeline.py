"""An engine-independent reference of the whole pipeline, and a property that
holds the engine to it.

The reference is written from the formulas the README states, in plain numpy,
and shares no code with ``indexforge`` beyond reading the manifest's fields:

- min-max scaling per column, benefit ``(x - min) / (max - min)``, cost
  ``(max - x) / (max - min)``, and 0.5 everywhere for a constant column;
- ``abreu``: the geometric mean of the four pillar arithmetic means;
- ``delphi``: the normalized values times each indicator's pillar share (the
  expert-panel percentages, renormalized) times its share of its pillar's
  manifest weights;
- ``pca``: per pillar, then over the four sub-indexes, a PCA of the
  covariance of the centered varying columns (``np.linalg.eigh``, eigenvalues
  sorted descending); the smallest count whose cumulative variance share
  reaches 0.80, at least 2, capped at 3 per pillar and 2 in the final stage;
  each retained eigenvector signed so its loadings sum to a nonnegative
  number, or, when the sum is zero up to roundoff (at most the loading count
  times eps times the sum of absolute loadings), so that its first loading
  above that bound is positive; factor scores weighted by their renormalized
  variance shares;
- the final min-max rescale of each raw index and the ranking: descending
  rescaled value, equal values in the code-point order of the labels.

The property draws its datasets from a fixed list of seeded numpy generators,
so every version of the engine sees the same draws, however fast it runs.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from indexforge import (
    PILLARS,
    Direction,
    IndicatorMatrix,
    Manifest,
    compute_abreu,
    compute_delphi,
    compute_pca,
    normalize_matrix,
)
from indexforge.errors import ConstantColumnError

from conftest import random_dataset

#: The expert-panel pillar percentages, as the README lists them.
PANEL = {"Economy": 28.4, "SocialWelfare": 26.2, "Environment": 24.0, "Population": 21.0}
THRESHOLD, MIN_FACTORS, PILLAR_CAP, FINAL_CAP = 0.80, 2, 3, 2

#: Tolerances on the rescaled indexes: abreu and delphi, and pca.
TOL_MEAN, TOL_PCA = 1e-12, 1e-9
#: The pca part of a draw is skipped when the rules leave a retained factor's
#: axis to roundoff: its eigenvalue lies within GAP_BOUND of a neighbour (both
#: as shares of the largest), so that no solver pins its eigenvector. A
#: retained eigenvalue below ZERO_BOUND belongs to a factor with no variance,
#: which scores nothing whatever its eigenvector, so this does not apply to it.
GAP_BOUND, ZERO_BOUND = 1e-6, 1e-12
#: The seed of each draw, and how many of the draws may skip pca.
SEEDS, MAX_SKIPPED = range(2700, 2900), 10


def minmax(column: np.ndarray, cost: bool = False) -> np.ndarray:
    lo, hi = column.min(), column.max()
    if lo == hi:
        return np.full(column.shape, 0.5)
    return (hi - column) / (hi - lo) if cost else (column - lo) / (hi - lo)


def ranking(regions, rescaled: np.ndarray) -> list[str]:
    return [region for _, region in sorted(zip((-rescaled).tolist(), regions))]


class NoVaryingColumn(Exception):
    """A PCA stage was given only constant columns."""


def pca_stage(columns: np.ndarray, cap: int):
    """One stage's combined score, its retained count, and why the rules may
    leave a retained factor to roundoff (a reason, or None)."""
    columns = columns[:, columns.max(axis=0) > columns.min(axis=0)]
    if not columns.shape[1]:
        raise NoVaryingColumn
    centered = columns - columns.mean(axis=0)
    values, vectors = np.linalg.eigh(np.atleast_2d(np.cov(centered, rowvar=False)))
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    shares = np.clip(values, 0.0, None) / np.clip(values, 0.0, None).sum()
    reached = np.cumsum(shares) >= THRESHOLD
    k = int(np.argmax(reached)) + 1 if reached.any() else len(values)
    k = min(max(k, min(MIN_FACTORS, len(values))), cap)
    loadings = np.column_stack([oriented(vector) for vector in vectors[:, :k].T])
    weights = shares[:k] / shares[:k].sum()
    return centered @ loadings @ weights, k, unpinned(values, k)


def oriented(vector: np.ndarray) -> np.ndarray:
    """``vector`` signed so its loadings sum to a nonnegative number, or, for a sum
    within roundoff of zero, so that its first loading above roundoff is positive."""
    total = vector.sum()
    bound = np.abs(vector).sum() * vector.size * math.ulp(1.0)
    if abs(total) <= bound:
        total = vector[np.abs(vector) > bound][0]
    return -vector if total < 0 else vector


def unpinned(values: np.ndarray, k: int) -> str | None:
    """Why the rules leave one of the first ``k`` factors to roundoff, or None."""
    scale = values[0]
    for i in range(k):
        if values[i] <= ZERO_BOUND * scale:
            continue
        neighbours = values[[j for j in (i - 1, i + 1) if 0 <= j < len(values)]]
        if (np.abs(neighbours - values[i]) < GAP_BOUND * scale).any():
            return "near-tied retained eigenvalues"
    return None


def reference(manifest: Manifest, matrix: IndicatorMatrix):
    """The normalized table, the column indexes of each pillar in PILLARS order,
    and the rescaled abreu and delphi indexes."""
    specs = [manifest.spec(indicator) for indicator in matrix.indicators]
    norm = np.column_stack([
        minmax(column, spec.direction is Direction.COST)
        for column, spec in zip(matrix.values.T, specs)
    ])
    blocks = [[j for j, spec in enumerate(specs) if spec.pillar is p] for p in PILLARS]

    means = np.column_stack([norm[:, block].mean(axis=1) for block in blocks])
    abreu = np.prod(means, axis=1) ** (1 / len(PILLARS))

    flat = np.zeros(len(specs))
    for p, block in zip(PILLARS, blocks):
        weights = np.array([specs[j].weight for j in block])
        flat[block] = PANEL[p.value] / sum(PANEL.values()) * weights / weights.sum()
    delphi = norm @ flat
    return norm, blocks, {"abreu": minmax(abreu), "delphi": minmax(delphi)}


def reference_pca(norm: np.ndarray, blocks: list[list[int]]):
    """The rescaled pca index, each stage's retained count (the pillars', then
    the final one) and why a factor may not be pinned, or None."""
    stages = [pca_stage(norm[:, block], PILLAR_CAP) for block in blocks]
    stages.append(pca_stage(np.column_stack([score for score, _, _ in stages]), FINAL_CAP))
    reasons = [reason for _, _, reason in stages if reason]
    return minmax(stages[-1][0]), [k for _, k, _ in stages], reasons[0] if reasons else None


def dataset(seed: int):
    """A ``random_dataset`` draw, widened with a repeated row, constant columns,
    tied values and zero weights."""
    rng = np.random.default_rng(seed)
    manifest, matrix = random_dataset(rng)
    values = matrix.values.copy()
    n_regions, n_indicators = values.shape
    if rng.random() < 0.5:  # a region repeats another's values, so its index ties exactly
        values[rng.integers(1, n_regions)] = values[0]
    for j in rng.integers(0, n_indicators, size=rng.integers(0, 5)):
        values[:, j] = values[0, j]  # a constant column
    for j in rng.integers(0, n_indicators, size=rng.integers(0, 4)):
        values[:, j] = np.round(values[:, j] / 10.0)  # tied values within a column
    zero = set(rng.integers(0, n_indicators, size=rng.integers(0, 7)).tolist())
    specs = list(manifest.specs)
    for p in PILLARS:  # zero weights, but never every weight of a pillar
        block = [j for j, spec in enumerate(specs) if spec.pillar is p and j in zero]
        if len(block) == len(manifest.pillar_ids(p)):
            block = block[1:]
        for j in block:
            specs[j] = dataclasses.replace(specs[j], weight=0.0)
    return Manifest(specs), IndicatorMatrix(matrix.regions, matrix.indicators, values)


def check(result, want: np.ndarray, tol: float) -> None:
    """``result`` holds ``want`` within ``tol``, and ranks each pair of regions as
    the reference does when their reference values differ by more than ``tol``,
    or tie exactly in both."""
    assert np.abs(result.rescaled - want).max() <= tol, result.method
    position = {region: i for i, region in enumerate(result.ranking)}
    expected = ranking(result.regions, want)
    value = dict(zip(result.regions, want))
    got = result.rescaled_index
    for i, a in enumerate(expected):
        for b in expected[i + 1:]:
            if value[a] - value[b] > tol or (value[a] == value[b] and got[a] == got[b]):
                assert position[a] < position[b], (result.method, a, b)


def test_reference_pipeline_matches_the_engine():
    tally = {"drawn": 0, "compared": 0, "no varying column": 0}
    skipped: list[str] = []  # the reason of each draw whose pca part was skipped
    for seed in SEEDS:
        manifest, matrix = dataset(seed)
        tally["drawn"] += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant columns, factor caps
            normalized, _ = normalize_matrix(matrix, manifest)
            norm, blocks, want = reference(manifest, matrix)
            check(compute_abreu(normalized, manifest), want["abreu"], TOL_MEAN)
            check(compute_delphi(normalized, manifest), want["delphi"], TOL_MEAN)
            try:
                want_pca, retained, reason = reference_pca(norm, blocks)
            except NoVaryingColumn:
                with pytest.raises(ConstantColumnError):
                    compute_pca(normalized, manifest)
                tally["no varying column"] += 1
                continue
            result, audit = compute_pca(normalized, manifest)
        if reason:
            skipped.append(reason)
            continue
        stages = [audit.pillar_stages[p] for p in PILLARS] + [audit.final_stage]
        assert [stage.retained for stage in stages] == retained, seed
        check(result, want_pca, TOL_PCA)
        tally["compared"] += 1

    print(
        f"reference pipeline: of {tally['drawn']} draws, pca compared in {tally['compared']}"
        f" and skipped in {len(skipped)} {sorted(skipped)}; {tally['no varying column']}"
        " had a stage of constant columns"
    )
    assert tally["drawn"] >= 200
    assert len(skipped) <= MAX_SKIPPED
