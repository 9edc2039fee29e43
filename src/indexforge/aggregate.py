"""Index aggregation: hierarchical arithmetic/geometric and weighted mean.

Two of the three index methods live here. The hierarchical method takes
the unweighted arithmetic mean of each pillar's normalized indicators and
joins the four pillar scores with a geometric mean, so a collapse in any
single pillar pulls the whole index down instead of being compensated by
the others. The weighted method is a two-level weighted arithmetic mean
(pillar weights times within-pillar indicator weights). Every method's
raw index is finally min-max rescaled so the best region scores exactly 1
and the worst exactly 0.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NegativeInputError, WeightManifestMismatchError
from .ingest import csv_cells, write_json
from .model import (
    PILLARS,
    IndexResult,
    IndicatorMatrix,
    Manifest,
    Method,
    Pillar,
    Stage,
    WeightScheme,
    build_weight_scheme,
)
from .normalize import DegenerateColumnWarning

#: Default pillar weighting for the weighted-mean method, as elicited from
#: an expert panel (percentages; renormalized because they sum to 99.6).
DEFAULT_PILLAR_WEIGHTS: dict[Pillar, float] = {
    Pillar.ECONOMY: 28.4,
    Pillar.SOCIAL_WELFARE: 26.2,
    Pillar.ENVIRONMENT: 24.0,
    Pillar.POPULATION: 21.0,
}


def delphi_default_weights(manifest: Manifest) -> WeightScheme:
    """Weight scheme used by compute_delphi when no override is supplied."""
    return build_weight_scheme(manifest, pillar_weights=DEFAULT_PILLAR_WEIGHTS)


def pillar_arithmetic_means(matrix: IndicatorMatrix, manifest: Manifest) -> np.ndarray:
    """Unweighted mean of each pillar's normalized indicators, per region.

    Returns a regions x pillars array, rows in ``matrix.regions`` order and
    columns in PILLARS order.
    """
    if matrix.stage is not Stage.NORMALIZED:
        raise ValueError("pillar means are defined on a normalized matrix")
    # Row-contiguous blocks keep numpy's pairwise summation per region, the
    # same as a 1-D mean of each row (the fancy-indexed block is column-major).
    means = [
        np.ascontiguousarray(matrix.columns(manifest.pillar_ids(p))).mean(axis=1)
        for p in PILLARS
    ]
    return np.column_stack(means)


def geometric_mean(values) -> np.ndarray | float:
    """Geometric mean over the last axis of nonnegative values.

    Computed as exp(mean(log x)) for numerical robustness. A zero anywhere
    along the axis gives exactly 0 (no epsilon flooring): one collapsed
    component is meant to zero the whole product. A 1-D input gives a scalar.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("geometric mean of an empty sequence")
    negative = x[x < 0]
    if negative.size:
        raise NegativeInputError(float(negative[0]))
    zero = (x == 0.0).any(axis=-1)
    logs = np.log(np.where(x == 0.0, 1.0, x))
    return np.where(zero, 0.0, np.exp(logs.sum(axis=-1) / x.shape[-1]))[()]


def rescale_final(raw) -> np.ndarray:
    """Min-max rescale a raw index vector so it spans [0, 1] over the regions.

    An all-equal input cannot be spanned; it maps to 0.5 everywhere with a
    DegenerateColumnWarning.
    """
    values = np.asarray(raw, dtype=float)
    if values.size < 2:
        raise ValueError("rescaling needs at least two regions")
    lo, hi = values.min(), values.max()
    if hi == lo:
        warnings.warn(
            "raw index is constant across regions; rescaled to 0.5",
            DegenerateColumnWarning,
            stacklevel=2,
        )
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def rank_regions(regions: Sequence[str], rescaled) -> tuple[str, ...]:
    """Regions in descending index order; ties broken by label in code-point order.

    One argsort of the negated values, then each run of exactly equal values
    (0.0 and -0.0 are equal) is sorted by label with Python's ``sorted``.
    Every run is fully re-sorted, so the argsort need not be stable.
    """
    values = -np.asarray(rescaled, dtype=float)
    order = np.argsort(values)
    ranking = np.array(regions, dtype=object)[order].tolist()
    ordered = values[order]
    tied = np.flatnonzero(ordered[1:] == ordered[:-1])  # i where ordered[i + 1] ties ordered[i]
    if tied.size:
        gap = np.diff(tied) > 1
        starts = tied[np.r_[True, gap]].tolist()
        stops = (tied[np.r_[gap, True]] + 2).tolist()
        for start, stop in zip(starts, stops):
            ranking[start:stop] = sorted(ranking[start:stop])
    return tuple(ranking)


def build_index_result(method: Method, regions: Sequence[str], raw) -> IndexResult:
    """Attach the rescaled index and ranking to a raw index vector."""
    rescaled = rescale_final(raw)
    return IndexResult(method, regions, raw, rescaled, rank_regions(regions, rescaled))


def compute_abreu(matrix: IndicatorMatrix, manifest: Manifest) -> IndexResult:
    """Hierarchical index: pillar arithmetic means joined by a geometric mean.

    Indicator and pillar weights are deliberately ignored; all four pillars
    contribute equally.
    """
    pillar_means = pillar_arithmetic_means(matrix, manifest)
    return build_index_result(Method.ABREU, matrix.regions, geometric_mean(pillar_means))


def compute_delphi(
    matrix: IndicatorMatrix, manifest: Manifest, weights: WeightScheme | None = None
) -> IndexResult:
    """Two-level weighted arithmetic mean of the normalized indicators.

    raw(region) = sum over pillars of pillar_weight *
    sum over the pillar's indicators of indicator_weight * value.
    """
    if matrix.stage is not Stage.NORMALIZED:
        raise ValueError("the weighted index is defined on a normalized matrix")
    if weights is None:
        weights = delphi_default_weights(manifest)
    unknown = set(weights.indicator_weights) - set(manifest.ids)
    if unknown:
        raise WeightManifestMismatchError(unknown)
    missing = set(manifest.ids) - set(weights.indicator_weights)
    if missing:
        raise WeightManifestMismatchError(missing)

    # Flatten the two weight levels: each column weighs pillar_w * indicator_w.
    flat = np.array(
        [
            weights.pillar_weights[manifest.spec(ind).pillar] * weights.indicator_weights[ind]
            for ind in matrix.indicators
        ]
    )
    return build_index_result(Method.DELPHI, matrix.regions, matrix.values @ flat)


def write_index_csv(result: IndexResult, path: str | Path) -> None:
    """Write one method's index as CSV (region,raw,rescaled,rank).

    The bytes are those of ``write_csv`` with six-decimal floats; the body is
    formatted in one ``%`` pass over all cells.
    """
    n = len(result.regions)
    rank = dict(zip(result.ranking, range(1, n + 1)))
    cells: list[object] = [None] * (4 * n)
    cells[0::4] = csv_cells(result.regions)
    cells[1::4] = result.raw.tolist()
    cells[2::4] = result.rescaled.tolist()
    cells[3::4] = map(rank.__getitem__, result.regions)
    text = "region,raw,rescaled,rank\n" + ("%s,%.6f,%.6f,%d\n" * n) % tuple(cells)
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_index_json(result: IndexResult, path: str | Path) -> None:
    """Write one method's index as JSON (method, ranking, raw and rescaled by region)."""
    order = sorted(range(len(result.regions)), key=result.regions.__getitem__)
    labels = [result.regions[i] for i in order]
    write_json(
        {
            "method": result.method.value,
            "raw_index": dict(zip(labels, result.raw[order].tolist())),
            "rescaled_index": dict(zip(labels, result.rescaled[order].tolist())),
            "ranking": list(result.ranking),
        },
        path,
    )
