"""Index aggregation: hierarchical arithmetic/geometric and weighted mean.

Two of the three index methods live here. The hierarchical method takes
the unweighted arithmetic mean of each pillar's normalized indicators and
joins the four pillar scores with a geometric mean, so a collapse in any
single pillar pulls the whole index down instead of being compensated by
the others. The weighted method is a two-level weighted arithmetic mean
(pillar weights times within-pillar indicator weights). Every method's
raw index is finally min-max rescaled so the best region scores exactly 1
and the worst exactly 0, by the normalization kernel of ``normalize``, and
ranked, both by the ``IndexResult`` built from it. The index writers lay out
no file themselves: ``ingest`` writes each one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import LengthMismatchError, NegativeInputError, WeightManifestMismatchError
from .ingest import write_csv, write_json
from .model import PILLARS, Direction, IndicatorMatrix, Manifest, Method, Stage, WeightScheme
from .normalize import normalize_column


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


def rank_order(regions: Sequence[str], rescaled) -> np.ndarray:
    """Positions into ``regions`` by descending index; ties by label in code-point order.

    One argsort of the negated values, then each run of exactly equal values
    (0.0 and -0.0 are equal) is sorted by label with Python's ``sorted``.
    Every run is fully re-sorted, so the argsort need not be stable.
    """
    values = -np.asarray(rescaled, dtype=float)
    order = np.argsort(values)
    ordered = values[order]
    tied = np.flatnonzero(ordered[1:] == ordered[:-1])  # i where ordered[i + 1] ties ordered[i]
    if tied.size:
        gap = np.diff(tied) > 1
        starts = tied[np.r_[True, gap]].tolist()
        stops = (tied[np.r_[gap, True]] + 2).tolist()
        for start, stop in zip(starts, stops):
            order[start:stop] = sorted(order[start:stop].tolist(), key=regions.__getitem__)
    return order


def rank_regions(regions: Sequence[str], rescaled) -> tuple[str, ...]:
    """Regions in descending index order: the labels of ``rank_order``."""
    return tuple(np.array(regions, dtype=object)[rank_order(regions, rescaled)].tolist())


@dataclass(frozen=True, eq=False)
class IndexResult:
    """Final index of one method: its raw vector, rescaled to [0, 1] and ranked.

    Built from ``method`` (a Method or its value, else ValueError), ``regions``
    and ``raw``, one value per region (else LengthMismatchError, naming the
    shape of a vector that is not 1-D). ``rescaled``, the kernel on ``raw`` as
    one benefit column named after the method, ``order``, its read-only
    ``rank_order``, and ``ranking``, the labels in that order, are derived as it
    is built; an all-equal ``raw`` rescales to 0.5 with a DegenerateColumnWarning,
    and fewer than two regions or a nan or inf raise ValueError. Equal methods
    and region -> raw pairs make equal results.
    """

    method: Method
    regions: tuple[str, ...]
    raw: np.ndarray
    rescaled: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)
    ranking: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        method, regions = Method(self.method), tuple(self.regions)
        raw = np.array(self.raw, dtype=float)
        if raw.shape != (len(regions),):
            raise LengthMismatchError(len(regions), raw.size if raw.ndim == 1 else raw.shape)
        if raw.size < 2:
            raise ValueError("rescaling needs at least two regions")
        rescaled = normalize_column(raw, Direction.BENEFIT, method.value)[0]
        order = rank_order(regions, rescaled)
        raw.flags.writeable = rescaled.flags.writeable = order.flags.writeable = False
        vars(self).update(method=method, regions=regions, raw=raw, rescaled=rescaled, order=order,
                          ranking=tuple(np.array(regions, dtype=object)[order].tolist()))

    def __eq__(self, other) -> bool:
        # The rescaled vector, the order and the ranking follow from these.
        return (
            isinstance(other, IndexResult)
            and self.method == other.method
            and self.raw_index == other.raw_index
        )

    @cached_property
    def raw_index(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self.regions, self.raw.tolist())))

    @cached_property
    def rescaled_index(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self.regions, self.rescaled.tolist())))

    def rescaled_vector(self, regions: Sequence[str] | None = None) -> np.ndarray:
        if regions is None or tuple(regions) == self.regions:
            return self.rescaled
        return np.array([self.rescaled_index[r] for r in regions])


def compute_abreu(matrix: IndicatorMatrix, manifest: Manifest) -> IndexResult:
    """Hierarchical index: pillar arithmetic means joined by a geometric mean.

    Indicator and pillar weights are deliberately ignored; all four pillars
    contribute equally.
    """
    pillar_means = pillar_arithmetic_means(matrix, manifest)
    return IndexResult(Method.ABREU, matrix.regions, geometric_mean(pillar_means))


def compute_delphi(
    matrix: IndicatorMatrix, manifest: Manifest, weights: WeightScheme | None = None
) -> IndexResult:
    """Two-level weighted arithmetic mean of the normalized indicators.

    raw(region) = sum over indicators of flat_weight * value, where each flat
    weight is the indicator's pillar weight times its weight within the pillar.
    ``weights`` defaults to the panel weighting, ``manifest.panel_weights``.
    """
    if matrix.stage is not Stage.NORMALIZED:
        raise ValueError("the weighted index is defined on a normalized matrix")
    weights = manifest.panel_weights if weights is None else weights
    differing = set(weights.flat_weights) ^ set(manifest.ids)
    differing |= set(weights.pillar_weights) ^ set(PILLARS)
    if differing:
        raise WeightManifestMismatchError(differing)
    flat = np.array([weights.flat_weights[ind] for ind in matrix.indicators])
    return IndexResult(Method.DELPHI, matrix.regions, matrix.values @ flat)


def write_index_csv(result: IndexResult, path: str | Path) -> None:
    """Write one method's index as CSV (region,raw,rescaled,rank), six-decimal floats."""
    rank = np.empty_like(result.order)
    rank[result.order] = np.arange(1, rank.size + 1)
    write_csv(
        [
            ("region", "%s", result.regions),
            ("raw", "%.6f", result.raw.tolist()),
            ("rescaled", "%.6f", result.rescaled.tolist()),
            ("rank", "%d", rank.tolist()),
        ],
        path,
    )


@lru_cache(maxsize=1)
def _label_order(regions: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """The positions of ``regions`` in label order, and the labels in that order.

    Every method of a run shares one regions tuple, so the sort runs once per
    run. Both results are read-only, since every caller gets the same ones.
    """
    order = sorted(range(len(regions)), key=regions.__getitem__)
    positions = np.array(order, dtype=np.intp)
    positions.flags.writeable = False
    return positions, tuple(map(regions.__getitem__, order))


def write_index_json(result: IndexResult, path: str | Path) -> None:
    """Write one method's index as JSON (method, ranking, raw and rescaled by region).

    The two per-region mappings are built in label order, so the JSON
    encoder's key sort finds them sorted and takes one linear pass.
    """
    order, labels = _label_order(result.regions)
    write_json(
        {
            "method": result.method.value,
            "raw_index": dict(zip(labels, result.raw[order].tolist())),
            "rescaled_index": dict(zip(labels, result.rescaled[order].tolist())),
            "ranking": list(result.ranking),
        },
        path,
    )
