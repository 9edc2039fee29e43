"""Cross-method comparison: correlations, descriptive stats, rankings, plots.

Quartiles use Tukey's inclusive hinges (for an odd number of observations
the median belongs to both halves) and the standard deviation uses the
sample (n-1) denominator. ``build_comparison`` aligns every result into
one regions x methods table, and every artifact writer takes the
resulting ``ComparisonReport``. Plot output is dependency-free: parallel
coordinates are emitted as CSV plus a small hand-written SVG, and the
scatter-matrix point sets as CSV; each formats whole columns of the table
in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConstantVectorError,
    FewerThanTwoMethodsError,
    LengthMismatchError,
    RegionSetMismatchError,
    TooShortError,
)
from .ingest import format_column, write_csv, write_json
from .model import IndexResult, Method


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length vectors."""
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.size != ay.size:
        raise LengthMismatchError(ax.size, ay.size)
    if ax.size < 2:
        raise TooShortError(ax.size, 2)
    cx = ax - ax.mean()
    cy = ay - ay.mean()
    sx = float(cx @ cx)
    sy = float(cy @ cy)
    if sx == 0.0 or sy == 0.0:
        raise ConstantVectorError("correlation is undefined for a constant vector")
    r = float((cx @ cy) / math.sqrt(sx * sy))
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class DescriptiveStats:
    """Boxplot-style summary of one index column."""

    min: float
    q1: float
    median: float
    q3: float
    max: float
    iqr: float
    mean: float
    sd: float
    whisker_low: float
    whisker_high: float


def _sorted_median(ordered: np.ndarray) -> float:
    """Median of an ascending array: the middle element, or (a + b) / 2.

    The same IEEE operations as ``np.median``, whose first call imports
    ``numpy.ma`` (about 16 ms of a fresh process). Like ``np.median``'s
    mean, the sum starts from 0.0, so a median of signed zeros is 0.0.
    """
    middle, odd = divmod(ordered.size, 2)
    if odd:
        return float(0.0 + ordered[middle])
    return float((0.0 + ordered[middle - 1] + ordered[middle]) / 2)


def _tukey_hinges(sorted_values: np.ndarray) -> tuple[float, float]:
    n = sorted_values.size
    half = (n + 1) // 2  # odd n: median included in both halves
    lower = sorted_values[:half]
    upper = sorted_values[n - half:]
    return _sorted_median(lower), _sorted_median(upper)


def describe(values: Sequence[float]) -> DescriptiveStats:
    """Descriptive statistics with Tukey inclusive-hinge quartiles."""
    data = np.asarray(values, dtype=float)
    if data.size < 2:
        raise TooShortError(data.size, 2)
    ordered = np.sort(data)
    q1, q3 = _tukey_hinges(ordered)
    iqr = q3 - q1
    return DescriptiveStats(
        min=float(ordered[0]),
        q1=q1,
        median=_sorted_median(ordered),
        q3=q3,
        max=float(ordered[-1]),
        iqr=iqr,
        mean=float(data.mean()),
        sd=float(data.std(ddof=1)),
        whisker_low=q1 - 1.5 * iqr,
        whisker_high=q3 + 1.5 * iqr,
    )


def crossings(rank_a: Sequence[str], rank_b: Sequence[str]) -> int:
    """Number of region pairs ordered oppositely by two rankings.

    This is the Kendall discordant-pair count: 0 for identical rankings,
    n*(n-1)/2 for fully reversed ones. Both rankings must list the same
    regions, each once; otherwise RegionSetMismatchError is raised. The
    count takes O(n log n) time and O(n) memory (see ``_inversions``).
    """
    n = len(rank_a)
    if len(rank_b) != n:
        raise RegionSetMismatchError(
            f"rankings have different lengths ({n} vs {len(rank_b)})"
        )
    pos_b = {region: i for i, region in enumerate(rank_b)}
    labels_a = set(rank_a)
    if len(labels_a) != n or len(pos_b) != n:
        raise RegionSetMismatchError("a ranking lists a region more than once")
    if labels_a != pos_b.keys():
        raise RegionSetMismatchError("rankings cover different region sets")
    return _inversions(np.array([pos_b[region] for region in rank_a], dtype=np.int64))


def _inversions(perm: np.ndarray) -> int:
    """Pairs i < j with perm[i] > perm[j], for a permutation of 0..n-1.

    A merge-sort inversion count (Knight 1966) that splits by value bits
    instead of by position, so each level is a handful of O(n) numpy
    passes: a most-significant-bit-first binary radix sort. Before the
    level for ``bit``, ``order`` holds the values sorted by their bits above
    ``bit`` and, within such a group, by position. Each pair that first
    differs at ``bit`` lies in one group and is inverted exactly when its
    1 comes before its 0; the level counts those pairs, then moves the 0s
    of each group ahead of its 1s, keeping position order within each half.
    A permutation makes every group a contiguous value range, so a group
    starts at index ``(value >> (bit + 1)) << (bit + 1)``.
    """
    index = np.arange(perm.size)
    order = perm
    count = 0
    for bit in reversed(range(max(perm.size - 1, 0).bit_length())):
        ones = (order >> bit) & 1
        ones_seen = np.concatenate(([0], np.cumsum(ones)))  # 1s in order[:i]
        start = (order >> (bit + 1)) << (bit + 1)
        ones_ahead = ones_seen[:-1] - ones_seen[start]  # 1s before i in its group
        count += int(ones_ahead[ones == 0].sum())
        rank = np.where(ones == 1, ones_ahead, index - start - ones_ahead)
        merged = np.empty_like(order)
        merged[((order >> bit) << bit) + rank] = order
        order = merged
    return count


@dataclass(frozen=True)
class ComparisonReport:
    """Pairwise correlations, per-method stats, rankings and rank crossings.

    ``values`` is the read-only regions x methods table of rescaled index
    values, rows in ``regions`` order and columns in ``methods`` order; every
    plot writer reads it.
    """

    methods: tuple[Method, ...]
    regions: tuple[str, ...]
    values: np.ndarray = field(compare=False)
    pairwise_r: Mapping[tuple[Method, Method], float]
    per_method_stats: Mapping[Method, DescriptiveStats]
    rankings: Mapping[Method, tuple[str, ...]]
    crossings: Mapping[tuple[Method, Method], int]

    def r(self, a: Method, b: Method) -> float:
        return self.pairwise_r[(a, b)]


def build_comparison(results: Sequence[IndexResult]) -> ComparisonReport:
    """Compare two or more method results over the same region set."""
    if len(results) < 2:
        raise FewerThanTwoMethodsError(f"got {len(results)} result(s), need at least 2")
    regions = results[0].regions
    region_set = set(regions)
    for result in results[1:]:
        if set(result.regions) != region_set:
            raise RegionSetMismatchError(
                f"method {result.method.value!r} covers a different region set"
            )
    methods = tuple(result.method for result in results)
    # Built one row per method and transposed, so each column is contiguous.
    by_method = np.array([result.rescaled_vector(regions) for result in results])
    by_method.setflags(write=False)
    values = by_method.T

    # Both measures are symmetric: compute each unordered pair once, mirror it.
    pairwise: dict[tuple[Method, Method], float] = {}
    cross: dict[tuple[Method, Method], int] = {}
    for i, a in enumerate(results):
        pairwise[(a.method, a.method)] = 1.0
        cross[(a.method, a.method)] = 0
        for j, b in enumerate(results[i + 1:], start=i + 1):
            r = pearson(values[:, i], values[:, j])
            n = crossings(a.ranking, b.ranking)
            pairwise[(a.method, b.method)] = pairwise[(b.method, a.method)] = r
            cross[(a.method, b.method)] = cross[(b.method, a.method)] = n
    stats = {m: describe(values[:, j]) for j, m in enumerate(methods)}
    rankings = {result.method: result.ranking for result in results}
    return ComparisonReport(
        methods=methods,
        regions=regions,
        values=values,
        pairwise_r=pairwise,
        per_method_stats=stats,
        rankings=rankings,
        crossings=cross,
    )


# -- artifact writers --------------------------------------------------------

def write_report_json(report: ComparisonReport, path: str | Path) -> None:
    payload = {
        "methods": [m.value for m in report.methods],
        "regions": list(report.regions),
        "pairwise_r": {
            f"{a.value}:{b.value}": report.pairwise_r[(a, b)]
            for a in report.methods
            for b in report.methods
        },
        "crossings": {
            f"{a.value}:{b.value}": report.crossings[(a, b)]
            for a in report.methods
            for b in report.methods
        },
        "per_method_stats": {
            m.value: vars(report.per_method_stats[m]) for m in report.methods
        },
        "rankings": {m.value: list(report.rankings[m]) for m in report.methods},
    }
    write_json(payload, path)


def write_report_csv(report: ComparisonReport, path: str | Path) -> None:
    """Tabular report: one correlation block, one stats block, one ranking block."""
    methods = report.methods
    rows = [
        ["pearson", a.value] + [f"{report.pairwise_r[(a, b)]:.6f}" for b in methods]
        for a in methods
    ]
    rows += [
        ["crossings", a.value] + [str(report.crossings[(a, b)]) for b in methods]
        for a in methods
    ]
    rows += [
        ["stats", name] + [f"{getattr(report.per_method_stats[m], name):.6f}" for m in methods]
        for name in ("min", "q1", "median", "q3", "max", "iqr", "mean", "sd")
    ]
    positions = map(str, range(1, len(report.regions) + 1))
    ranking_rows = zip(repeat("ranking"), positions, *(report.rankings[m] for m in methods))
    write_csv(["block", "key"] + [m.value for m in methods], chain(rows, ranking_rows), path)


def write_parallel_csv(report: ComparisonReport, path: str | Path) -> None:
    """Polyline vertices: one row per (region, method axis) pair."""
    n_axes = len(report.methods)
    write_csv(
        ["region", "method", "axis", "value"],
        zip(
            [region for region in report.regions for _ in range(n_axes)],
            [m.value for m in report.methods] * len(report.regions),
            list(range(n_axes)) * len(report.regions),
            format_column(report.values.ravel(), "%.9f"),  # row-major: region by region
        ),
        path,
    )


def write_scatter_csv(report: ComparisonReport, path: str | Path) -> None:
    """Point sets for every unordered method pair (scatter-matrix data)."""
    names = [m.value for m in report.methods]
    columns = [format_column(report.values[:, j], "%.6f") for j in range(len(names))]
    rows = chain.from_iterable(
        zip(repeat(names[i]), repeat(names[j]), report.regions, columns[i], columns[j])
        for i, j in combinations(range(len(names)), 2)
    )
    write_csv(["method_x", "method_y", "region", "x", "y"], rows, path)


_SVG_WIDTH = 720
_SVG_HEIGHT = 480
_SVG_MARGIN = 60
_POLYLINE_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def write_parallel_svg(report: ComparisonReport, path: str | Path) -> None:
    """Emit a minimal static parallel-coordinates SVG (axes, polylines, labels)."""
    n_axes = len(report.methods)
    inner_w = _SVG_WIDTH - 2 * _SVG_MARGIN
    inner_h = _SVG_HEIGHT - 2 * _SVG_MARGIN
    xs = [_SVG_MARGIN + inner_w * axis / (n_axes - 1) for axis in range(n_axes)]

    def y_at(value):
        return _SVG_MARGIN + inner_h * (1.0 - value)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    for x, method in zip(xs, report.methods):
        parts.append(
            f'<line x1="{x:.2f}" y1="{y_at(1.0):.2f}" x2="{x:.2f}" y2="{y_at(0.0):.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y_at(0.0) + 24:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{method.value}</text>'
        )
        for tick in (0.0, 1.0):
            parts.append(
                f'<text x="{x - 8:.2f}" y="{y_at(tick) + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{tick:.0f}</text>'
            )
    ys = y_at(report.values)
    # One "x,y x,y ..." point list per region, all formatted in one pass.
    points_format = " ".join(f"{x:.2f},%.2f" for x in xs) + "\n"
    points = (points_format * len(report.regions) % tuple(ys.ravel().tolist())).splitlines()
    label_ys = format_column(ys[:, -1] + 4, "%.2f")
    for i, region in enumerate(report.regions):
        color = _POLYLINE_COLORS[i % len(_POLYLINE_COLORS)]
        parts.append(
            f'<polyline points="{points[i]}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{xs[-1] + 6:.2f}" y="{label_ys[i]}" '
            f'font-family="sans-serif" font-size="10" fill="{color}">{_xml_escape(region)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
