"""Cross-method comparison: correlations, descriptive stats, rankings, plots.

Quartiles use Tukey's inclusive hinges (for an odd number of observations
the median belongs to both halves) and the standard deviation uses the
sample (n-1) denominator. ``build_comparison`` aligns every result into
one positional ``ComparisonReport``: column names, taken once from each
result's method, then a regions x k table of values, k x k arrays of
Pearson r and of rank crossings (counted on the results' ``order`` arrays,
with no label map), and per-column stats and rankings. Every artifact
writer reads names and array cells from it. Plot output is dependency-free:
parallel coordinates are emitted as CSV plus a small hand-written SVG, and
the scatter-matrix point sets as CSV; each passes whole columns to ``ingest.write_csv``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregate import IndexResult, rank_order
from .errors import (
    ConstantVectorError,
    FewerThanTwoMethodsError,
    LengthMismatchError,
    RegionSetMismatchError,
    TooShortError,
)
from .ingest import write_csv, write_json


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
    n*(n-1)/2 for reversed ones. Both must list the same regions, each once, or
    RegionSetMismatchError is raised. The ``_inversions`` block count takes
    about 20 numpy calls, O(n*w) time and about 2*n*w bytes for w <= 128, in
    steps that keep its temporaries near 32 MB at most.
    """
    n = len(rank_a)
    if len(rank_b) != n:
        raise RegionSetMismatchError(f"rankings have different lengths ({n} vs {len(rank_b)})")
    pos_b = {region: i for i, region in enumerate(rank_b)}
    if len(set(rank_a)) != n or len(pos_b) != n:
        raise RegionSetMismatchError("a ranking lists a region more than once")
    try:  # with no repeats, a region of rank_a missing from rank_b means the sets differ
        perm = np.fromiter(map(pos_b.__getitem__, rank_a), np.int32, n)
    except KeyError:
        raise RegionSetMismatchError("rankings cover different region sets") from None
    return _inversions(perm)


#: The most cells of the in-block comparisons, and of histogram rows, that one
#: step of ``_inversions`` builds; up to 32,768 regions each part is one step.
_COMPARE_CELLS, _HISTOGRAM_CELLS = 2**22, 2**20


def _inversions(perm: np.ndarray) -> int:
    """Pairs i < j with perm[i] > perm[j], for a permutation of 0..n-1.

    Positions are cut into blocks, and values into buckets, of width
    w = min(isqrt(n - 1) + 1, 128); padding with n, n+1, ... adds no pair.
    Pairs in one block, and pairs in one bucket (by their blocks), are compared
    directly, (blocks, w, w) under a strict lower triangle. Any other pair is
    inverted exactly when its higher bucket holds the earlier block, read from
    the buckets x blocks histogram. Each part runs in steps of at most
    _COMPARE_CELLS or _HISTOGRAM_CELLS cells: about 20 numpy calls per step,
    O(n*w) time and bounded temporaries at any n.
    """
    n = perm.size
    if n < 2:
        return 0
    width = min(math.isqrt(n - 1) + 1, 128)
    blocks = -(-n // width)
    padded = np.arange(blocks * width, dtype=np.int32)
    padded[:n] = perm
    block_of = np.empty_like(padded)  # block_of[value]: the position block holding it
    block_of[padded] = np.arange(padded.size, dtype=np.int32) // width
    padded, block_of = padded.reshape(blocks, width), block_of.reshape(blocks, width)
    lower = np.tri(width, k=-1, dtype=bool)  # lower[j, i]: i < j
    step = max(1, _COMPARE_CELLS // (width * width))
    count = sum(np.count_nonzero((rows[:, :, None] < rows[:, None, :]) & lower)
                for start in range(0, blocks, step)
                for rows in (padded[start:start + step], block_of[start:start + step]))
    step = min(max(1, _HISTOGRAM_CELLS // blocks), blocks)
    offsets = np.arange(blocks, (step + 1) * blocks, blocks)[:, None]  # row 0 is left free
    for start in range(0, blocks, step):
        buckets = block_of[start:start + step]  # one row of position blocks per bucket
        hist = np.bincount((buckets + offsets[:len(buckets)]).ravel(),
                           minlength=(len(buckets) + 1) * blocks).reshape(-1, blocks)
        if start:
            hist[0] = summed  # per block: the values of every earlier step
        below = hist.cumsum(axis=0)  # below[r, b]: values of buckets < start + r in block b
        summed = below[-1].copy()
        below.cumsum(axis=1, out=below)  # ... in blocks <= b
        count += int((hist[1:] * (below[:-1, -1:] - below[:-1])).sum())
    return count


@dataclass(frozen=True)
class ComparisonReport:
    """One positional table of k compared index columns.

    Column j is named ``names[j]``. ``values`` is the read-only regions x k
    table of rescaled index values, rows in ``regions`` order; ``r`` and
    ``crossings`` are read-only k x k arrays of pairwise Pearson r and rank
    crossings (diagonal 1.0 and 0); ``stats[j]`` and ``rankings[j]`` describe
    and rank column j.
    """

    names: tuple[str, ...]
    regions: tuple[str, ...]
    values: np.ndarray = field(compare=False)
    r: np.ndarray = field(compare=False)
    crossings: np.ndarray = field(compare=False)
    stats: tuple[DescriptiveStats, ...]
    rankings: tuple[tuple[str, ...], ...]


def build_comparison(results: Sequence[IndexResult]) -> ComparisonReport:
    """Compare two or more method results over the same region set; a different
    set, a repeated region or length raises RegionSetMismatchError, then a constant
    column ConstantVectorError naming it, before any pair is compared."""
    if len(results) < 2:
        raise FewerThanTwoMethodsError(f"got {len(results)} result(s), need at least 2")
    names = tuple(result.method.value for result in results)
    regions = results[0].regions
    region_set, n = set(regions), len(regions)  # the one set: any result's repeats show against it
    for name, result in zip(names[1:], results[1:]):
        if result.regions != regions and set(result.regions) != region_set:
            raise RegionSetMismatchError(f"method {name!r} covers a different region set")
    for length in (len(result.regions) for result in results[1:]):  # as crossings met them
        if length != n:
            raise RegionSetMismatchError(f"rankings have different lengths ({n} vs {length})")
        if length != len(region_set):
            raise RegionSetMismatchError("a ranking lists a region more than once")
    # Built one row per column and transposed, so each column is contiguous.
    by_column = np.array([result.rescaled_vector(regions) for result in results])
    # Orders as positions into ``regions``: a result listing them otherwise is ranked again.
    orders = [result.order if result.regions == regions else rank_order(regions, column)
              for result, column in zip(results, by_column)]
    places = np.empty((len(results), n), dtype=np.intp)  # places[k]: orders[k] inverted
    for place, order in zip(places, orders):
        place[order] = np.arange(n)
    stats = tuple(map(describe, by_column))
    for name, column in zip(names, stats):
        if column.min == column.max:
            raise ConstantVectorError(f"index {name!r} is constant; its correlation is undefined")

    # Both measures are symmetric: compute each unordered pair once, mirror it.
    r = np.eye(len(names))
    cross = np.zeros_like(r, dtype=np.int64)
    for i, j in combinations(range(len(names)), 2):
        r[i, j] = r[j, i] = pearson(by_column[i], by_column[j])
        cross[i, j] = cross[j, i] = _inversions(places[j][orders[i]])
    for array in (by_column, r, cross):
        array.setflags(write=False)
    rankings = tuple(result.ranking for result in results)
    return ComparisonReport(names, regions, by_column.T, r, cross, stats, rankings)


# -- artifact writers --------------------------------------------------------

def write_report_json(report: ComparisonReport, path: str | Path) -> None:
    names = report.names
    pairs = [f"{a}:{b}" for a in names for b in names]
    payload = {
        "methods": list(names),
        "regions": list(report.regions),
        "pairwise_r": dict(zip(pairs, report.r.ravel().tolist())),
        "crossings": dict(zip(pairs, report.crossings.ravel().tolist())),
        "per_method_stats": dict(zip(names, map(vars, report.stats))),
        "rankings": dict(zip(names, map(list, report.rankings))),
    }
    write_json(payload, path)


def write_report_csv(report: ComparisonReport, path: str | Path) -> None:
    """Tabular report: one correlation block, one stats block, one ranking block."""
    names, n = list(report.names), len(report.regions)
    stats = ("min", "q1", "median", "q3", "max", "iqr", "mean", "sd")
    blocks = ["pearson"] * len(names) + ["crossings"] * len(names) + ["stats"] * len(stats)
    keys = names + names + list(stats) + [str(rank) for rank in range(1, n + 1)]
    columns = [
        [f"{r:.6f}" for r in r_column]
        + list(map(str, crossings_column))
        + [f"{getattr(column_stats, name):.6f}" for name in stats]
        + list(ranking)
        for r_column, crossings_column, column_stats, ranking in zip(
            report.r.T.tolist(), report.crossings.T.tolist(), report.stats, report.rankings
        )
    ]
    headed = [("block", blocks + ["ranking"] * n), ("key", keys), *zip(names, columns)]
    write_csv([(name, "%s", column) for name, column in headed], path)


def write_parallel_csv(report: ComparisonReport, path: str | Path) -> None:
    """Polyline vertices: one row per (region, method axis) pair."""
    n_axes, n = len(report.names), len(report.regions)
    write_csv(
        [
            ("region", "%s", [region for region in report.regions for _ in range(n_axes)]),
            ("method", "%s", list(report.names) * n),
            ("axis", "%d", list(range(n_axes)) * n),
            ("value", "%.9f", report.values.ravel().tolist()),  # row-major: region by region
        ],
        path,
    )


def write_scatter_csv(report: ComparisonReport, path: str | Path) -> None:
    """Point sets for every unordered method pair (scatter-matrix data)."""
    x, y = map(list, zip(*combinations(range(len(report.names)), 2)))
    write_csv(
        [
            ("method_x", "%s", [report.names[i] for i in x for _ in report.regions]),
            ("method_y", "%s", [report.names[j] for j in y for _ in report.regions]),
            ("region", "%s", list(report.regions) * len(x)),
            ("x", "%.6f", report.values[:, x].T.ravel().tolist()),
            ("y", "%.6f", report.values[:, y].T.ravel().tolist()),
        ],
        path,
    )


_SVG_WIDTH = 720
_SVG_HEIGHT = 480
_SVG_MARGIN = 60
_POLYLINE_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def write_parallel_svg(report: ComparisonReport, path: str | Path) -> None:
    """Emit a minimal static parallel-coordinates SVG (axes, polylines, labels)."""
    n_axes = len(report.names)
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
    for x, name in zip(xs, report.names):
        parts.append(
            f'<line x1="{x:.2f}" y1="{y_at(1.0):.2f}" x2="{x:.2f}" y2="{y_at(0.0):.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y_at(0.0) + 24:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_xml_escape(name)}</text>'
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
    for i, region in enumerate(report.regions):
        color = _POLYLINE_COLORS[i % len(_POLYLINE_COLORS)]
        parts.append(
            f'<polyline points="{points[i]}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{xs[-1] + 6:.2f}" y="{ys[i, -1] + 4:.2f}" '
            f'font-family="sans-serif" font-size="10" fill="{color}">{_xml_escape(region)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


#: The characters XML 1.0 forbids: C0 controls other than tab, LF and CR; U+FFFE; U+FFFF.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _xml_escape(text: str) -> str:
    """``text`` as XML character data, so the SVG is well-formed for every label:
    markup escaped, a character XML forbids drawn as U+FFFD."""
    escaped = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _XML_FORBIDDEN.sub("\ufffd", escaped)
