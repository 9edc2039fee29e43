"""Min-max scaling to [0, 1]: indicator columns, derived columns, the final index.

Benefit columns map the observed minimum to 0 and the maximum to 1;
cost columns are inverted so the worst (highest) observation gets 0.
Bounds are always the observed per-column extremes of the dataset under
analysis, which is what makes every normalized column span [0, 1] exactly.
A constant column cannot be scaled; it maps to 0.5 everywhere and is
flagged as degenerate with a warning instead of failing the pipeline.

``normalize_matrix`` scales the whole regions x indicators array in one
vectorized pass; ``normalize_column`` runs the same kernel on a single
column, so both give the same bytes for the same column. The kernel is the
package's only min-max code: ``composite_indicator`` averages scaled
component columns into a derived column, and ``aggregate.IndexResult``
rescales the raw index it is built from with one ``normalize_column`` call.
The kernel rejects a column holding a nan or inf (ValueError) or one whose
max - min overflows (ColumnSpanOverflowError), naming it; an IndicatorMatrix
holds no nan or inf, so for ``normalize_matrix`` only the overflow can occur.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ColumnSpanOverflowError, ConstantComponentError
from .ingest import write_csv
from .model import Direction, IndicatorMatrix, Manifest, Stage


class DegenerateColumnWarning(UserWarning):
    """A column (or index vector) was constant and mapped to 0.5."""


@dataclass(frozen=True)
class NormalizationRecord:
    """Audit record of one column normalization."""

    indicator_id: str
    observed_min: float
    observed_max: float
    direction: Direction
    degenerate: bool


def _scale_columns(
    values: np.ndarray, directions: Sequence[Direction], indicator_ids: Sequence[str]
) -> tuple[np.ndarray, list[NormalizationRecord]]:
    """Min-max scale every column of a regions x columns array in one pass.

    The one place the formulas live: benefit (x - min) / (max - min), cost
    (max - x) / (max - min), each element in exactly these IEEE operations;
    a constant column becomes 0.5 with a DegenerateColumnWarning, in column
    order. The first column holding a nan or inf raises ValueError, and the
    first whose max - min overflows raises ColumnSpanOverflowError.
    """
    if values.shape[0] == 0:
        raise ValueError("cannot normalize an empty column")
    bad = ~np.isfinite(values).all(axis=0)
    if bad.any():
        raise ValueError(f"column {indicator_ids[int(bad.argmax())]!r} contains non-finite values")
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    overflow = np.isinf(span)
    if overflow.any():
        raise ColumnSpanOverflowError(indicator_ids[int(overflow.argmax())])
    degenerate = hi == lo
    cost = np.array([direction is Direction.COST for direction in directions], dtype=bool)
    scaled = values - lo
    scaled[:, cost] = hi[cost] - values[:, cost]
    scaled /= np.where(degenerate, 1.0, span)
    scaled[:, degenerate] = 0.5
    records = [
        NormalizationRecord(*fields)
        for fields in zip(indicator_ids, lo.tolist(), hi.tolist(), directions, degenerate.tolist())
    ]
    for record in records:
        if record.degenerate:
            warnings.warn(
                f"column {record.indicator_id or '<unnamed>'} is constant; normalized to 0.5",
                DegenerateColumnWarning,
                stacklevel=3,
            )
    return scaled, records


def normalize_column(
    values: Sequence[float] | np.ndarray,
    direction: Direction,
    indicator_id: str = "",
) -> tuple[np.ndarray, NormalizationRecord]:
    """Normalize one column; returns the scaled column and its audit record.

    Benefit: (x - min) / (max - min). Cost: (max - x) / (max - min).
    """
    col = np.asarray(values, dtype=float)
    scaled, records = _scale_columns(col.reshape(-1, 1), (direction,), (indicator_id,))
    return scaled[:, 0], records[0]


def normalize_matrix(
    matrix: IndicatorMatrix, manifest: Manifest
) -> tuple[IndicatorMatrix, list[NormalizationRecord]]:
    """Normalize every column of a raw matrix per its manifest direction.

    One vectorized pass over the whole matrix; records and warnings follow
    the matrix's column order. The result keeps the raw matrix's labels,
    checked when it was built, and takes over the scaled array; the matrix
    checks only its values.
    """
    if matrix.stage is not Stage.RAW:
        raise ValueError("normalize_matrix expects a raw-stage matrix")
    directions = [manifest.spec(indicator_id).direction for indicator_id in matrix.indicators]
    scaled, records = _scale_columns(matrix.values, directions, matrix.indicators)
    return matrix._with_values(scaled, Stage.NORMALIZED), records


def composite_indicator(components: Mapping[str, Sequence[float]]) -> np.ndarray:
    """Combine component columns into one derived indicator column.

    Each component is min-max normalized to [0, 1] across regions and the
    normalized components are averaged per region with equal weight. The
    result is a raw-stage derived column; it takes part in the usual
    normalization later like any other indicator.

    Raises ConstantComponentError naming the first constant component before
    anything is scaled, then ValueError naming one that holds a nan or inf,
    or ColumnSpanOverflowError naming one whose max - min overflows.
    """
    if len(components) < 2:
        raise ValueError("need at least two component columns")
    columns = [np.asarray(values, dtype=float) for values in components.values()]
    if len({len(col) for col in columns}) != 1:
        raise ValueError("component columns must cover the same regions")
    for name, col in zip(components, columns):
        if col.max() == col.min():
            raise ConstantComponentError(name)
    # One contiguous column per component: the mean then adds the components
    # in order, as a mean over a list of columns does.
    stacked = np.array(columns).T
    scaled, _ = _scale_columns(stacked, [Direction.BENEFIT] * len(columns), list(components))
    return scaled.mean(axis=1)


def write_normalization_csv(records: Sequence[NormalizationRecord], path: str | Path) -> None:
    """Write the normalization audit (id,min,max,direction,degenerate)."""
    write_csv(
        [
            ("id", "%s", [record.indicator_id for record in records]),
            ("min", "%.6f", [record.observed_min for record in records]),
            ("max", "%.6f", [record.observed_max for record in records]),
            ("direction", "%s", [record.direction.value for record in records]),
            ("degenerate", "%s", [str(record.degenerate).lower() for record in records]),
        ],
        path,
    )
