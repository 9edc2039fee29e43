"""Min-max normalization of indicator columns to [0, 1].

Benefit columns map the observed minimum to 0 and the maximum to 1;
cost columns are inverted so the worst (highest) observation gets 0.
Bounds are always the observed per-column extremes of the dataset under
analysis, which is what makes every normalized column span [0, 1] exactly.
A constant column cannot be scaled; it maps to 0.5 everywhere and is
flagged as degenerate with a warning instead of failing the pipeline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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


def normalize_column(
    values: Sequence[float] | np.ndarray,
    direction: Direction,
    indicator_id: str = "",
) -> tuple[np.ndarray, NormalizationRecord]:
    """Normalize one column; returns the scaled column and its audit record.

    Benefit: (x - min) / (max - min). Cost: (max - x) / (max - min).
    """
    col = np.asarray(values, dtype=float)
    if col.size == 0:
        raise ValueError("cannot normalize an empty column")
    if not np.all(np.isfinite(col)):
        raise ValueError(f"column {indicator_id!r} contains non-finite values")
    lo = float(col.min())
    hi = float(col.max())
    degenerate = hi == lo
    if degenerate:
        warnings.warn(
            f"column {indicator_id or '<unnamed>'} is constant; normalized to 0.5",
            DegenerateColumnWarning,
            stacklevel=2,
        )
        scaled = np.full_like(col, 0.5)
    elif direction is Direction.COST:
        scaled = (hi - col) / (hi - lo)
    else:
        scaled = (col - lo) / (hi - lo)
    record = NormalizationRecord(
        indicator_id=indicator_id,
        observed_min=lo,
        observed_max=hi,
        direction=direction,
        degenerate=degenerate,
    )
    return scaled, record


def normalize_matrix(
    matrix: IndicatorMatrix, manifest: Manifest
) -> tuple[IndicatorMatrix, list[NormalizationRecord]]:
    """Normalize every column of a raw matrix per its manifest direction."""
    if matrix.stage is not Stage.RAW:
        raise ValueError("normalize_matrix expects a raw-stage matrix")
    columns = []
    records = []
    for indicator_id in matrix.indicators:
        direction = manifest.spec(indicator_id).direction
        scaled, record = normalize_column(matrix.column(indicator_id), direction, indicator_id)
        columns.append(scaled)
        records.append(record)
    normalized = IndicatorMatrix(
        matrix.regions, matrix.indicators, np.column_stack(columns), stage=Stage.NORMALIZED
    )
    return normalized, records


def write_normalization_csv(records: Sequence[NormalizationRecord], path: str | Path) -> None:
    """Write the normalization audit (id,min,max,direction,degenerate)."""
    write_csv(
        ["id", "min", "max", "direction", "degenerate"],
        (
            [
                record.indicator_id,
                f"{record.observed_min:.6f}",
                f"{record.observed_max:.6f}",
                record.direction.value,
                str(record.degenerate).lower(),
            ]
            for record in records
        ),
        path,
    )
