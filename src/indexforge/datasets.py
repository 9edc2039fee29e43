"""Bundled dataset: 9 Portuguese NUTS III regions by 25 indicators.

The package ships three CSV files: the default indicator manifest, the
raw indicator table (``nuts3.csv``) and the reference index values for
the same regions (``table3.csv``), against which the engine's output can
be compared. All loaders return the same immutable objects used by the
rest of the package.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .aggregate import IndexResult
from .errors import DataFormatError, TooFewRegionsError
from .ingest import open_input, parse_dataset, parse_manifest, read_csv_input
from .model import IndicatorMatrix, Manifest, Method

MANIFEST_FILE = "manifest.csv"
DATASET_FILE = "nuts3.csv"
REFERENCE_FILE = "table3.csv"


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(__file__).parent / "data" / name


def load_default_manifest() -> Manifest:
    """The 25-indicator manifest (5/7/7/6 per pillar, three cost indicators)."""
    return parse_manifest(data_path(MANIFEST_FILE))


def load_nuts3_dataset() -> tuple[Manifest, IndicatorMatrix]:
    """The bundled raw dataset together with its manifest."""
    manifest = load_default_manifest()
    matrix = parse_dataset(data_path(DATASET_FILE), manifest)
    return manifest, matrix


def load_reference_indexes(path: str | Path | None = None) -> dict[Method, IndexResult]:
    """Reference index values per method, packaged as IndexResult objects.

    These are previously published values for the bundled dataset, kept as
    two-decimal numbers exactly as released; each column is the raw index of
    an IndexResult, rescaled and ranked as every method's index is. A header
    that names a column twice, a value that is not a finite number, or a row
    with more or fewer cells than the header raises DataFormatError; fewer
    than two regions raise TooFewRegionsError, then a repeated region
    DuplicateRegionError. Every error starts with the path.
    """
    path = data_path(REFERENCE_FILE) if path is None else Path(path)
    regions: list[str] = []
    values: list[float] = []  # row by row, one value per method
    with open_input(path) as handle:
        header, rows = read_csv_input(handle, DataFormatError)
        expected = {"region", *(m.value for m in Method)}
        missing = expected - set(header)
        if missing:
            raise DataFormatError(
                f"reference index file must have columns {sorted(expected)}; "
                f"missing {sorted(missing)}"
            )
        duplicates = sorted({name for name in header if header.count(name) > 1})
        if duplicates:
            raise DataFormatError(
                f"reference index file has duplicate columns: {', '.join(duplicates)}"
            )
        for cells in rows:
            row = dict(zip(header, cells))
            regions.append(row["region"])
            for method in Method:
                text = row[method.value]
                try:
                    value = float(text)
                    if not np.isfinite(value):
                        raise ValueError(text)
                except ValueError:
                    raise DataFormatError(
                        f"non-numeric {method.value} value {text!r} for region {row['region']!r}"
                    ) from None
                values.append(value)
        if len(regions) < 2:
            raise TooFewRegionsError(len(regions))
        return {m: IndexResult(m, regions, values[k::len(Method)]) for k, m in enumerate(Method)}
