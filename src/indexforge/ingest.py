"""Reading of every input file; the JSON and CSV artifact writers. File I/O only:
min-max scaling, derived columns included, lives in ``normalize``.

File conventions are deliberately rigid: CSV files use a comma delimiter,
"." as decimal separator, UTF-8 encoding and LF line endings. Inputs may
start with a UTF-8 byte-order mark, which is skipped. The small CSV inputs
(manifest, weight overrides, reference indexes) go through one reader,
``read_csv_input``: one cell per header column, errors that name the line.
Every reader runs all of its checks inside ``open_input``, which alone puts
the path at the head of each error. A reader checks its file's own rules and
builds the model objects, whose constructors check the rest: the manifest
reader only splits rows, so ``IndicatorSpec`` checks each row's pillar,
direction and weight and ``Manifest`` the ids, pillars and weight rules;
``IndicatorMatrix`` checks the labels and values.
The JSON alternative for datasets is an object
``{"regions": [...], "indicators": [...], "values": [[...]]}``, with no other
key, string region and indicator names and one list of values per region.

A CSV dataset body is parsed in C by one ``np.loadtxt`` pass (``csv.reader``
reads only the header), which splits cells as ``csv.reader`` does and
converts numbers bit for bit as float() does. A body that pass rejects is
read again by the ``csv.reader`` row loop, which names the first bad row or
cell, or accepts the few number spellings only float() takes (``1_000``,
non-ASCII digits); a body that cannot be read twice, from a pipe, goes to
that loop alone. A JSON row is checked cell by cell only when its types
are not all int and float.

Every JSON artifact is written by ``write_json``: the layout of sorted-key,
two-space ``json.dumps``, one C-encoder pass per innermost container. Every
CSV artifact is laid out by ``write_csv`` from whole columns in one ``%``
pass; a text cell holding a comma, quote or line break is quoted.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CompositeIndexError,
    DataFormatError,
    ExtraCellError,
    ExtraRowError,
    FileEncodingError,
    ManifestFormatError,
    MissingCellError,
    NonNumericCellError,
    TooFewRegionsError,
    WeightFormatError,
)
from .model import IndicatorMatrix, IndicatorSpec, Manifest, WeightScheme, build_weight_scheme

MANIFEST_COLUMNS = ("id", "label", "pillar", "direction", "weight", "unit")
WEIGHT_COLUMNS = ("scope", "id", "weight")
REGION_COLUMN = "region"
JSON_KEYS = ("regions", "indicators", "values")


@contextmanager
def open_input(path: Path):
    """Open a UTF-8 input file for reading, skipping a leading byte-order mark.

    The one place that names an input file in an error: a CompositeIndexError
    raised while the file is open keeps its class, and its message gains the
    head ``"<path>: "``. No reader opens a second file while one is open, so
    the path appears once. Bytes that are not UTF-8 raise FileEncodingError,
    also when the caller meets them while reading; it is raised from a sibling
    handler, so it is not prefixed again, and its message starts with the path.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise FileEncodingError(path, exc.reason) from None
    except CompositeIndexError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_csv_input(handle, error: type[Exception]):
    """The header tuple of a small CSV input and a lazy iterator over its non-blank rows.

    A row with more or fewer cells than the header, or a line ``_csv_rows``
    cannot split, raises ``error`` naming the line as it is read; ``open_input``
    adds the path.
    """
    reader = csv.reader(handle)
    parsed = _csv_rows(reader, error)
    header = tuple(next(parsed, ()))

    def rows():
        for row in filter(None, parsed):  # a blank line is an empty row
            if len(row) != len(header):
                raise error(f"line {reader.line_num} has {len(row)} cells, expected {len(header)}")
            yield row

    return header, rows()


def _csv_rows(reader, error: type[Exception], ahead=None):
    """The rows of a ``csv.reader``; a line it cannot split (a cell over
    ``csv.field_size_limit()``) raises ``error`` naming the line, counting
    the lines that ``ahead``, a reader of the same file, read before it.
    """
    try:
        yield from reader
    except csv.Error as exc:
        line = reader.line_num + (ahead.line_num if ahead else 0)
        raise error(f"line {line}: {exc}") from None


def parse_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest CSV (columns id,label,pillar,direction,weight,unit).

    Every row has one cell per column; an empty weight cell means 1.0. Each
    row becomes an ``IndicatorSpec``, which checks its pillar, direction and
    weight, and ``Manifest`` checks the rest; every error starts with the path.
    """
    path = Path(path)
    with open_input(path) as handle:
        header, rows = read_csv_input(handle, ManifestFormatError)
        if header != MANIFEST_COLUMNS:
            raise ManifestFormatError(
                f"manifest header must be {','.join(MANIFEST_COLUMNS)}, got {','.join(header)}"
            )
        return Manifest(
            IndicatorSpec(indicator_id, label, pillar, direction, weight.strip() or 1.0, unit)
            for indicator_id, label, pillar, direction, weight, unit in rows
        )


def parse_weights(path: str | Path, manifest: Manifest) -> WeightScheme:
    """Load a weight override CSV (columns scope,id,weight; scope pillar|indicator).

    Each pillar or indicator may be listed once; ``build_weight_scheme`` checks and
    renormalizes the rest, so a file with no pillar row keeps the panel pillar weights.
    Every error starts with the path.
    """
    weights: dict[str, dict] = {"pillar": {}, "indicator": {}}  # by scope, then key
    with open_input(Path(path)) as handle:
        header, rows = read_csv_input(handle, WeightFormatError)
        if header != WEIGHT_COLUMNS:
            raise WeightFormatError(f"weights file header must be {','.join(WEIGHT_COLUMNS)}")
        for scope_text, target, weight_text in rows:
            scope = scope_text.strip().lower()
            try:
                weight = float(weight_text)
            except ValueError:
                raise WeightFormatError(
                    f"non-numeric weight {weight_text!r} for {target!r}"
                ) from None
            if scope not in weights:
                raise WeightFormatError(f"unknown weight scope {scope_text!r}")
            if target in weights[scope]:
                raise WeightFormatError(f"{scope} {target!r} is listed more than once")
            weights[scope][target] = weight
        return build_weight_scheme(manifest, *(by_key or None for by_key in weights.values()))


def _check_header(indicator_ids: Sequence[str], manifest: Manifest) -> None:
    manifest.check_columns(indicator_ids)
    if len(set(indicator_ids)) != len(indicator_ids):
        seen: set[str] = set()
        duplicates = sorted({i for i in indicator_ids if i in seen or seen.add(i)})
        raise DataFormatError(f"duplicate indicator columns: {', '.join(duplicates)}")


def parse_dataset(path: str | Path, manifest: Manifest) -> IndicatorMatrix:
    """Parse a raw dataset file (CSV or JSON by extension) against a manifest.

    Read, then construct: the reader checks the file's own rules as it reads,
    naming the first bad row or cell. The data columns must match the manifest
    ids exactly, order-insensitive (UnknownIndicatorError, MissingIndicatorError,
    DataFormatError for a repeated column); column order of the file is
    preserved in the returned matrix. Every row has exactly one number per
    column (MissingCellError, ExtraCellError, NonNumericCellError). The
    IndicatorMatrix constructor then checks the table: a repeated region
    (DuplicateRegionError) before a nan or inf (NonNumericCellError, first in
    row-major order). Last, fewer than two regions raise TooFewRegionsError.
    A JSON file with more value rows than regions raises ExtraRowError, and
    one that is not valid JSON, nests arrays or objects over
    ``_JSON_MAX_DEPTH`` deep (counted before decoding), has a key other than
    the three, repeats an object key, holds a region label that is not
    Unicode text (a lone surrogate escape) or is not laid out as above raises
    DataFormatError. A file that is not UTF-8 raises FileEncodingError. The
    file is opened once and every check, the constructor's included, runs
    while it is open, so every error starts with the path.

    A CSV body is read in one ``np.loadtxt`` pass; only a file that pass
    rejects is read again row by row, to name the first bad row or cell (or
    to take the few number spellings float() accepts and numpy does not).
    """
    path = Path(path)
    read = _read_dataset_json if path.suffix.lower() == ".json" else _read_dataset_csv
    with open_input(path) as handle:
        matrix = IndicatorMatrix(*read(handle, manifest))
        if len(matrix.regions) < 2:
            raise TooFewRegionsError(len(matrix.regions))
    return matrix


def _check_row_length(region: str, indicator_ids: Sequence[str], n_cells: int) -> None:
    if n_cells < len(indicator_ids):
        raise MissingCellError(region, indicator_ids[n_cells])
    if n_cells > len(indicator_ids):
        raise ExtraCellError(region, len(indicator_ids), n_cells)


def _raise_cell_error(region: str, indicator_ids: Sequence[str], cells: Sequence[str]) -> None:
    """Name the first cell of a row that float() rejects: blank or non-numeric."""
    for indicator_id, text in zip(indicator_ids, cells):
        try:
            float(text)
        except ValueError:
            if not text.strip():
                raise MissingCellError(region, indicator_id) from None
            raise NonNumericCellError(region, indicator_id, text.strip()) from None


def _lines_without_separators(handle):
    """The lines of ``handle``, with a ValueError at the first that holds a
    character in U+001C..U+001F.

    numpy strips these ASCII information separators from around a number as
    whitespace, and float() does not, so such a file goes to the row loop.
    """
    for line in handle:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("information separator in the data")
        yield line


def _read_dataset_csv(handle, manifest: Manifest):
    """Regions, indicator ids and the regions x indicators values of an open CSV file.

    A body the ``np.loadtxt`` pass rejects is read again by ``_read_csv_rows``,
    which also reads a body that cannot be read twice.
    """
    # readline, unlike iterating the handle, keeps handle.tell() usable.
    header_reader = csv.reader(iter(handle.readline, ""))
    header = next(_csv_rows(header_reader, DataFormatError), None)
    if header is None:
        raise DataFormatError("the file is empty")
    if not header or header[0] != REGION_COLUMN:
        raise DataFormatError(f"first data column must be {REGION_COLUMN!r}")
    indicator_ids = tuple(header[1:])
    _check_header(indicator_ids, manifest)
    if not handle.seekable():  # a pipe: no second read, so only the row loop
        return _read_csv_rows(handle, indicator_ids, header_reader)
    body = handle.tell()
    # loadtxt warns on a body without rows, so such a body never reaches it.
    if not any(line.strip("\r\n") for line in iter(handle.readline, "")):
        return [], indicator_ids, np.empty((0, len(indicator_ids)))
    handle.seek(body)
    row_type = [("region", object), ("values", float, (len(indicator_ids),))]
    try:
        table = np.loadtxt(
            _lines_without_separators(handle),
            dtype=row_type,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=1,
        )
    except UnicodeDecodeError:
        raise  # a ValueError too; open_input makes it a FileEncodingError
    except ValueError:
        handle.seek(body)
        return _read_csv_rows(handle, indicator_ids, header_reader)
    return table["region"].tolist(), indicator_ids, table["values"]


def _read_csv_rows(handle, indicator_ids: tuple[str, ...], header_reader):
    """The row loop: names the first bad row or cell, else returns what it read."""
    regions: list[str] = []
    values = array("d")  # row-major, one row of len(indicator_ids) per region
    width = len(indicator_ids) + 1
    for row in _csv_rows(csv.reader(handle), DataFormatError, header_reader):
        if not row:
            continue
        if len(row) != width:
            _check_row_length(row[0], indicator_ids, len(row) - 1)
        try:
            values.fromlist(list(map(float, row[1:])))
        except ValueError:
            _raise_cell_error(row[0], indicator_ids, row[1:])
        regions.append(row[0])
    return regions, indicator_ids, np.frombuffer(values).reshape(len(regions), width - 1)


#: The types of the numbers ``json.loads`` returns; bool is a type of its own.
_JSON_NUMBERS = frozenset((int, float))

#: How deep a JSON dataset may nest arrays and objects. Its layout needs 3;
#: the cap keeps decoding far below Python's recursion limit.
_JSON_MAX_DEPTH = 32
#: A JSON string; one left open runs to the end of the text, so no match
#: fails and is retried from a later quote, and the scan stays linear.
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', re.S)
_NOT_BRACKETS = bytes(byte for byte in range(256) if byte not in b"[]{}")
_BRACKET_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _json_depth(text: str) -> int:
    """How deep the arrays and objects of a JSON text nest, found without
    decoding it: the running count of the brackets outside its strings."""
    brackets = _JSON_STRING.sub("", text).encode("utf-8").translate(None, _NOT_BRACKETS)
    return max(accumulate(map(_BRACKET_STEP.__getitem__, brackets)), default=0)


def _read_dataset_json(handle, manifest: Manifest):
    """Regions, indicator ids and the regions x indicators values of an open JSON file."""
    text = handle.read()  # outside the try: a UnicodeDecodeError is a ValueError too
    if _json_depth(text) > _JSON_MAX_DEPTH:
        raise DataFormatError("the file nests JSON arrays or objects too deeply")
    try:
        payload = json.loads(text, object_pairs_hook=_json_object)
    except ValueError as exc:  # a JSONDecodeError, or an int of over 4,300 digits
        raise DataFormatError(f"the file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"the file must hold a JSON object with keys {', '.join(JSON_KEYS)}")
    unknown = next((key for key in payload if key not in JSON_KEYS), None)
    if unknown is not None:
        raise DataFormatError(f"unknown key {unknown!r}; the keys are {', '.join(JSON_KEYS)}")
    for key in JSON_KEYS:
        if not isinstance(payload.get(key), list):
            raise DataFormatError(f"the file has no {key!r} list")
    regions = payload["regions"]
    indicator_ids = tuple(payload["indicators"])
    values = payload["values"]
    for key, names in (("regions", regions), ("indicators", indicator_ids)):
        if not all(isinstance(name, str) for name in names):
            raise DataFormatError(f"every entry of {key!r} must be a string")
    try:  # a \ud800 escape decodes to a lone surrogate, which no file can hold
        "".join(regions).encode("utf-8")
    except UnicodeEncodeError as exc:
        region = next(region for region in regions if exc.object[exc.start] in region)
        raise DataFormatError(f"region {region!r} is not Unicode text: {exc.reason}") from None
    _check_header(indicator_ids, manifest)
    if len(values) < len(regions):
        raise MissingCellError(regions[len(values)], indicator_ids[0])
    if len(values) > len(regions):
        raise ExtraRowError(len(values), len(regions))
    for region, row in zip(regions, values):
        if not isinstance(row, list):
            raise DataFormatError(f"the values of region {region!r} are not a list")
        _check_row_length(region, indicator_ids, len(row))
        if not _JSON_NUMBERS.issuperset(map(type, row)):
            _raise_json_cell_error(region, indicator_ids, row)
    try:
        table = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range reads as ±inf, as in a CSV file
        table = np.array([[float(str(value)) for value in row] for row in values])
    # A file without regions gives (0,) here; reshape makes every shape 2-D.
    return regions, indicator_ids, table.reshape(len(regions), len(indicator_ids))


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a key it holds twice raises DataFormatError naming the key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise DataFormatError(f"key {key!r} appears more than once in a JSON object")
    return obj


def _raise_json_cell_error(region: str, indicator_ids: Sequence[str], row: list) -> None:
    """Name the first cell of a row that is not an int or a float."""
    for indicator_id, value in zip(indicator_ids, row):
        if value is None:
            raise MissingCellError(region, indicator_id)
        if type(value) not in _JSON_NUMBERS:
            raise NonNumericCellError(region, indicator_id, repr(value))


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


@lru_cache(maxsize=None)
def _json_encoder(depth: int) -> json.JSONEncoder:
    """C-encoder for a container of scalars whose items sit at ``depth`` + 1."""
    return json.JSONEncoder(
        ensure_ascii=False, sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": ")
    )


def _json_key(key) -> str:
    """An object key as json writes it: a str escaped, and an int, float, bool or
    None as its JSON text, escaped as a str; any other key raises TypeError."""
    if not isinstance(key, (str, int, float)) and key is not None:  # bool is an int
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring(key if isinstance(key, str) else _json_encoder(0).encode(key))


def _json_text(value, depth: int) -> str:
    """``value`` laid out as ``json.dumps(indent=2, sort_keys=True)`` nests it ``depth`` deep."""
    encoder = _json_encoder(depth)
    if not isinstance(value, (list, tuple, dict)) or not value:
        return encoder.encode(value)
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    items = value.values() if isinstance(value, dict) else value
    if _JSON_SCALARS.issuperset(map(type, items)):
        text = encoder.encode(value)  # one C pass for the whole innermost container
        return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
    if isinstance(value, dict):
        lines = [f"{_json_key(key)}: {_json_text(value[key], depth + 1)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(lines) + outer + "}"
    lines = [_json_text(item, depth + 1) for item in value]
    return "[" + inner + ("," + inner).join(lines) + outer + "]"


def write_json(payload: Mapping[str, object], path: str | Path) -> None:
    """Write ``payload`` exactly as ``json.dumps(payload, ensure_ascii=False,
    indent=2, sort_keys=True) + "\n"`` would.

    Containers nest to any depth. An object key is a str, or an int, float,
    bool or None, written as its JSON text in quotes as json writes it; any
    other key raises TypeError. Each non-empty innermost container is
    encoded in one pass of the C encoder, with the separators of its depth;
    only the containers above those are laid out in Python.
    """
    Path(path).write_text(_json_text(payload, 0) + "\n", encoding="utf-8")


#: The characters that make a text need quotes as a CSV cell.
_CSV_MARKS = (",", '"', "\r", "\n")


def _csv_cells(texts: Iterable[str]) -> list[str]:
    """Each text as one CSV cell.

    A text holding a delimiter, quote or line-break character is wrapped in
    quotes, with its own quotes doubled; any other text is the cell itself.
    """
    cells = list(texts)
    joined = "".join(cells)
    # The test of _CSV_MARKS spelled out: twice as fast as any() for the common column.
    if "," not in joined and '"' not in joined and "\r" not in joined and "\n" not in joined:
        return cells
    return [
        '"' + text.replace('"', '""') + '"' if any(mark in text for mark in _CSV_MARKS) else text
        for text in cells
    ]


def write_csv(columns: Sequence[tuple[str, str, Sequence]], path: str | Path) -> None:
    """Write a CSV artifact (UTF-8, LF line ends) from whole columns in one ``%`` pass.

    Each column is a ``(header, format, values)`` triple, all values of one
    length. ``"%s"`` marks texts, quoted as ``_csv_cells`` quotes them; any
    other %-format (``"%.6f"``, ``"%d"``) is applied to each value as it is.
    """
    width, n = len(columns), len(columns[0][2])
    cells: list[object] = [None] * (width * n)
    for j, (_, spec, values) in enumerate(columns):
        cells[j::width] = _csv_cells(values) if spec == "%s" else values
    header = ",".join(_csv_cells(name for name, _, _ in columns)) + "\n"
    row = ",".join(spec for _, spec, _ in columns) + "\n"
    Path(path).write_text(header + (row * n) % tuple(cells), encoding="utf-8", newline="")
