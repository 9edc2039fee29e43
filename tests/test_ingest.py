from __future__ import annotations

import ast
import csv
import io
import inspect
import json
import sys
import tempfile
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from indexforge.ingest import (
    REGION_COLUMN,
    _check_header,
    _check_row_length,
    _raise_cell_error,
    _read_dataset_csv,
    open_input,
    parse_dataset,
    parse_manifest,
    parse_weights,
    write_json,
)
from indexforge.model import IndicatorMatrix, Stage
from indexforge.normalize import composite_indicator
from indexforge.datasets import data_path, load_reference_indexes
from indexforge.errors import (
    AllZeroWeightsError,
    CompositeIndexError,
    ConstantComponentError,
    DataFormatError,
    DuplicateIndicatorIdError,
    DuplicateRegionError,
    ExtraCellError,
    ExtraRowError,
    FileEncodingError,
    ManifestFormatError,
    MissingCellError,
    MissingIndicatorError,
    NonNumericCellError,
    TooFewRegionsError,
    UnknownIndicatorError,
    WeightFormatError,
)


def write_dataset_csv(matrix: IndicatorMatrix, path) -> None:
    """Dataset CSV with exact (shortest round-trip) floats, quoted as needed."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["region", *matrix.indicators])
        for region, row in zip(matrix.regions, matrix.values.tolist()):
            writer.writerow([region, *row])


def write_dataset_json(matrix: IndicatorMatrix, path) -> None:
    payload = {
        "regions": list(matrix.regions),
        "indicators": list(matrix.indicators),
        "values": matrix.values.tolist(),
    }
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def write_tmp_dataset(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL_MANIFEST = """id,label,pillar,direction,weight,unit
a,Alpha,Population,benefit,1.0,%
b,Beta,SocialWelfare,benefit,1.0,%
c,Gamma,Economy,cost,1.0,%
d,Delta,Environment,benefit,1.0,%
"""


@pytest.fixture
def small_manifest(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(SMALL_MANIFEST, encoding="utf-8")
    return parse_manifest(path)


def reference_read_dataset_csv(handle, manifest):
    """The csv.reader loop that read every CSV body before the loadtxt pass, verbatim."""
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("the file is empty") from None
    if not header or header[0] != REGION_COLUMN:
        raise DataFormatError(f"first data column must be {REGION_COLUMN!r}")
    indicator_ids = tuple(header[1:])
    _check_header(indicator_ids, manifest)
    regions: list[str] = []
    values = array("d")  # row-major, one row of len(indicator_ids) per region
    width = len(header)
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            _check_row_length(row[0], indicator_ids, len(row) - 1)
        try:
            values.fromlist(list(map(float, row[1:])))
        except ValueError:
            _raise_cell_error(row[0], indicator_ids, row[1:])
        regions.append(row[0])
    return regions, indicator_ids, values


def read_outcome(reader, path, manifest):
    """Regions, ids and value bytes a CSV reader returns from the file ``open_input``
    opens, or the (class, message) it raises."""
    try:
        with open_input(path) as handle:
            regions, indicator_ids, values = reader(handle, manifest)
    except CompositeIndexError as exc:
        return type(exc), str(exc)
    return list(regions), indicator_ids, np.asarray(values, dtype=float).tobytes()


def tall_dataset_with(tmp_path, bad_last_cell, rows=2000, bad_row=1500):
    """A rows-region file over a,b,c,d whose row bad_row ends in bad_last_cell."""
    lines = ["region,a,b,c,d"]
    lines.extend(f"r{i},{i},{i % 7}.5,-{i}e-3,{i * 3}" for i in range(1, rows + 1))
    lines[bad_row] = f"r{bad_row},1,2,3,{bad_last_cell}"
    return write_tmp_dataset(tmp_path, "\n".join(lines) + "\n")


class TestParseManifest:
    def test_bundled_manifest_loads(self, manifest):
        assert len(manifest) == 25
        assert manifest.spec("PopDens").unit == "inhabit/km2"

    def test_bad_header_rejected(self, tmp_path):
        path = write_tmp_dataset(tmp_path, "id,pillar\nx,Population\n", "m.csv")
        with pytest.raises(ManifestFormatError):
            parse_manifest(path)

    def test_unknown_pillar_rejected(self, tmp_path):
        text = "id,label,pillar,direction,weight,unit\nx,X,Lunar,benefit,1.0,%\n"
        with pytest.raises(ManifestFormatError):
            parse_manifest(write_tmp_dataset(tmp_path, text, "m.csv"))

    def test_unknown_direction_rejected(self, tmp_path):
        text = "id,label,pillar,direction,weight,unit\nx,X,Population,sideways,1.0,%\n"
        with pytest.raises(ManifestFormatError):
            parse_manifest(write_tmp_dataset(tmp_path, text, "m.csv"))

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes((SMALL_MANIFEST + "e,Épsilon,Economy,benefit,1.0,%\n").encode("latin-1"))
        with pytest.raises(FileEncodingError) as exc_info:
            parse_manifest(path)
        assert exc_info.value.path == str(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(SMALL_MANIFEST.encode("utf-8-sig"))
        assert parse_manifest(path).ids == ("a", "b", "c", "d")

    @pytest.mark.parametrize(
        "row, cells",
        [
            ("x,X,Population,benefit", 4),
            ("x,X,Population,benefit,1.0", 5),
            ("x,X,Population,benefit,1.0,%,extra", 7),
        ],
        ids=["no-weight-no-unit", "no-unit", "extra-cell"],
    )
    def test_row_cell_count_checked(self, tmp_path, row, cells):
        path = write_tmp_dataset(tmp_path, SMALL_MANIFEST + row + "\n", "m.csv")
        with pytest.raises(ManifestFormatError, match=f"line 6 has {cells} cells, expected 6"):
            parse_manifest(path)

    def test_empty_weight_cell_means_one(self, tmp_path):
        text = SMALL_MANIFEST + "e,Epsilon,Economy,benefit,,kg\n"
        spec = parse_manifest(write_tmp_dataset(tmp_path, text, "m.csv")).spec("e")
        assert spec.weight == 1.0
        assert spec.unit == "kg"


class TestParseDataset:
    def test_bundled_dataset_spot_values(self, manifest, raw_matrix):
        assert raw_matrix.shape == (9, 25)
        assert raw_matrix.stage is Stage.RAW
        lookup = dict(zip(raw_matrix.indicators, raw_matrix.row("Alto Minho")))
        assert lookup["PopDens"] == pytest.approx(103.80)
        lookup = dict(zip(raw_matrix.indicators, raw_matrix.row("Região Autónoma da Madeira")))
        assert lookup["PopDens"] == pytest.approx(317.20)
        assert lookup["FamInc"] == pytest.approx(17337.00)
        assert lookup["NatInc"] == pytest.approx(-0.31)

    def test_missing_cell(self, tmp_path, small_manifest):
        path = write_tmp_dataset(tmp_path, "region,a,b,c,d\nr1,1,2,,4\nr2,5,6,7,8\n")
        with pytest.raises(MissingCellError) as exc_info:
            parse_dataset(path, small_manifest)
        assert exc_info.value.region == "r1"
        assert exc_info.value.indicator_id == "c"
        assert str(exc_info.value) == f"{path}: missing value at region 'r1', indicator 'c'"
        # The same error deep in a tall file, for a blank and a whitespace-only cell.
        for cell in ("", "  \t "):
            tall = tall_dataset_with(tmp_path, cell)
            with pytest.raises(MissingCellError) as exc_info:
                parse_dataset(tall, small_manifest)
            assert str(exc_info.value) == f"{tall}: missing value at region 'r1500', indicator 'd'"

    def test_short_row(self, tmp_path, small_manifest):
        path = write_tmp_dataset(tmp_path, "region,a,b,c,d\nr1,1,2,3\n")
        with pytest.raises(MissingCellError):
            parse_dataset(path, small_manifest)

    def test_extra_cell(self, tmp_path, small_manifest):
        path = write_tmp_dataset(tmp_path, "region,a,b,c,d\nr1,1,2,3,4\nr2,5,6,7,8,9\n")
        with pytest.raises(ExtraCellError) as exc_info:
            parse_dataset(path, small_manifest)
        assert exc_info.value.region == "r2"

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, small_manifest, text):
        path = write_tmp_dataset(tmp_path, f"region,a,b,c,d\nr1,1,2,3,4\nr2,5,{text},7,8\n")
        with pytest.raises(NonNumericCellError) as exc_info:
            parse_dataset(path, small_manifest)
        assert (exc_info.value.region, exc_info.value.indicator_id) == ("r2", "b")

    @pytest.mark.parametrize("rows", ["", "r1,1,2,3,4\n"], ids=["header-only", "one-region"])
    def test_too_few_regions(self, tmp_path, small_manifest, rows):
        path = write_tmp_dataset(tmp_path, "region,a,b,c,d\n" + rows)
        with pytest.raises(TooFewRegionsError):
            parse_dataset(path, small_manifest)

    def test_json_shares_the_checks(self, tmp_path, small_manifest):
        def payload(regions, values):
            return json.dumps({"regions": regions, "indicators": list("abcd"), "values": values})

        cases = [
            (payload(["r1", "r1"], [[1, 2, 3, 4], [5, 6, 7, 8]]), DuplicateRegionError),
            (payload(["r1", "r2"], [[1, 2, 3, 4], [5, 6, 7, 8, 9]]), ExtraCellError),
            (payload(["r1", "r2"], [[1, 2, 3, 4], [5, 6, 7]]), MissingCellError),
            (payload(["r1"], [[1, 2, 3, 4]]), TooFewRegionsError),
            (payload(["r1", "r2"], [[1, 2, 3, 4]]), MissingCellError),
            (payload(["r1", "r2"], [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]), ExtraRowError),
        ]
        for text, error in cases:
            path = write_tmp_dataset(tmp_path, text, "data.json")
            with pytest.raises(error):
                parse_dataset(path, small_manifest)

    @pytest.mark.parametrize(
        "row, error, message",
        [
            ([5, None, "7", 8], MissingCellError, "missing value at region 'r2', indicator 'b'"),
            ([5, 6.5, True, None], NonNumericCellError,
             "non-numeric value 'True' at region 'r2', indicator 'c'"),
            ([5, 6, 7, "8"], NonNumericCellError,
             "non-numeric value \"'8'\" at region 'r2', indicator 'd'"),
            ({"a": 5}, DataFormatError, "the values of region 'r2' are not a list"),
            ([5, 6, 10**400, 8], NonNumericCellError,
             "non-numeric value 'inf' at region 'r2', indicator 'c'"),
            ([-10**400, 6, 7, 8], NonNumericCellError,
             "non-numeric value '-inf' at region 'r2', indicator 'a'"),
        ],
        ids=["null", "bool", "string", "row-not-list", "int-beyond-float",
             "negative-int-beyond-float"],
    )
    def test_json_bad_cell_messages(self, tmp_path, small_manifest, row, error, message):
        payload = {"regions": ["r1", "r2"], "indicators": list("abcd"),
                   "values": [[1, 2.5, 3, 4], row]}
        path = write_tmp_dataset(tmp_path, json.dumps(payload), "data.json")
        with pytest.raises(error) as exc_info:
            parse_dataset(path, small_manifest)
        assert str(exc_info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"regions": ["r1", "r2"], "indicators": ', "is not valid JSON"),
            ('{"regions": ["r1", "r2"], "values": [[1, 2, 3, 4], [5, 6, 7, 8]]}',
             "has no 'indicators' list"),
            ('[["r1", 1, 2, 3, 4], ["r2", 5, 6, 7, 8]]', "must hold a JSON object"),
            ('{"regions": "r1", "indicators": ["a"], "values": []}', "has no 'regions' list"),
            ('{"regions": ["r1", 2], "indicators": ["a", "b", "c", "d"], "values": []}',
             "every entry of 'regions' must be a string"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", ["d"]], "values": []}',
             "every entry of 'indicators' must be a string"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
             '"values": [[1, 2, 3, 4], {"a": 5}]}',
             "the values of region 'r2' are not a list"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
             '"values": [[1, 2, 3, 4], [5, 6, 7, ' + "9" * 5000 + ']]}',
             "is not valid JSON: Exceeds the limit"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], "values": '
             + "[" * 100_000 + "]" * 100_000 + "}",
             "the file nests JSON arrays or objects too deeply"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
             '"values": [[1, 2, 3, 4], [5, 6, 7, ' + "[" * 995 + "8" + "]" * 995 + "]]}",
             "the file nests JSON arrays or objects too deeply"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
             '"values": [[1, 2, 3, 4], [5, 6, 7, 8]], "values": [[0, 0, 0, 0], [0, 0, 0, 0]]}',
             "key 'values' appears more than once in a JSON object"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
             '"values": [[1, 2, 3, 4], [5, 6, 7, {"x": 1, "y": 2, "x": 3}]]}',
             "key 'x' appears more than once in a JSON object"),
            ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
             '"values": [[1, 2, 3, 4], [5, 6, 7, 8]], "valeus": [[0]]}',
             "unknown key 'valeus'; the keys are regions, indicators, values"),
        ],
        ids=["truncated", "no-indicators", "top-level-list", "regions-not-list",
             "region-not-string", "indicator-not-string", "row-not-list", "int-of-5000-digits",
             "deep-values", "deep-cell", "repeated-values-key", "repeated-key-in-a-cell",
             "unknown-top-level-key"],
    )
    def test_malformed_json(self, tmp_path, small_manifest, text, message):
        path = write_tmp_dataset(tmp_path, text, "data.json")
        with pytest.raises(DataFormatError, match=message):
            parse_dataset(path, small_manifest)

    @pytest.mark.parametrize(
        "labels, bad",
        [
            ('"r\\ud800", "r2"', "r\ud800"),
            ('"r1", "\\udfffr"', "\udfffr"),
            ('"\\ud83d", "\\ude00"', "\ud83d"),
            ('"r1", "r\\ud83d\\ude00", "\\udc00"', "\udc00"),
        ],
        ids=["lone-high", "lone-low", "halves-in-two-labels", "pair-then-lone"],
    )
    def test_json_region_with_a_lone_surrogate_rejected(
        self, tmp_path, small_manifest, labels, bad
    ):
        rows = ", ".join(["[1, 2, 3, 4]"] * (labels.count(",") + 1))
        text = f'{{"regions": [{labels}], "indicators": ["a", "b", "c", "d"], "values": [{rows}]}}'
        path = write_tmp_dataset(tmp_path, text, "data.json")
        with pytest.raises(DataFormatError) as exc_info:
            parse_dataset(path, small_manifest)
        assert str(exc_info.value) == (
            f"{path}: region {bad!r} is not Unicode text: surrogates not allowed"
        )

    @pytest.mark.parametrize("cell_depth", [29, 30, 977])
    def test_json_nesting_cap_does_not_depend_on_the_stack(
        self, tmp_path, small_manifest, cell_depth
    ):
        """A cell nested ``cell_depth`` arrays deep sits at depth 3 + ``cell_depth``.
        Up to the cap of 32 it is a bad cell; past it the file is rejected before
        decoding, alike from a shallow and from a nearly exhausted Python stack."""
        cell = "[" * cell_depth + "8" + "]" * cell_depth
        text = ('{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
                f'"values": [[1, 2, 3, 4], [5, 6, 7, {cell}]]}}')
        path = write_tmp_dataset(tmp_path, text, "data.json")
        if cell_depth > 29:
            expected = (DataFormatError, "the file nests JSON arrays or objects too deeply")
        else:
            expected = (NonNumericCellError, f"non-numeric value {repr(json.loads(cell))!r}")

        def outcome():
            try:
                parse_dataset(path, small_manifest)
            except (NonNumericCellError, DataFormatError) as exc:
                return type(exc), str(exc)

        def under_deep_stack(headroom):
            if headroom <= 60:
                return outcome()
            return under_deep_stack(headroom - 1)

        shallow = outcome()
        deep = under_deep_stack(sys.getrecursionlimit() - len(inspect.stack(0)))
        assert shallow == deep
        assert shallow[0] is expected[0] and shallow[1].startswith(f"{path}: {expected[1]}")

    def test_json_region_with_an_escaped_surrogate_pair_accepted(self, tmp_path, small_manifest):
        text = ('{"regions": ["r\\ud83d\\ude00", "\\u00e9"], "indicators": ["a", "b", "c", "d"], '
                '"values": [[1, 2, 3, 4], [5, 6, 7, 8]]}')
        path = write_tmp_dataset(tmp_path, text, "data.json")
        assert parse_dataset(path, small_manifest).regions == ("r\U0001f600", "\u00e9")

    @pytest.mark.parametrize("name", ["data.csv", "data.json"])
    def test_non_utf8_rejected(self, tmp_path, small_manifest, name):
        path = tmp_path / name
        if name.endswith(".json"):
            text = json.dumps(
                {"regions": ["Ré1", "r2"], "indicators": list("abcd"),
                 "values": [[1, 2, 3, 4], [5, 6, 7, 8]]},
                ensure_ascii=False,
            )
        else:
            text = "region,a,b,c,d\nRé1,1,2,3,4\nr2,5,6,7,8\n"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(FileEncodingError):
            parse_dataset(path, small_manifest)

    @pytest.mark.parametrize("name", ["data.csv", "data.json"])
    def test_byte_order_mark_skipped(self, tmp_path, small_manifest, name):
        matrix = IndicatorMatrix(("r1", "r2"), ("a", "b", "c", "d"), [[1, 2, 3, 4], [5, 6, 7, 8]])
        path = tmp_path / name
        (write_dataset_json if name.endswith(".json") else write_dataset_csv)(matrix, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert parse_dataset(path, small_manifest) == matrix

    def test_non_numeric_cell(self, tmp_path, small_manifest):
        path = write_tmp_dataset(tmp_path, "region,a,b,c,d\nr1,1,2,x,4\n")
        with pytest.raises(NonNumericCellError) as exc_info:
            parse_dataset(path, small_manifest)
        assert exc_info.value.region == "r1"
        assert exc_info.value.indicator_id == "c"
        assert str(exc_info.value) == f"{path}: non-numeric value 'x' at region 'r1', indicator 'c'"
        tall = tall_dataset_with(tmp_path, " x ")
        with pytest.raises(NonNumericCellError) as exc_info:
            parse_dataset(tall, small_manifest)
        message = "non-numeric value 'x' at region 'r1500', indicator 'd'"
        assert str(exc_info.value) == f"{tall}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "is empty"),
            ("name,a,b,c,d\nr1,1,2,3,4\nr2,5,6,7,8\n", "first data column must be 'region'"),
            ("region,a,b,c,d,a\nr1,1,2,3,4,1\nr2,5,6,7,8,5\n", "duplicate indicator columns: a"),
        ],
        ids=["empty", "no-region-column", "duplicate-column"],
    )
    def test_malformed_csv_header(self, tmp_path, small_manifest, text, message):
        path = write_tmp_dataset(tmp_path, text)
        with pytest.raises(DataFormatError, match=message):
            parse_dataset(path, small_manifest)

    def test_duplicate_region(self, tmp_path, small_manifest):
        path = write_tmp_dataset(
            tmp_path, "region,a,b,c,d\nr1,1,2,3,4\nr1,5,6,7,8\n"
        )
        with pytest.raises(DuplicateRegionError):
            parse_dataset(path, small_manifest)

    def test_unknown_indicator_column(self, tmp_path, small_manifest):
        path = write_tmp_dataset(tmp_path, "region,a,b,c,d,e\nr1,1,2,3,4,5\n")
        with pytest.raises(UnknownIndicatorError):
            parse_dataset(path, small_manifest)

    def test_missing_indicator_column(self, tmp_path, small_manifest):
        path = write_tmp_dataset(tmp_path, "region,a,b,c\nr1,1,2,3\n")
        with pytest.raises(MissingIndicatorError):
            parse_dataset(path, small_manifest)

    def test_column_order_free(self, tmp_path, small_manifest):
        path = write_tmp_dataset(tmp_path, "region,d,c,b,a\nr1,4,3,2,1\nr2,8,7,6,5\n")
        matrix = parse_dataset(path, small_manifest)
        assert matrix.indicators == ("d", "c", "b", "a")
        assert matrix.column("a")[0] == pytest.approx(1.0)


#: Each input reader, called as ``reader(path, manifest)``.
READERS = {
    "manifest": lambda path, manifest: parse_manifest(path),
    "weights": parse_weights,
    "data": parse_dataset,
    "reference": lambda path, manifest: load_reference_indexes(path),
}
#: A bad file for each reader: (reader, file name, text, the error it raises).
BAD_INPUTS = {
    "manifest-short-row": ("manifest", "m.csv", SMALL_MANIFEST + "e,E,Economy,benefit\n",
                           ManifestFormatError),
    "manifest-duplicate-id": ("manifest", "m.csv", SMALL_MANIFEST + "a,A,Economy,cost,1,%\n",
                              DuplicateIndicatorIdError),
    "manifest-zero-pillar": (
        "manifest", "m.csv",
        SMALL_MANIFEST.replace("Environment,benefit,1.0", "Environment,benefit,0"),
        AllZeroWeightsError,
    ),
    "weights-unknown-pillar": ("weights", "w.csv", "scope,id,weight\npillar,Lunar,1\n",
                               WeightFormatError),
    "csv-empty": ("data", "data.csv", "", DataFormatError),
    "csv-missing-cell": ("data", "data.csv", "region,a,b,c,d\nr1,1,2,,4\nr2,5,6,7,8\n",
                         MissingCellError),
    "csv-one-region": ("data", "data.csv", "region,a,b,c,d\nr1,1,2,3,4\n", TooFewRegionsError),
    "csv-repeated-region": ("data", "data.csv", "region,a,b,c,d\nr1,1,2,3,4\nr1,5,6,7,8\n",
                            DuplicateRegionError),
    "csv-nan-cell": ("data", "data.csv", "region,a,b,c,d\nr1,1,nan,3,4\nr2,5,6,7,8\n",
                     NonNumericCellError),
    "json-invalid": ("data", "data.json", '{"regions": ["r1", "r2"], ', DataFormatError),
    "json-non-numeric-cell": ("data", "data.json", json.dumps(
        {"regions": ["r1", "r2"], "indicators": list("abcd"),
         "values": [[1, 2, 3, 4], [5, "x", 7, 8]]}
    ), NonNumericCellError),
    "json-overflowing-cell": ("data", "data.json",
                              '{"regions": ["r1", "r2"], "indicators": ["a", "b", "c", "d"], '
                              '"values": [[1, 2, 3, 4], [5, 6, 1e999, 8]]}', NonNumericCellError),
    "reference-missing-column": ("reference", "t.csv", "region,abreu,delphi\nr1,0,0\nr2,1,1\n",
                                 DataFormatError),
    "reference-repeated-region": ("reference", "t.csv",
                                  "region,abreu,delphi,pca\nr1,0,0,0\nr1,1,1,1\n",
                                  DuplicateRegionError),
}


class TestInputErrorsNameTheFile:
    """open_input names the file: every error of every reader starts with the path, once."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_error_starts_with_the_path(self, tmp_path, small_manifest, case):
        reader, name, text, error = BAD_INPUTS[case]
        path = write_tmp_dataset(tmp_path, text, name)
        with pytest.raises(error) as exc_info:
            READERS[reader](path, small_manifest)
        message = str(exc_info.value)
        assert message.startswith(f"{path}: ")
        assert message.count(str(path)) == 1

    @pytest.mark.parametrize("reader", READERS)
    def test_non_utf8_file_names_the_path_once(self, tmp_path, small_manifest, reader):
        path = tmp_path / "latin1.csv"
        path.write_bytes("region,Ré\n".encode("latin-1"))
        with pytest.raises(FileEncodingError) as exc_info:
            READERS[reader](path, small_manifest)
        message = str(exc_info.value)
        assert message.startswith(f"{path} is not UTF-8 text")
        assert message.count(str(path)) == 1


CSV_HEADER = "region,a,b,c,d\n"
R2 = "r2,5,6,7,8\n"
#: Dataset bodies (after CSV_HEADER) that the loadtxt pass and the row loop
#: must read alike: the same regions and value bytes, or the same error.
DIFFERENTIAL_BODIES = {
    "quoted-comma": '"Lisboa, Norte",1,2,3,4\n' + R2,
    "quoted-doubled-quote": '"Porto ""Sul""",1,2,3,4\n' + R2,
    "quoted-newline": '"two\nlines",1,2,3,4\n' + R2,
    "quoted-crlf": '"two\r\nlines",1,2,3,4\r\n' + R2,
    "quoted-lone-cr": '"lone\rcr",1,2,3,4\n' + R2,
    "quote-inside-label": 'a"b,1,2,3,4\n"a"b"c",5,6,7,8\n',
    "unclosed-quote": 'r1,1,2,3,4\n"r2,5,6,7,8\n',
    "spaced-label": "  r1  ,1,2,3,4\n r2,5,6,7,8\n",
    "tab-label": "r\t1,1,2,3,4\n\tr2,5,6,7,8\n",
    "hash-label": "#r1,1,2,3,4\n# r2,5,6,7,8\n",
    "empty-label": ",1,2,3,4\n" + R2,
    "quoted-empty-label": '"",1,2,3,4\n' + R2,
    "separator-in-label": "r\x1d1,1,2,3,4\n" + R2,
    "crlf": "r1,1,2,3,4\r\nr2,5,6,7,8\r\n",
    "lone-cr": "r1,1,2,3,4\rr2,5,6,7,8\r",
    "no-final-newline": "r1,1,2,3,4\nr2,5,6,7,8",
    "blank-lines": "\nr1,1,2,3,4\n\n\r\n" + R2 + "\n\n",
    "space-line": "r1,1,2,3,4\n \n" + R2,
    "tab-line": "r1,1,2,3,4\n\t\n" + R2,
    "quoted-empty-line": 'r1,1,2,3,4\n""\n' + R2,
    "header-only": "",
    "blank-body": "\n\r\n\r",
    "one-region": "r1,1,2,3,4\n",
    "quoted-numbers": 'r1,"1.5",2,"-3e2",4\nr2,5,6,7,"8"\n',
    "quote-then-digits": 'r1,"1"2,2,3,4\n' + R2,
    "empty-cell": "r1,1,,3,4\n" + R2,
    "quoted-empty-cell": 'r1,1,"",3,4\n' + R2,
    "blank-cell": "r1,1,2,3,4\nr2,5,6, \t,8\n",
    "short-row": "r1,1,2,3\n" + R2,
    "label-only-row": "r1,1,2,3,4\nr2\n",
    "extra-cell": "r1,1,2,3,4\nr2,5,6,7,8,9\n",
    "extra-empty-cell": "r1,1,2,3,4,\n" + R2,
    "non-numeric": "r1,1,2,x,4\n" + R2,
    "hex": "r1,0x10,2,3,4\n" + R2,
    "nan": "r1,nan,2,3,4\n" + R2,
    "inf": "r1,1,2,3,-inf\nr2,5,Infinity,7,8\n",
    "overflow": "r1,1,2,3,4\nr2,5,6,1e999,8\n",
    "underscore": "r1,1_0,2,3,4\nr2,5,6,7,1_000.5\n",
    "bad-underscore": "r1,1__0,2,3,4\n" + R2,
    "spaces-around-number": "r1, 1.5 ,2,3,4\nr2,5,\xa06 ,7,8\n",
    "arabic-indic-digits": "r1,١٢,2,3,4\nr2,5,6,7,٣.٥\n",
    "separator-after-number": "r1,1,2,3,4\x1c\n" + R2,
    "separator-before-number": "r1,1,2,3,4\nr2,\x1f5,6,7,8\n",
    "nul-in-number": "r1,1\x00,2,3,4\n" + R2,
}




def differential_files() -> dict[str, bytes]:
    files = {name: (CSV_HEADER + body).encode() for name, body in DIFFERENTIAL_BODIES.items()}
    files["empty-file"] = b""
    files["bad-header"] = b"name,a,b,c,d\nr1,1,2,3,4\n"
    files["byte-order-mark"] = b"\xef\xbb\xbf" + files["quoted-comma"]
    files["non-utf8-header"] = "region,a,b,c,d\xe9\nr1,1,2,3,4\n".encode("latin-1")
    lines = [CSV_HEADER.rstrip("\n")]
    lines.extend(f"r{i},{i},{i % 7}.5,-{i}e-3,{i * 3}" for i in range(1, 2001))
    files["tall"] = ("\n".join(lines) + "\n").encode("utf-8")
    latin = lines.copy()
    latin[1600] = "Ré1600,1,2,3,4"
    files["non-utf8-past-row-1500"] = ("\n".join(latin) + "\n").encode("latin-1")
    early = latin.copy()
    early[10] = "r10,1,2,3"
    files["bad-row-then-non-utf8"] = ("\n".join(early) + "\n").encode("latin-1")
    late = latin.copy()
    late[1900] = "r1900,1,2,3"
    files["non-utf8-then-bad-row"] = ("\n".join(late) + "\n").encode("latin-1")
    return files


DIFFERENTIAL_FILES = differential_files()


def seeded_table(seed: int, n: int) -> bytes:
    """An n-row table of random labels and number spellings, written by csv.writer."""
    rng = np.random.default_rng([seed, n])
    alphabet = list('abcXYZ019 ,"#\t\n\ré-')
    # csv.writer quotes a lone "\r" only when the line terminator holds one.
    quoting, terminator = ((csv.QUOTE_MINIMAL, "\r\n"), (csv.QUOTE_ALL, "\n"))[seed % 2]
    spellings = ("{!r}", "{:.4f}", "{:g}", " {} ", "{:.3e}", "{:+.1f}")
    rows = [["region", "a", "b", "c", "d"]]
    for i in range(n):
        label = "".join(rng.choice(alphabet, size=int(rng.integers(0, 8)))) + f"#{i}"
        values = rng.normal(size=4) * 10.0 ** rng.integers(-3, 6, size=4)
        cells = [spellings[int(rng.integers(len(spellings)))].format(v) for v in values.tolist()]
        rows.append([label, *cells])
    buffer = io.StringIO()
    csv.writer(buffer, quoting=quoting, lineterminator=terminator).writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestCsvReaderMatchesReference:
    """The loadtxt pass returns what the row loop it replaced returned, or raises its error."""

    def check(self, tmp_path, manifest, data: bytes):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        outcome = read_outcome(_read_dataset_csv, path, manifest)
        assert outcome == read_outcome(reference_read_dataset_csv, path, manifest)
        return outcome

    @pytest.mark.parametrize("name", DIFFERENTIAL_FILES)
    def test_case(self, tmp_path, small_manifest, name):
        self.check(tmp_path, small_manifest, DIFFERENTIAL_FILES[name])

    @pytest.mark.parametrize("n", [2, 3, 17, 250, 2000])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_table(self, tmp_path, small_manifest, seed, n):
        outcome = self.check(tmp_path, small_manifest, seeded_table(seed, n))
        assert len(outcome) == 3 and len(outcome[0]) == n

    def test_bundled_and_its_edits(self, tmp_path, manifest):
        text = data_path("nuts3.csv").read_text(encoding="utf-8")
        self.check(tmp_path, manifest, text.encode("utf-8"))
        for old, new in [("103.80", "1_03.80"), ("103.80", "103.80\x1e"), ("103.80", '"103.80"'),
                         ("Alto Minho", '"Alto\nMinho"'), ("\n", "\r\n")]:
            self.check(tmp_path, manifest, text.replace(old, new).encode("utf-8"))


#: Characters that move cells, rows or quotes, or that float() and numpy read apart.
EDIT_ALPHABET = ',"\n\r \t#_.-e1x\x1c\x1f\xa0١'


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 3),
                                st.text(EDIT_ALPHABET, max_size=3)), min_size=1, max_size=3))
def test_edited_bundled_csv_matches_reference(manifest, edits):
    """Each edit replaces up to three characters of the bundled body with up to three others."""
    text = data_path("nuts3.csv").read_text(encoding="utf-8")
    body = text.index("\n") + 1
    for position, width, insert in edits:
        position = body + position % (len(text) - body)
        text = text[:position] + insert + text[position + width:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = read_outcome(_read_dataset_csv, path, manifest)
        assert outcome == read_outcome(reference_read_dataset_csv, path, manifest)
    event("read" if len(outcome) == 3 else outcome[0].__name__)


class TestCsvFastPath:
    """A well-formed body is read by loadtxt alone: csv.reader yields the header row only."""

    @pytest.fixture
    def csv_rows(self, monkeypatch):
        """Every row a csv.reader yields from here on."""
        rows = []
        real_reader = csv.reader

        def counting_reader(*args, **kwargs):
            for row in real_reader(*args, **kwargs):
                rows.append(row)
                yield row

        monkeypatch.setattr(csv, "reader", counting_reader)
        return rows

    def test_bundled_dataset(self, manifest, csv_rows):
        assert parse_dataset(data_path("nuts3.csv"), manifest).shape == (9, 25)
        assert csv_rows == [["region", *manifest.ids]]

    def test_quoted_labels(self, tmp_path, small_manifest, csv_rows):
        rng = np.random.default_rng(7)
        regions = tuple(f'Região {i}, "sul"' for i in range(2000))
        matrix = IndicatorMatrix(regions, ("a", "b", "c", "d"), rng.normal(size=(2000, 4)))
        path = tmp_path / "quoted.csv"
        write_dataset_csv(matrix, path)
        assert parse_dataset(path, small_manifest) == matrix
        assert csv_rows == [["region", "a", "b", "c", "d"]]

    def test_non_utf8_body_is_not_read_again(self, tmp_path, small_manifest, csv_rows):
        path = tmp_path / "latin1.csv"
        path.write_bytes(DIFFERENTIAL_FILES["non-utf8-past-row-1500"])
        with pytest.raises(FileEncodingError):
            parse_dataset(path, small_manifest)
        assert csv_rows == [["region", "a", "b", "c", "d"]]

    def test_rejected_body_goes_to_the_row_loop(self, tmp_path, small_manifest, csv_rows):
        path = write_tmp_dataset(tmp_path, CSV_HEADER + "r1,1_0,2,3,4\n" + R2)
        assert parse_dataset(path, small_manifest).row("r1").tolist() == [10.0, 2.0, 3.0, 4.0]
        assert len(csv_rows) == 3


class TestRoundTrip:
    def test_csv_round_trip_bundled(self, tmp_path, manifest, raw_matrix):
        path = tmp_path / "out.csv"
        write_dataset_csv(raw_matrix, path)
        again = parse_dataset(path, manifest)
        assert again == raw_matrix

    def test_json_round_trip_bundled(self, tmp_path, manifest, raw_matrix):
        path = tmp_path / "out.json"
        write_dataset_json(raw_matrix, path)
        again = parse_dataset(path, manifest)
        assert again == raw_matrix

    def test_round_trip_random_values(self, tmp_path, small_manifest):
        rng = np.random.default_rng(3)
        matrix = IndicatorMatrix(
            ("r1", "r2", "r3"), ("a", "b", "c", "d"), rng.normal(size=(3, 4)) * 1e6
        )
        path = tmp_path / "rt.csv"
        write_dataset_csv(matrix, path)
        again = parse_dataset(path, small_manifest)
        assert np.array_equal(again.values, matrix.values)

    @pytest.mark.parametrize("name", ["data.csv", "data.json"])
    def test_round_trip_label_with_comma_and_quote(self, tmp_path, small_manifest, name):
        matrix = IndicatorMatrix(
            ("Lisboa, Norte", 'Porto "Sul"'), ("a", "b", "c", "d"), [[1, 2, 3, 4], [5, 6, 7, 8]]
        )
        path = tmp_path / name
        (write_dataset_json if name.endswith(".json") else write_dataset_csv)(matrix, path)
        assert parse_dataset(path, small_manifest) == matrix


class TestWriteJson:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"b": [], "a": {}, "c": ()},
            {"z": None, "y": True, "x": -3, "w": 0.1, "v": float("nan"), "u": "Açores \"q\"\n"},
            {"list": ["é", "a,b", "back\\slash", 1e-300, -0.0, 1e22, False, None]},
            {"obj": {"b": 2.5, "B": float("inf"), "é": "x", "a": 0, "😀": 1, "\uff21": 2}},
            {"ranking": ("r2", "r1"), "method": "pca"},
            {"stats": {"pca": {"sd": 0.5, "iqr": 1}, "abreu": {"mean": -2.0}}, "n": 2},
            {"stage": {"loadings": [[0.25, -1.5], [1e-9, 3.0]], "retained": 2}},
            {"a": [[], {}, [[]], {"x": []}], "b": {"c": {}, "d": [], "e": [{}]}, "f": [1, []]},
            {"Região": {"Açores": [1, "é"], "😀": {"\uff21": None}}, "ranking": ["é", "a"]},
        ],
        ids=["empty", "empty-containers", "scalars", "flat-list", "unsorted-object", "tuple",
             "dict-of-dicts", "list-of-lists", "empty-inner-containers", "non-ascii-keys"],
    )
    def test_matches_indent_2_sorted_dumps(self, tmp_path, payload):
        path = tmp_path / "out.json"
        write_json(payload, path)
        expected = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    # Innermost float mappings, each encoded in one pass of the C encoder.
    FLOAT_MAPPINGS = {
        "presorted": {"a": 0.25, "b": -1.5, "c": 3.0},
        "one-entry": {"only": 0.1},
        "unsorted": {"b": 0.25, "a": -1.5, "c": 3.0},
        "nan": {"a": 0.5, "b": float("nan")},
        "inf": {"a": float("inf"), "b": 0.5},
        "-inf": {"a": 0.5, "b": float("-inf")},
        "sum-overflows": {"a": 1e308, "b": 1e308},
        "float-edges": {"a": -0.0, "b": 5e-324, "c": 1e16, "d": 1e22, "e": 1e-7},
        "with-int": {"a": 0.5, "b": 2},
        "with-bool": {"a": 0.5, "b": True},
        "np-float64": {"a": np.float64(0.1), "b": 0.5},
        "int-keys": {1: 0.5, 2: 1.5},
        "escaped-keys": dict.fromkeys(
            sorted(['"', "\\", "\n", "\x00", "\u2028", "é", "😀", "a#"]), 0.5
        ),
    }

    @pytest.mark.parametrize("name", list(FLOAT_MAPPINGS))
    def test_float_mapping_layout_and_branch(self, tmp_path, name):
        mapping = self.FLOAT_MAPPINGS[name]
        for payload in ({"index": mapping, "method": "m"}, {"a": {"b": [mapping, {}]}}):
            path = tmp_path / "out.json"
            write_json(payload, path)
            expected = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
            assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "payload",
        [
            {"m": {1: [1.5], 2: {"a": 1}}},
            {"m": {10: [], 9: {"x": 0.5}, -1: [True]}},
            {"m": {2.5: [1], 1e22: {"a": None}, -0.0: [], float("nan"): [2]}},
            {"m": {True: [1], False: {"b": []}}},
            {"m": {None: [[]]}, "n": {None: {"a": 1}}},
            {"a": {"b": {3: {"c": [1]}, 4: []}}},
        ],
        ids=["int", "ints-unsorted", "floats", "bools", "none", "deep"],
    )
    def test_non_str_keys_of_containers_match_dumps(self, tmp_path, payload):
        path = tmp_path / "out.json"
        write_json(payload, path)
        expected = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        json.loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("key", [(1,), b"k", frozenset()])
    def test_other_key_types_rejected(self, tmp_path, key):
        payload = {"m": {key: [1]}}
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            write_json(payload, tmp_path / "out.json")

    def test_key_escapes_keep_the_order_of_the_raw_keys(self, tmp_path):
        # '"' sorts before '#', but its escape '\\"' sorts after: order by the raw key.
        path = tmp_path / "out.json"
        write_json({"m": {'a"': 1.5, "a#": 2.5}}, path)
        expected = '{\n  "m": {\n    "a\\"": 1.5,\n    "a#": 2.5\n  }\n}\n'
        assert path.read_text(encoding="utf-8") == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mapping=st.dictionaries(st.text(max_size=4), st.floats(), max_size=8)
       | st.dictionaries(st.text(max_size=4), st.floats() | st.integers(-3, 3) | st.booleans(),
                         max_size=8),
       presort=st.booleans(), depth=st.integers(0, 2))
def test_write_json_float_mappings_match_dumps(mapping, presort, depth):
    """Any dict[str, float], presorted or not, nested 0-2 deep: the bytes of json.dumps."""
    if presort:
        mapping = dict(sorted(mapping.items()))
    payload = mapping
    for level in range(depth):
        payload = {f"level{level}": payload, "n": level}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(payload, path)
        written = path.read_bytes()
    expected = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert written == expected.encode("utf-8")


class TestCompositeIndicator:
    def test_region_best_in_both_components_gets_one(self):
        out = composite_indicator({"doctors": [1, 5], "beds": [2, 9]})
        assert out[1] == pytest.approx(1.0)
        assert out[0] == pytest.approx(0.0)

    def test_hand_computed_example(self):
        out = composite_indicator({"doctors": [10, 20, 30], "beds": [5, 15, 10]})
        assert np.allclose(out, [0.0, 0.75, 0.75])

    def test_constant_component_rejected(self):
        with pytest.raises(ConstantComponentError) as exc_info:
            composite_indicator({"doctors": [1, 3], "beds": [2, 2]})
        assert exc_info.value.name == "beds"

    def test_symmetric_in_components(self):
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 6))
        first = composite_indicator({"a": a, "b": b, "c": c})
        second = composite_indicator({"c": c, "a": a, "b": b})
        assert np.allclose(first, second, atol=1e-12)

    def test_permutation_equivariant_in_regions(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 8))
        perm = rng.permutation(8)
        direct = composite_indicator({"a": a[perm], "b": b[perm]})
        permuted = composite_indicator({"a": a, "b": b})[perm]
        assert np.allclose(direct, permuted, atol=1e-12)

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            composite_indicator({"only": [1, 2]})

    def test_components_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="^component columns must cover the same regions$"):
            composite_indicator({"doctors": [1.0, 2.0, 3.0], "beds": [2.0, 4.0]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_component_named(self, bad):
        """A nan or inf cell is a ValueError naming its component, with no warning."""
        components = {"beds": [2.0, 4.0, 9.0], "doctors": [1.0, bad, 3.0]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc_info:
                composite_indicator(components)
        assert str(exc_info.value) == "column 'doctors' contains non-finite values"


def _importers(name: str) -> set[str]:
    """The package modules that import ``name`` or one of its submodules."""
    package = Path(data_path("manifest.csv")).parents[1]
    assert len(list(package.glob("*.py"))) >= 10
    importers = set()
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == name or n.startswith(name + ".") for n in names):
                importers.add(module.name)
    return importers


def test_only_ingest_imports_csv():
    """Every CSV input goes through ingest's reader: no other module imports csv."""
    assert _importers("csv") == {"ingest.py"}


def test_no_module_imports_a_private_name_from_another():
    """A name that starts with an underscore stays in its module: each rule has
    one owner, and another module reaches it through a public name."""
    package = Path(data_path("manifest.csv")).parents[1]
    assert len(list(package.glob("*.py"))) >= 10
    assert [
        (module.name, node.lineno, alias.name)
        for module in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("indexforge"))
        for alias in node.names
        if alias.name.startswith("_")
    ] == []


def test_no_module_binds_a_public_name_to_a_mutable_container():
    """A public module-level name is shared by every caller, so it holds no dict,
    list or set display or comprehension: a write to one would change every
    later run. Such a table is a MappingProxyType, a tuple or a frozenset."""
    package = Path(data_path("manifest.csv")).parents[1]
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    assert [
        (module.name, node.lineno, target.id)
        for module in sorted(package.glob("*.py"))
        for node in ast.parse(module.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, mutable)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("_")
    ] == []


def _path_formatters() -> set[tuple[str, str]]:
    """(module, top-level function or class) of every line of the package that
    holds ``{path`` or ``str(path)``; a line outside any counts as ``<module>``."""
    package = Path(data_path("manifest.csv")).parents[1]
    found = set()
    for module in sorted(package.glob("*.py")):
        text = module.read_text(encoding="utf-8")
        scopes = ast.parse(text).body
        for number, line in enumerate(text.splitlines(), 1):
            if "{path" in line or "str(path)" in line:
                names = [getattr(s, "name", "<module>") for s in scopes
                         if s.lineno <= number <= s.end_lineno]
                found.add((module.name, names[0] if names else "<module>"))
    return found


def test_only_open_input_names_an_input_file():
    """One owner of the path in an input error: the rewrite in open_input, and
    FileEncodingError, which open_input raises with the path at its head."""
    assert _path_formatters() == {
        ("ingest.py", "open_input"),
        ("errors.py", "FileEncodingError"),
    }


def _write_text_callers() -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every ``.write_text(...)`` call
    in the package; a call outside any function counts as ``<module>``."""
    package = Path(data_path("manifest.csv")).parents[1]
    callers = set()
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write_text"):
                continue
            scope = parents[node]
            while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                scope = parents[scope]
            callers.add((module.name, getattr(scope, "name", "<module>")))
    return callers


def test_only_the_artifact_writers_write_text():
    """Every CSV artifact is laid out by ingest.write_csv, every JSON one by
    ingest.write_json; the SVG is the one other file written."""
    assert _write_text_callers() == {
        ("ingest.py", "write_json"),
        ("ingest.py", "write_csv"),
        ("stats.py", "write_parallel_svg"),
    }


def test_only_ingest_and_cli_import_json():
    """Every JSON artifact is laid out by ingest.write_json; cli prints stdout diagnostics."""
    assert _importers("json") == {"ingest.py", "cli.py"}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
        for d in node.decorator_list
    )


def test_every_model_class_is_an_enum_or_a_frozen_dataclass():
    """One immutability mechanism in model, and in aggregate, the home of
    IndexResult: no class freezes itself by hand."""
    package = Path(data_path("manifest.csv")).parents[1]
    classes = [node for name in ("model.py", "aggregate.py")
               for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    assert len(classes) >= 9
    assert [node.name for node in classes
            if not (_is_frozen_dataclass(node)
                    or any(getattr(base, "id", None) == "Enum" for base in node.bases))] == []


#: The package's layers, lowest first: a module imports only from lower layers.
LAYERS = (
    ("errors",), ("model",), ("ingest",), ("normalize",), ("aggregate",), ("pca", "stats"),
    ("datasets",), ("cli",),
)


def _package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, at any depth of
    its source; a name imported from the package itself counts as ``__init__``
    unless it names a module."""
    modules = {module.stem for module in path.parent.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["indexforge" if node.level else "", node.module]))
            dotted = [base] if base != "indexforge" else [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for parts in (name.split(".") for name in dotted):
            if parts[0] == "indexforge":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return found


def test_each_module_imports_only_lower_layers():
    """No import cycle can form, not even through an import inside a function."""
    package = Path(data_path("manifest.csv")).parents[1]
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    modules = [path for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    assert sorted(path.stem for path in modules) == sorted(rank)
    assert _package_imports(package / "cli.py") >= {"datasets", "aggregate", "pca", "stats"}
    assert [
        (path.stem, name)
        for path in modules
        for name in sorted(_package_imports(path))
        if rank.get(name, len(LAYERS)) >= rank[path.stem]
    ] == []


def test_no_module_defines_setattr():
    package = Path(data_path("manifest.csv")).parents[1]
    assert [
        (module.name, node.lineno)
        for module in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__setattr__"
    ] == []
