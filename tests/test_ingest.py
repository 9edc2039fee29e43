from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from indexforge.ingest import (
    composite_indicator,
    parse_dataset,
    parse_manifest,
    write_json,
)
from indexforge.model import IndicatorMatrix, Stage
from indexforge.datasets import data_path
from indexforge.errors import (
    ConstantComponentError,
    DataFormatError,
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
        assert str(exc_info.value) == "missing value at region 'r1', indicator 'c'"
        # The same error deep in a tall file, for a blank and a whitespace-only cell.
        for cell in ("", "  \t "):
            with pytest.raises(MissingCellError) as exc_info:
                parse_dataset(tall_dataset_with(tmp_path, cell), small_manifest)
            assert str(exc_info.value) == "missing value at region 'r1500', indicator 'd'"

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
        ],
        ids=["truncated", "no-indicators", "top-level-list", "regions-not-list",
             "region-not-string", "indicator-not-string", "row-not-list"],
    )
    def test_malformed_json(self, tmp_path, small_manifest, text, message):
        path = write_tmp_dataset(tmp_path, text, "data.json")
        with pytest.raises(DataFormatError, match=message):
            parse_dataset(path, small_manifest)

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
        assert str(exc_info.value) == "non-numeric value 'x' at region 'r1', indicator 'c'"
        with pytest.raises(NonNumericCellError) as exc_info:
            parse_dataset(tall_dataset_with(tmp_path, " x "), small_manifest)
        assert str(exc_info.value) == "non-numeric value 'x' at region 'r1500', indicator 'd'"

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
