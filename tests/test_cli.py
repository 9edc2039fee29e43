from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pty
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from indexforge import aggregate, cli, ingest, model, pca
from indexforge.cli import main
from indexforge.datasets import data_path, load_nuts3_dataset, load_reference_indexes
from indexforge.errors import DataFormatError, NoConvergenceError
from indexforge.ingest import parse_dataset
from indexforge.model import Pillar, build_weight_scheme

FIXTURE_DATA = str(data_path("nuts3.csv"))
FIXTURE_MANIFEST = str(data_path("manifest.csv"))
FIXTURE_TABLE3 = str(data_path("table3.csv"))
GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "bundled-report"


def run(argv):
    return main(argv)


def cli_in_process_of_its_own(argv, **kwargs):
    """``indexforge *argv`` as a fresh process, warnings shown."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "PYTHONWARNINGS": "default"}
    return subprocess.run(
        [sys.executable, "-m", "indexforge.cli", *argv], env=env, timeout=120, **kwargs
    )


def validate_in_process_of_its_own(data: str, stdin: str | None = None):
    """``indexforge validate --data data`` as a fresh process, warnings shown."""
    return cli_in_process_of_its_own(
        ["validate", "--data", data, "--manifest", FIXTURE_MANIFEST],
        input=stdin, capture_output=True, text=True,
    )


def _bundled_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


BUNDLED_DATA_ROWS = _bundled_rows(FIXTURE_DATA)
BUNDLED_MANIFEST_ROWS = _bundled_rows(FIXTURE_MANIFEST)


#: Each spoiled input, and the error every command prints for it ({data} and
#: {manifest} stand for the paths of the copies).
REJECTED_INPUTS = {
    "span-overflow": "column 'DmgDep' spans beyond the float range (max - min overflows)",
    "manifest-weight-sum-overflow":
        "{manifest}: weights in scope 'Population' sum beyond the float range",
    "manifest-weight-nan": "{manifest}: indicator 'DmgDep' has weight nan, which is not finite",
    "missing-cell": "{data}: missing value at region 'Alto Minho', indicator 'PopDens'",
    # The table's labels are checked before its values: the repeat is named, not the cell.
    "repeated-region-and-nan": "{data}: region 'Alto Minho' appears more than once",
    "non-utf8-data": "{data} is not UTF-8 text (invalid continuation byte)",
    "json-deep-values": "{data}: the file nests JSON arrays or objects too deeply",
    "json-deep-cell": "{data}: the file nests JSON arrays or objects too deeply",
    "json-lone-surrogate-label":
        "{data}: region 'r\\ud800' is not Unicode text: surrogates not allowed",
    "json-repeated-values-key": "{data}: key 'values' appears more than once in a JSON object",
    "json-unknown-key": "{data}: unknown key 'valeus'; the keys are regions, indicators, values",
    "json-repeated-region-and-inf": "{data}: region 'Alto Minho' appears more than once",
}


def _spoiled_copies(case: str, tmp: Path) -> tuple[Path, Path]:
    """Copies of the bundled data and manifest, one of them spoiled as ``case`` says."""
    data, manifest = tmp / "data.csv", tmp / "manifest.csv"
    weights = {"manifest-weight-sum-overflow": {"DmgDep": "1e308", "Pop65": "1e308"},
               "manifest-weight-nan": {"DmgDep": "nan"}}.get(case, {})
    _write_rows(manifest, [[*row[:4], weights.get(row[0], row[4]), *row[5:]]
                           for row in BUNDLED_MANIFEST_ROWS])
    header, *rows = [row[:] for row in BUNDLED_DATA_ROWS]
    if case == "span-overflow":
        column = header.index("DmgDep")
        rows[0][column], rows[1][column] = "1e308", "-1e308"
    elif case == "missing-cell":
        rows[0][header.index("PopDens")] = ""
    elif case == "repeated-region-and-nan":
        rows[0][header.index("PopDens")], rows[1][0] = "nan", rows[0][0]
    _write_rows(data, [header, *rows])
    if case == "non-utf8-data":  # the region labels hold letters Latin-1 writes as one byte
        data.write_bytes(data.read_text(encoding="utf-8").encode("latin-1"))
    if case.startswith("json-"):
        data = tmp / "data.json"
        text = BUNDLED_INPUTS["data.json"]
        data.write_text({
            "json-deep-values":
                text.split('"values": ')[0] + f'"values": {"[" * 100_000}{"]" * 100_000}}}',
            "json-deep-cell": text.replace("103.8", "[" * 995 + "103.8" + "]" * 995),
            "json-lone-surrogate-label": text.replace('"Alto Minho"', '"r\\ud800"'),
            "json-repeated-values-key": text.replace('"values": ', '"values": [], "values": '),
            "json-unknown-key": text.replace('"values": ', '"valeus": [[0]], "values": '),
            "json-repeated-region-and-inf": text.replace("103.8", "1e999").replace(
                '"Terras de Trás-os-Montes"', '"Alto Minho"'),
        }[case], encoding="utf-8")
    return data, manifest


class TestValidate:
    def test_bundled_fixture_valid(self, capsys):
        code = run(["validate", "--data", FIXTURE_DATA, "--manifest", FIXTURE_MANIFEST])
        out = capsys.readouterr().out
        assert code == 0
        assert "9 regions, 25 indicators" in out

    def test_json_diagnostics(self, capsys):
        code = run(["validate", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["pillar_sizes"] == {
            "Population": 5, "SocialWelfare": 7, "Economy": 7, "Environment": 6,
        }

    def test_non_numeric_cell_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        text = Path(FIXTURE_DATA).read_text(encoding="utf-8").replace("103.80", "oops", 1)
        bad.write_text(text, encoding="utf-8")
        code = run(["validate", "--data", str(bad), "--manifest", FIXTURE_MANIFEST])
        err = capsys.readouterr().err
        assert code == 2
        assert "Alto Minho" in err and "PopDens" in err

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (
                lambda text: text.replace("103.80", "103.80,7", 1),
                "'Alto Minho' has 26 values, expected 25",
            ),
            (lambda text: text.replace("103.80", "nan", 1), "non-numeric value 'nan'"),
            (lambda text: text.splitlines()[0] + "\n", "at least 2 are needed"),
        ],
        ids=["extra-cell", "nan-cell", "header-only"],
    )
    def test_malformed_data_file_exit_2(self, tmp_path, capsys, edit, expected):
        bad = tmp_path / "bad.csv"
        bad.write_text(edit(Path(FIXTURE_DATA).read_text(encoding="utf-8")), encoding="utf-8")
        code = run(["validate", "--data", str(bad), "--manifest", FIXTURE_MANIFEST])
        err = capsys.readouterr().err
        assert code == 2
        assert "error (validation)" in err
        assert expected in err

    @pytest.mark.parametrize("body", ["", "\n\r\n"], ids=["header-only", "blank-lines"])
    def test_dataset_without_rows_prints_one_error_line(self, tmp_path, body):
        # In a fresh process, so that a warning would reach stderr, not pytest.
        bad = tmp_path / "empty.csv"
        header = Path(FIXTURE_DATA).read_text(encoding="utf-8").splitlines()[0]
        bad.write_bytes((header + "\n" + body).encode("utf-8"))
        completed = validate_in_process_of_its_own(str(bad))
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [
            f"error (validation): {bad}: dataset has 0 region(s); at least 2 are needed"
        ]

    @pytest.mark.parametrize("case", REJECTED_INPUTS)
    def test_validate_rejects_what_compute_rejects(self, tmp_path, capsys, case):
        """validate runs every check compute runs before a method: same exit, same error."""
        data, manifest = _spoiled_copies(case, tmp_path)
        inputs = ["--data", str(data), "--manifest", str(manifest)]
        expected = REJECTED_INPUTS[case].format(data=data, manifest=manifest)
        errors = []
        out = tmp_path / "out"
        for command in (["validate"], ["compute", "--methods", "abreu", "--out", str(out)]):
            assert run([*command, *inputs]) == 2, command
            errors.append(capsys.readouterr().err.splitlines())
        assert errors == [[f"error (validation): {expected}"]] * 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, code, expected",
        [
            (lambda text: text, 0, "9 regions, 25 indicators"),
            (lambda text: text.replace("103.80", "oops", 1), 2,
             "non-numeric value 'oops' at region 'Alto Minho', indicator 'PopDens'"),
        ],
        ids=["valid", "bad-cell"],
    )
    def test_data_from_a_pipe(self, edit, code, expected):
        text = edit(Path(FIXTURE_DATA).read_text(encoding="utf-8"))
        completed = validate_in_process_of_its_own("/dev/stdin", stdin=text)
        assert completed.returncode == code
        assert expected in completed.stdout + completed.stderr

    @pytest.mark.parametrize("flag", ["--data", "--manifest"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, flag):
        source = FIXTURE_DATA if flag == "--data" else FIXTURE_MANIFEST
        lines = Path(source).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace(",", "é,", 1)
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("".join(lines).encode("latin-1"))
        code = run(["validate", flag, str(bad)])
        assert code == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(FIXTURE_DATA).read_bytes())
        assert run(["validate", "--data", str(bom)]) == 0
        assert "9 regions, 25 indicators" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"regions": ["Alto Minho", "Algarve"], "indicators": ', "is not valid JSON"),
            ('{"regions": ["Alto Minho", "Algarve"]}', "has no 'indicators' list"),
            ('["Alto Minho", "Algarve"]', "must hold a JSON object"),
        ],
        ids=["truncated", "no-indicators", "top-level-list"],
    )
    def test_malformed_json_data_exit_2(self, tmp_path, capsys, text, expected):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        code = run(["validate", "--data", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error (validation)" in err
        assert expected in err

    def test_missing_manifest_exit_3(self, tmp_path):
        code = run(["validate", "--data", FIXTURE_DATA, "--manifest", str(tmp_path / "nope.csv")])
        assert code == 3

    def test_short_manifest_row_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        text = Path(FIXTURE_MANIFEST).read_text(encoding="utf-8")
        row = next(line for line in text.splitlines() if line.startswith("PopDens,"))
        manifest.write_text(
            text.replace(row, "PopDens,Population density,Population,benefit"), encoding="utf-8"
        )
        code = run(["validate", "--manifest", str(manifest)])
        assert code == 2
        assert "has 4 cells, expected 6" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_manifest_weight_exit_2(self, tmp_path, capsys, weight):
        manifest = tmp_path / "manifest.csv"
        text = Path(FIXTURE_MANIFEST).read_text(encoding="utf-8")
        row = next(line for line in text.splitlines() if line.startswith("PopDens,"))
        cells = row.split(",")
        cells[4] = weight
        manifest.write_text(text.replace(row, ",".join(cells)), encoding="utf-8")
        out = tmp_path / "out"
        code = run(["compute", "--methods", "delphi", "--manifest", str(manifest),
                    "--out", str(out)])
        assert code == 2
        assert f"'PopDens' has weight {weight}, which is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestErrorKinds:
    """Each kind of failure: its exit code and its one line, on stderr or, with
    --json, as one JSON object on stdout."""

    NO_CONVERGENCE = "eigensolver did not converge after 100 sweeps (off-diagonal norm 1.500e-03)"

    @pytest.fixture
    def no_convergence(self, monkeypatch):
        def fail(matrix, **kwargs):
            raise NoConvergenceError(100, 1.5e-3)

        monkeypatch.setattr(pca, "eigen_symmetric", fail)

    def test_no_convergence_exit_4(self, tmp_path, capsys, no_convergence):
        out = tmp_path / "out"
        assert run(["compute", "--methods", "pca", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error (numerical): {self.NO_CONVERGENCE}\n")
        assert not out.exists()

    def test_no_convergence_json(self, tmp_path, capsys, no_convergence):
        out = tmp_path / "out"
        assert run(["compute", "--methods", "pca", "--json", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 1
        assert json.loads(captured.out) == {
            "status": "error", "kind": "numerical", "message": self.NO_CONVERGENCE,
        }
        assert not out.exists()

    def test_validate_json_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run(["validate", "--json", "--data", str(missing)]) == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert captured.err == "" and len(captured.out.splitlines()) == 1
        assert (payload["status"], payload["kind"]) == ("error", "io")
        assert str(missing) in payload["message"]

    def test_validate_json_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(Path(FIXTURE_DATA).read_text(encoding="utf-8").replace("103.80", "oops", 1),
                       encoding="utf-8")
        assert run(["validate", "--json", "--data", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 1
        assert json.loads(captured.out) == {
            "status": "error", "kind": "validation",
            "message": f"{bad}: non-numeric value 'oops' at region 'Alto Minho', indicator 'PopDens'",
        }


class TestSuccessSummary:
    """A successful compute, compare or report prints plain lines, or with
    --json one JSON object in the style of validate --json."""

    @pytest.mark.parametrize(
        "argv, methods",
        [
            (["compute", "--methods", "abreu,delphi"], ["abreu", "delphi"]),
            (["compare", "--methods", "pca,abreu"], ["pca", "abreu"]),
            (["report", "--methods", "all"], ["abreu", "delphi", "pca"]),
            (["compare", "--published"], ["abreu", "delphi", "pca"]),
        ],
        ids=["compute", "compare", "report", "compare-published"],
    )
    def test_json_prints_one_object(self, tmp_path, capsys, argv, methods):
        out = tmp_path / "out"
        assert run([*argv, "--json", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        payload = json.loads(printed)
        assert printed == json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n"
        expected = {"status": "ok", "command": argv[0], "methods": methods, "out": str(out)}
        if argv[0] != "compute":
            pairwise_r = json.loads((out / "report.json").read_text(encoding="utf-8"))["pairwise_r"]
            pairs = [f"{a}:{b}" for i, a in enumerate(methods) for b in methods[i + 1:]]
            expected["pearson"] = {pair: pairwise_r[pair] for pair in pairs}
        assert payload == expected

    def test_plain_lines_without_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["report", "--methods", "abreu,delphi", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"computed abreu, delphi -> {out}\n"
            "pearson abreu:delphi = 0.9636\n"
            f"comparison artifacts -> {out}\n"
        )


class TestCompute:
    def test_all_methods_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["compute", "--methods", "all", "--out", str(out)])
        assert code == 0
        for name in (
            "abreu.csv", "abreu.json", "delphi.csv", "delphi.json",
            "pca.csv", "pca.json", "normalization.csv", "pca_audit.json",
        ):
            assert (out / name).exists(), name

    def test_abreu_artifact_matches_reference(self, tmp_path):
        from conftest import REGIONS, REFERENCE_ABREU

        out = tmp_path / "out"
        run(["compute", "--methods", "abreu", "--out", str(out)])
        payload = json.loads((out / "abreu.json").read_text(encoding="utf-8"))
        for region, expected in zip(REGIONS, REFERENCE_ABREU):
            assert payload["rescaled_index"][region] == pytest.approx(expected, abs=0.03)

    def test_weights_override_routing(self, tmp_path):
        override = tmp_path / "weights.csv"
        override.write_text(
            "scope,id,weight\npillar,Economy,100\npillar,Population,1\n"
            "pillar,SocialWelfare,1\npillar,Environment,1\n",
            encoding="utf-8",
        )
        out_default = tmp_path / "default"
        out_custom = tmp_path / "custom"
        run(["compute", "--methods", "delphi", "--out", str(out_default)])
        run(["compute", "--methods", "delphi", "--out", str(out_custom),
             "--weights", str(override)])
        default_payload = json.loads((out_default / "delphi.json").read_text(encoding="utf-8"))
        custom_payload = json.loads((out_custom / "delphi.json").read_text(encoding="utf-8"))
        assert default_payload["raw_index"] != custom_payload["raw_index"]

    def test_weights_scaling_is_noop(self, tmp_path):
        base = tmp_path / "w1.csv"
        scaled = tmp_path / "w2.csv"
        rows = [("Economy", 28.4), ("Population", 21.0), ("SocialWelfare", 26.2), ("Environment", 24.0)]
        base.write_text(
            "scope,id,weight\n" + "".join(f"pillar,{p},{w}\n" for p, w in rows),
            encoding="utf-8",
        )
        scaled.write_text(
            "scope,id,weight\n" + "".join(f"pillar,{p},{w * 7.5}\n" for p, w in rows),
            encoding="utf-8",
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run(["compute", "--methods", "delphi", "--out", str(out1), "--weights", str(base)])
        run(["compute", "--methods", "delphi", "--out", str(out2), "--weights", str(scaled)])
        assert (out1 / "delphi.csv").read_bytes() == (out2 / "delphi.csv").read_bytes()

    @pytest.mark.parametrize(
        "rows", ["", "indicator,DmgDep,1\n"], ids=["header-only", "indicator-row-only"]
    )
    def test_weights_without_pillar_rows_keep_the_panel(self, tmp_path, rows):
        """A file with no pillar row gives the bytes of a run without --weights."""
        weights = tmp_path / "weights.csv"
        weights.write_text(f"scope,id,weight\n{rows}", encoding="utf-8")
        plain, weighted = tmp_path / "plain", tmp_path / "weighted"
        assert run(["compute", "--methods", "delphi", "--out", str(plain)]) == 0
        assert run(["compute", "--methods", "delphi", "--out", str(weighted),
                    "--weights", str(weights)]) == 0
        for name in ("delphi.csv", "delphi.json"):
            assert (weighted / name).read_bytes() == (plain / name).read_bytes(), name

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["compute", "--methods", "all", "--out", str(out1)])
        run(["compute", "--methods", "all", "--out", str(out2)])
        for child in sorted(out1.iterdir()):
            assert (out2 / child.name).read_bytes() == child.read_bytes(), child.name

    @pytest.mark.parametrize(
        "row, expected",
        [
            ("pillar,Economy,heavy", "non-numeric weight 'heavy'"),
            ("pillar,Lunar,1", "unknown pillar 'Lunar'"),
            ("pillar,Economy,2\npillar,Economy,3", "pillar 'Economy' is listed more than once"),
            ("indicator,PopDens,3\nindicator,PopDens,5",
             "indicator 'PopDens' is listed more than once"),
            ("indicator,PopDens,3,7", "line 2 has 4 cells, expected 3"),
            ("indicator,PopDens", "line 2 has 2 cells, expected 3"),
            ("pillar,Economy,nan", "pillar 'Economy' has weight nan, which is not finite"),
            ("pillar,Economy,-1", "pillar 'Economy' has negative weight -1.0"),
            ("indicator,PopDens,-1", "indicator 'PopDens' has negative weight -1.0"),
        ],
        ids=["non-numeric-weight", "unknown-pillar", "duplicate-pillar", "duplicate-indicator",
             "extra-cell", "missing-cell", "non-finite-weight", "negative-pillar-weight",
             "negative-indicator-weight"],
    )
    def test_malformed_weights_exit_2(self, tmp_path, capsys, row, expected):
        weights = tmp_path / "weights.csv"
        weights.write_text(f"scope,id,weight\n{row}\n", encoding="utf-8")
        code = run(["compute", "--methods", "delphi", "--out", str(tmp_path / "out"),
                    "--weights", str(weights)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error (validation): {weights}: ")
        assert expected in err

    @pytest.mark.parametrize(
        "rows, scope",
        [
            ("indicator,DmgDep,1e308\nindicator,Pop65,1e308", "Population"),
            ("pillar,Economy,1e308\npillar,Population,1e308", "pillars"),
        ],
        ids=["indicators", "pillars"],
    )
    def test_weight_sum_overflow_prints_one_error_line(self, tmp_path, rows, scope):
        # In a fresh process, so that a warning would reach stderr, not pytest.
        weights = tmp_path / "weights.csv"
        weights.write_text(f"scope,id,weight\n{rows}\n", encoding="utf-8")
        completed = cli_in_process_of_its_own(
            ["compute", "--weights", str(weights), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [
            f"error (validation): {weights}: weights in scope {scope!r} sum beyond the float range"
        ]

    def test_manifest_weight_sum_overflow_exit_2(self, tmp_path, capsys):
        rows = [row[:] for row in BUNDLED_MANIFEST_ROWS]
        for row in rows:
            if row[0] in ("DmgDep", "Pop65"):
                row[4] = "1e308"
        manifest = tmp_path / "manifest.csv"
        _write_rows(manifest, rows)
        code = run(["compute", "--methods", "delphi", "--manifest", str(manifest),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error (validation): {manifest}: weights in scope 'Population' "
            "sum beyond the float range\n"
        )

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_column_span_overflow_prints_one_error_line(self, tmp_path, suffix):
        # Every cell is finite, but DmgDep's max - min is beyond the float range.
        header, *rows = [row[:] for row in BUNDLED_DATA_ROWS]
        column = header.index("DmgDep")
        for i, row in enumerate(rows):
            row[column] = "1e308" if i % 2 == 0 else "-1e308"
        data = tmp_path / f"span{suffix}"
        if suffix == ".csv":
            _write_rows(data, [header, *rows])
        else:
            payload = {"regions": [row[0] for row in rows], "indicators": header[1:],
                       "values": [list(map(float, row[1:])) for row in rows]}
            data.write_text(json.dumps(payload), encoding="utf-8")
        completed = cli_in_process_of_its_own(
            ["compute", "--data", str(data), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [
            "error (validation): column 'DmgDep' spans beyond the float range "
            "(max - min overflows)"
        ]

    def test_non_utf8_weights_exit_2(self, tmp_path, capsys):
        weights = tmp_path / "weights.csv"
        weights.write_bytes("scope,id,weight\nindicator,Saúde,1\n".encode("latin-1"))
        code = run(["compute", "--methods", "delphi", "--out", str(tmp_path / "out"),
                    "--weights", str(weights)])
        assert code == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    def test_unknown_method_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["compute", "--methods", "sorcery"])
        assert exc_info.value.code == 2

    def test_unknown_method_after_all_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["compute", "--methods", "all,bogus", "--out", str(tmp_path / "out")])
        assert exc_info.value.code == 2
        assert "unknown method 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("methods", ["pca,all", "delphi,all,abreu"])
    def test_all_anywhere_gives_the_canonical_order(self, tmp_path, capsys, methods):
        out = tmp_path / "out"
        assert run(["compute", "--methods", methods, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"computed abreu, delphi, pca -> {out}\n"

    @pytest.mark.parametrize(
        "argv, code, kind",
        [(["compute", "--methods", "abreu"], 2, "validation"),
         (["report", "--methods", "abreu,pca"], 3, "io")],
        ids=["malformed", "missing"],
    )
    def test_weights_read_whichever_methods_run(self, tmp_path, argv, code, kind):
        """A bad or missing --weights file fails the run even when delphi is not asked for."""
        weights = tmp_path / "weights.csv"
        if kind == "validation":
            weights.write_text("scope,id,weight\npillar,Economy,abc\n", encoding="utf-8")
        completed = cli_in_process_of_its_own(
            [*argv, "--weights", str(weights), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert completed.returncode == code
        assert "Traceback" not in completed.stderr
        errors = [line for line in completed.stderr.splitlines() if line.startswith("error (")]
        assert len(errors) == 1 and errors[0].startswith(f"error ({kind}): ")
        assert ("non-numeric weight 'abc'" if kind == "validation" else "weights.csv") in errors[0]
        assert not (tmp_path / "out").exists()


    def test_two_thousand_regions_json_and_csv_agree(self, tmp_path):
        """At scale each <method>.json has json.dumps' own layout and its CSV twin agrees."""
        manifest, _ = load_nuts3_dataset()
        rng = np.random.default_rng(2000)
        labels = [f"R{i:04d}" for i in rng.permutation(2000)]
        labels[:4] = ['Região "Norte", PT', "Ñuble", "😀 coast", "back\\slash"]
        values = rng.uniform(1.0, 100.0, size=(2000, len(manifest.ids))).round(3).tolist()
        data = tmp_path / "data.csv"
        with data.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["region", *manifest.ids])
            writer.writerows([label, *row] for label, row in zip(labels, values))
        out = tmp_path / "out"
        assert run(["compute", "--methods", "all", "--data", str(data), "--out", str(out)]) == 0
        for method in ("abreu", "delphi", "pca"):
            text = (out / f"{method}.json").read_text(encoding="utf-8")
            payload = json.loads(text)
            assert text == json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
            assert sorted(payload["raw_index"]) == sorted(labels)
            with (out / f"{method}.csv").open(newline="", encoding="utf-8") as handle:
                header, *rows = csv.reader(handle)
            assert header == ["region", "raw", "rescaled", "rank"]
            assert len(rows) == 2000
            rank_of = {region: rank for rank, region in enumerate(payload["ranking"], 1)}
            for region, raw, rescaled, rank in rows:
                assert raw == f"{payload['raw_index'][region]:.6f}", (method, region)
                assert rescaled == f"{payload['rescaled_index'][region]:.6f}", (method, region)
                assert int(rank) == rank_of[region], (method, region)


class TestCompare:
    def test_published_reproduces_reference_correlations(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run(["compare", "--published", FIXTURE_TABLE3, "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["pairwise_r"]["abreu:delphi"] == pytest.approx(0.96, abs=0.005)
        assert payload["pairwise_r"]["abreu:pca"] == pytest.approx(0.86, abs=0.005)
        assert payload["pairwise_r"]["delphi:pca"] == pytest.approx(0.80, abs=0.005)
        for name in ("report.csv", "parallel.svg", "parallel.csv", "scatter.csv"):
            assert (out / name).exists()

    @pytest.mark.parametrize("value", ["n/a", "inf", "nan"], ids=["text", "inf", "nan"])
    def test_published_non_numeric_value_exit_2(self, tmp_path, capsys, value):
        bad = tmp_path / "table3.csv"
        text = Path(FIXTURE_TABLE3).read_text(encoding="utf-8")
        bad.write_text(text.replace("Alto Minho,0.34", f"Alto Minho,{value}", 1), encoding="utf-8")
        code = run(["compare", "--published", str(bad), "--out", str(tmp_path / "cmp")])
        assert code == 2
        expected = f"{bad}: non-numeric abreu value '{value}' for region 'Alto Minho'"
        assert expected in capsys.readouterr().err

    def test_published_columns_are_rescaled(self, tmp_path, capsys):
        """A reference column that does not span [0, 1] is rescaled as a method's index is."""
        rows = [row[:] for row in _bundled_rows(FIXTURE_TABLE3)]
        column = rows[0].index("abreu")
        for row in rows[1:]:
            row[column] = str(round(float(row[column]) * 100))
        scaled = tmp_path / "table3.csv"
        _write_rows(scaled, rows)
        reports = []
        for published in (FIXTURE_TABLE3, scaled):
            out = tmp_path / f"cmp-{len(reports)}"
            assert run(["compare", "--published", str(published), "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text(encoding="utf-8")))
        assert reports[1]["crossings"] == reports[0]["crossings"]
        assert reports[1]["pairwise_r"] == pytest.approx(reports[0]["pairwise_r"], abs=1e-12)
        svg = (tmp_path / "cmp-1" / "parallel.svg").read_text(encoding="utf-8")
        ys = [float(point.split(",")[1])
              for points in re.findall(r'<polyline points="([^"]*)"', svg)
              for point in points.split()]
        assert len(ys) == 27 and all(60 <= y <= 420 for y in ys)

    def test_published_missing_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "table3.csv"
        text = Path(FIXTURE_TABLE3).read_text(encoding="utf-8")
        bad.write_text(text.replace("pca", "pcb", 1), encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"missing \['pca'\]"):
            load_reference_indexes(bad)
        code = run(["compare", "--published", str(bad), "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert "reference index file must have columns" in capsys.readouterr().err

    def test_published_extra_cell_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "table3.csv"
        text = Path(FIXTURE_TABLE3).read_text(encoding="utf-8")
        row = "Alto Minho,0.34,0.13,0.29"
        bad.write_text(text.replace(row, row + ",0.99", 1), encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2 has 5 cells, expected 4"):
            load_reference_indexes(bad)
        code = run(["compare", "--published", str(bad), "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert "line 2 has 5 cells, expected 4" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_published_duplicate_column_exit_2(self, tmp_path, capsys):
        # A second abreu column used to win silently: r(abreu, delphi) read 0.58, not 0.96.
        bad = tmp_path / "table3.csv"
        lines = Path(FIXTURE_TABLE3).read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",abreu"] + [f"{line},0.{i}" for i, line in enumerate(lines[1:], 1)]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = "reference index file has duplicate columns: abreu"
        with pytest.raises(DataFormatError, match=message):
            load_reference_indexes(bad)
        code = run(["compare", "--published", str(bad), "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("short, cells", [("Alto Minho,0.34,0.13", 3), ("Alto Minho", 1)])
    def test_published_short_row_exit_2(self, tmp_path, capsys, short, cells):
        bad = tmp_path / "table3.csv"
        text = Path(FIXTURE_TABLE3).read_text(encoding="utf-8")
        bad.write_text(text.replace("Alto Minho,0.34,0.13,0.29", short, 1), encoding="utf-8")
        message = f"line 2 has {cells} cells, expected 4"
        with pytest.raises(DataFormatError, match=message):
            load_reference_indexes(bad)
        code = run(["compare", "--published", str(bad), "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_published_selects_the_methods_columns(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run(["compare", "--published", "--methods", "abreu,pca", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["methods"] == ["abreu", "pca"]
        assert capsys.readouterr().out.splitlines()[0] == "pearson abreu:pca = 0.8588"

    def test_published_one_method_exit_2(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run(["compare", "--published", "--methods", "abreu", "--out", str(out)]) == 2
        assert "at least two methods, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_published_with_weights_usage_error(self, tmp_path, capsys):
        weights = tmp_path / "weights.csv"
        weights.write_text("scope,id,weight\npillar,Economy,1\n", encoding="utf-8")
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc_info:
            run(["compare", "--published", "--weights", str(weights), "--out", str(out)])
        assert exc_info.value.code == 2
        assert "not allowed with argument --published" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "keep, message",
        [(slice(None), "region 'Alto Minho' appears more than once"),
         (slice(0, 1), "dataset has 0 region(s); at least 2 are needed")],
        ids=["repeated", "header-only"],
    )
    def test_published_region_errors_exit_2(self, tmp_path, capsys, keep, message):
        lines = Path(FIXTURE_TABLE3).read_text(encoding="utf-8").splitlines()[keep]
        bad = tmp_path / "table3.csv"
        bad.write_text("\n".join(lines + lines[1:2]) + "\n", encoding="utf-8")
        out = tmp_path / "cmp"
        assert run(["compare", "--published", str(bad), "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error (")]
        assert errors == [f"error (validation): {bad}: {message}"]
        assert not out.exists()

    def test_published_constant_column_warning_names_the_index(self, tmp_path):
        rows = _bundled_rows(FIXTURE_TABLE3)
        column = rows[0].index("delphi")
        for row in rows[1:]:
            row[column] = "0.5"
        flat = tmp_path / "table3.csv"
        _write_rows(flat, rows)
        out = tmp_path / "cmp"
        completed = cli_in_process_of_its_own(
            ["compare", "--published", str(flat), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [
            "warning (degenerate): column delphi is constant; normalized to 0.5",
            "error (validation): index 'delphi' is constant; its correlation is undefined",
        ]
        assert not out.exists()

    def test_computed_full_report(self, tmp_path):
        out = tmp_path / "cmp"
        code = run(["compare", "--methods", "all", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert len(payload["methods"]) == 3
        assert payload["pairwise_r"]["abreu:abreu"] == 1.0

    def test_single_method_exit_2(self, tmp_path):
        code = run(["compare", "--methods", "abreu", "--out", str(tmp_path / "x")])
        assert code == 2


class TestReport:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "all"
        code = run(["report", "--methods", "all", "--out", str(out)])
        assert code == 0
        for name in ("abreu.csv", "pca_audit.json", "report.json", "parallel.svg"):
            assert (out / name).exists()

    def test_constant_index_named_exit_2(self, tmp_path, capsys):
        """Each of three regions is worst on every indicator of its own pillar, so
        every abreu raw value is 0 and its rescaled column is constant."""
        spec = {row[0]: (row[2], row[3]) for row in BUNDLED_MANIFEST_ROWS[1:]}
        zeroed = ("Population", "SocialWelfare", "Economy")
        rows = [BUNDLED_DATA_ROWS[0]]
        for k, own in enumerate(zeroed):
            row = [f"R{k}"]
            for indicator in BUNDLED_DATA_ROWS[0][1:]:
                pillar, direction = spec[indicator]
                if pillar not in zeroed:
                    row.append(str(k + 1))
                elif pillar == own:
                    row.append("1" if direction == "benefit" else "3")
                else:
                    row.append("2")
            rows.append(row)
        data = tmp_path / "flat.csv"
        _write_rows(data, rows)
        out = tmp_path / "all"
        assert run(["report", "--data", str(data), "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error (")]
        assert errors == [
            "error (validation): index 'abreu' is constant; its correlation is undefined"
        ]
        assert not out.exists()

    def test_bundled_artifacts_match_golden_bytes(self, tmp_path):
        out = tmp_path / "all"
        assert run(["report", "--methods", "all", "--out", str(out)]) == 0
        golden = sorted(p.name for p in GOLDEN_REPORT.iterdir())
        assert len(golden) == 13
        assert sorted(p.name for p in out.iterdir()) == golden
        for name in golden:
            assert (out / name).read_bytes() == (GOLDEN_REPORT / name).read_bytes(), name

    @pytest.mark.parametrize("manifest_tail, noted", [("", True), ("\n", False)],
                             ids=["byte-identical-copies", "manifest-differs"])
    def test_bundled_input_matched_by_content(self, tmp_path, manifest_tail, noted):
        """Copies of the packaged data and manifest get the profile notes of the
        default run; a manifest one trailing newline longer gets none."""
        data, manifest = tmp_path / "nuts3.csv", tmp_path / "manifest.csv"
        data.write_bytes(Path(FIXTURE_DATA).read_bytes())
        manifest.write_bytes(Path(FIXTURE_MANIFEST).read_bytes() + manifest_tail.encode())
        default, copied = tmp_path / "default", tmp_path / "copied"
        assert run(["report", "--out", str(default)]) == 0
        assert run(["report", "--data", str(data), "--manifest", str(manifest),
                    "--out", str(copied)]) == 0
        audit = (copied / "pca_audit.json").read_bytes()
        if noted:
            assert audit == (default / "pca_audit.json").read_bytes()
        else:
            assert json.loads(audit)["notes"] == []

    def test_single_pass(self, tmp_path, monkeypatch):
        calls = {}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ("parse_dataset", "compute_abreu", "compute_delphi", "compute_pca"):
            counted(name)
        assert run(["report", "--methods", "all", "--out", str(tmp_path / "all")]) == 0
        assert calls == {
            "parse_dataset": 1, "compute_abreu": 1, "compute_delphi": 1, "compute_pca": 1,
        }

    @pytest.mark.parametrize("argv", [["compute", "--methods", "delphi"], ["report"]])
    def test_panel_weighting_built_once(self, tmp_path, monkeypatch, argv):
        """Without --weights, delphi uses the scheme the manifest check built."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_weight_scheme(*args, **kwargs)

        for module in (aggregate, ingest, model):
            if getattr(module, "build_weight_scheme", None) is build_weight_scheme:
                monkeypatch.setattr(module, "build_weight_scheme", counted)
        assert run([*argv, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_all_constant_pca_stage_is_one_validation_error(self, tmp_path):
        """All Population columns at 1.0: exit 2, one error line naming the stage's columns."""
        population = load_nuts3_dataset()[0].pillar_ids(Pillar.POPULATION)
        rows = [list(row) for row in BUNDLED_DATA_ROWS]
        for row in rows[1:]:
            for j, indicator in enumerate(rows[0]):
                if indicator in population:
                    row[j] = "1.0"
        data = tmp_path / "data.csv"
        _write_rows(data, rows)
        completed = cli_in_process_of_its_own(
            ["report", "--methods", "all", "--data", str(data), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        errors = [line for line in completed.stderr.splitlines() if line.startswith("error (")]
        assert errors == [
            "error (validation): every column of the PCA stage is constant: "
            "DmgDep, Pop65, Pop16, PopDens, NatInc"
        ]

    def test_engine_warnings_are_one_line_each(self, tmp_path):
        """A constant column: exit 0, and each warning one ``warning (degenerate)`` line."""
        rows = [list(row) for row in BUNDLED_DATA_ROWS]
        j = rows[0].index("PopDens")
        for row in rows[1:]:
            row[j] = "7"
        data = tmp_path / "data.csv"
        _write_rows(data, rows)
        completed = cli_in_process_of_its_own(
            ["report", "--methods", "all", "--data", str(data), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0
        assert completed.stderr.splitlines() == [
            "warning (degenerate): column PopDens is constant; normalized to 0.5",
            "warning (degenerate): constant columns dropped from PCA: PopDens",
        ]
        assert ".py:" not in completed.stderr

    def test_single_method_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "one"
        code = run(["report", "--methods", "abreu", "--out", str(out)])
        assert code == 2
        assert "at least two methods" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def _with_first_label(label: str, path: Path) -> Path:
    """A copy of the bundled data whose first region label is ``label``, quoted."""
    lines = Path(FIXTURE_DATA).read_text(encoding="utf-8").splitlines(keepends=True)
    first = lines[1].split(",", 1)
    lines[1] = '"' + label.replace('"', '""') + '",' + first[1]
    path.write_text("".join(lines), encoding="utf-8", newline="")
    return path


HUGE = "x" * 200_000  # longer than csv.field_size_limit()


def _oversized_input(case: str, tmp: Path) -> list[str]:
    """The arguments of a run whose ``case`` input holds a 200,000-character cell."""
    if case == "manifest":
        manifest = tmp / "manifest.csv"
        text = Path(FIXTURE_MANIFEST).read_text(encoding="utf-8")
        manifest.write_text(text.replace("Population density", HUGE, 1), encoding="utf-8")
        return ["validate", "--manifest", str(manifest)]
    if case == "weights":
        weights = tmp / "weights.csv"
        weights.write_text(f"scope,id,weight\npillar,{HUGE},1\n", encoding="utf-8")
        return ["compute", "--methods", "delphi", "--weights", str(weights),
                "--out", str(tmp / "out")]
    if case == "published":
        published = tmp / "table3.csv"
        text = Path(FIXTURE_TABLE3).read_text(encoding="utf-8")
        published.write_text(text.replace("Alto Minho", HUGE, 1), encoding="utf-8")
        return ["compare", "--published", str(published), "--out", str(tmp / "out")]
    data = tmp / "data.csv"
    if case == "data-header":
        text = Path(FIXTURE_DATA).read_text(encoding="utf-8")
        data.write_text(text.replace("region", HUGE, 1), encoding="utf-8")
    else:  # the extra cell sends the body from the loadtxt pass to the row loop
        lines = _with_first_label(HUGE, data).read_text(encoding="utf-8").splitlines()
        lines[3] += ",1.0"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["validate", "--data", str(data)]


@pytest.mark.parametrize(
    "case, line",
    [("manifest", 5), ("weights", 2), ("published", 2), ("data-header", 1),
     ("data-body", 2)],
)
def test_oversized_cell_is_a_validation_error(tmp_path, capsys, case, line):
    argv = _oversized_input(case, tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error (validation): ")
    assert lines[0].endswith(f"line {line}: field larger than field limit (131072)")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_carriage_return_label_round_trips_through_every_csv_artifact(tmp_path):
    data = _with_first_label("Alto\rMinho", tmp_path / "data.csv")
    regions = list(parse_dataset(data, load_nuts3_dataset()[0]).regions)
    assert regions[0] == "Alto\rMinho"
    computed = ["abreu.csv", "delphi.csv", "normalization.csv", "pca.csv"]
    compared = ["parallel.csv", "report.csv", "scatter.csv"]
    for command, names in (("compute", computed), ("report", computed + compared)):
        out = tmp_path / command
        assert run([command, "--methods", "all", "--data", str(data), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.glob("*.csv")) == sorted(names)
        for name in names:
            with (out / name).open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert all(len(row) == len(rows[0]) for row in rows), name
            if name in ("abreu.csv", "delphi.csv", "pca.csv"):
                assert sorted(row[0] for row in rows[1:]) == sorted(regions), name
            elif name == "parallel.csv":
                assert [row[0] for row in rows[1::3]] == regions
            elif name == "scatter.csv":
                assert [row[2] for row in rows[1:]] == regions * 3
            elif name == "report.csv":
                ranked = [row[2:] for row in rows if row[0] == "ranking"]
                assert len(ranked) == len(regions)
                assert all(sorted(column) == sorted(regions) for column in zip(*ranked))
            else:
                assert len(rows) == 26


def test_control_character_label_keeps_the_svg_well_formed(tmp_path):
    """XML 1.0 forbids U+0001: the SVG draws it as U+FFFD, the other artifacts keep it."""
    data = _with_first_label("Alto\x01Minho", tmp_path / "data.csv")
    out = tmp_path / "out"
    assert run(["report", "--methods", "all", "--data", str(data), "--out", str(out)]) == 0
    svg = ElementTree.parse(out / "parallel.svg").getroot()
    labels = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert "Alto\ufffdMinho" in labels and "Alto Minho" not in labels
    with (out / "parallel.csv").open(newline="", encoding="utf-8") as handle:
        assert "Alto\x01Minho" in {row[0] for row in csv.reader(handle)}
    assert "Alto\x01Minho" in json.loads((out / "report.json").read_text(encoding="utf-8"))[
        "rankings"]["abreu"]


WEIGHTS = (
    "scope,id,weight\npillar,Economy,2\npillar,Population,1\npillar,SocialWelfare,1\n"
    "pillar,Environment,1\nindicator,PopDens,3\n"
)


def _bundled_inputs() -> dict[str, str]:
    """The texts of the four input files a compute run reads, by file name."""
    matrix = load_nuts3_dataset()[1]
    payload = {"regions": list(matrix.regions), "indicators": list(matrix.indicators),
               "values": matrix.values.tolist()}
    return {
        "data.csv": Path(FIXTURE_DATA).read_text(encoding="utf-8"),
        "data.json": json.dumps(payload, ensure_ascii=False, indent=2) + "\n",
        "manifest.csv": Path(FIXTURE_MANIFEST).read_text(encoding="utf-8"),
        "weights.csv": WEIGHTS,
    }


BUNDLED_INPUTS = _bundled_inputs()
DATA_FILES = ("data.csv", "data.json")
# The CSV data file is mutated as often as the other three together: its
# row conversion is the loop this property guards.
TARGETS = ("data.csv",) * 3 + ("data.json", "manifest.csv", "weights.csv")
LAYOUT_EDITS = ("drop", "duplicate", "bom", "crlf", "empty-line")  # move cells or lines
# Texts that are not numbers to float(); the last three are JSON values.
NOT_NUMBERS = ("x", "1.5.2", "--1", "1e", "0x1F", "n/a", "1\u00a0000", '"7"', "null", "true")
CELL_VALUES = {  # edits that put a new value into a cell, and the values they put
    "extend": st.sampled_from(["1.5", "", "x"]),
    "text": st.sampled_from(NOT_NUMBERS) | st.text(min_size=1, max_size=6),
    "nan": st.sampled_from(["nan", "NaN"]),
    "inf": st.sampled_from(["inf", "-inf", "1e999", "Infinity"]),
    "blank": st.sampled_from(["", " "]),
}
POSITION = st.integers(0, 2**16)  # taken modulo the row or cell count


@st.composite
def mutated_inputs(draw):
    """The data file to run and the inputs, one file mutated by one to three edits."""
    name = draw(st.sampled_from(TARGETS))
    data_name = name if name in DATA_FILES else draw(st.sampled_from(DATA_FILES))
    rows = [line.split(",") for line in BUNDLED_INPUTS[name].splitlines()]
    prefix, newline = "", "\n"
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(LAYOUT_EDITS + tuple(CELL_VALUES)))
        i = draw(POSITION) % len(rows)
        row = rows[i]
        j = draw(POSITION) % max(len(row), 1)
        if edit == "bom":
            prefix = "\ufeff"
        elif edit == "crlf":
            newline = "\r\n"
        elif edit == "empty-line":
            rows.insert(i, [""])
        elif edit == "drop":
            del row[j:j + 1]
        elif edit == "duplicate":
            row[j:j + 1] = row[j:j + 1] * 2
        elif edit == "extend":
            row.append(draw(CELL_VALUES[edit]))
        elif row:
            row[j] = draw(CELL_VALUES[edit])
    texts = dict(BUNDLED_INPUTS)
    texts[name] = prefix + newline.join(",".join(row) for row in rows) + newline
    return data_name, texts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_inputs())
def test_mutated_inputs_end_in_a_documented_exit_code(inputs):
    """No edit of an input file makes compute raise or exit outside 0, 2, 3 and 4."""
    data_name, texts = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in texts.items():
            (tmp / name).write_bytes(text.encode("utf-8"))
        argv = ["compute", "--methods", "all", "--data", str(tmp / data_name),
                "--manifest", str(tmp / "manifest.csv"), "--weights", str(tmp / "weights.csv"),
                "--out", str(tmp / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    event(f"exit code {code}")
    assert code in (0, 2, 3, 4)


#: Region labels made of JSON \u escapes: lone surrogates, a pair, control and format characters.
ESCAPED_LABELS = st.lists(
    st.sampled_from(["\\ud800", "\\udfff", "\\ud83d\\ude00", "\\u0000", "\\u2028",
                     "\\u00e9", "\\u0022", "r", ","])
    | st.integers(0, 0xFFFF).map("\\u{:04x}".format),
    min_size=1, max_size=4,
).map(lambda parts: '"' + "".join(parts) + '"')
#: JSON values of other types than a cell's number or a label's string.
SWAPPED_VALUES = ('"7"', '"x"', "null", "true", "false", "[]", "{}", "[1.5]", '{"a": 1}',
                  "1.5", "-0", '"Alto Minho"')
#: Ints beyond the float range, and around the 4,300-digit limit of int().
HUGE_INTS = st.builds("{}{}".format, st.sampled_from(["", "-"]),
                      st.sampled_from([309, 400, 4300, 4301]).map("9".__mul__))


@st.composite
def mutated_json_data(draw):
    """The bundled data as a JSON text, changed by one to three edits."""
    payload = json.loads(BUNDLED_INPUTS["data.json"])
    labels = [json.dumps(label, ensure_ascii=False) for label in payload["regions"]]
    cells = [[json.dumps(value) for value in row] for row in payload["values"]]
    keys = ["regions", "indicators", "values"]
    depth = {}  # the part of the file a run of arrays wraps, and how many
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("nest", "repeat-key", "escape", "swap", "huge-int")))
        i = draw(POSITION) % len(labels)
        j = draw(POSITION) % len(cells[i])
        if edit == "nest":
            part = draw(st.sampled_from([("cell", i, j), ("row", i), ("label", i),
                                         ("values",), ("file",)]))
            depth[part] = draw(st.sampled_from([1, 2, 900, 990, 1000, 100_000]))
        elif edit == "repeat-key":
            keys.insert(draw(POSITION) % (len(keys) + 1), draw(st.sampled_from(keys)))
        elif edit == "escape":
            labels[i] = draw(ESCAPED_LABELS)
        elif edit == "swap" and draw(st.booleans()):
            cells[i][j] = draw(st.sampled_from(SWAPPED_VALUES))
        elif edit == "swap":
            labels[i] = draw(st.sampled_from(SWAPPED_VALUES))
        else:
            cells[i][j] = draw(HUGE_INTS)

    def nest(text, *part):
        return "[" * depth.get(part, 0) + text + "]" * depth.get(part, 0)

    rows = [nest("[" + ", ".join(nest(cell, "cell", i, j) for j, cell in enumerate(row)) + "]",
                 "row", i) for i, row in enumerate(cells)]
    texts = {
        "regions": "[" + ", ".join(nest(label, "label", i) for i, label in enumerate(labels)) + "]",
        "indicators": json.dumps(payload["indicators"]),
        "values": nest("[" + ", ".join(rows) + "]", "values"),
    }
    return nest("{" + ", ".join(f'"{key}": {texts[key]}' for key in keys) + "}", "file")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_json_data())
def test_mutated_json_data_validates_as_it_computes(text):
    """validate and compute exit alike, 0 or 2, with no traceback, for any edit of the data."""
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.json"
        data.write_bytes(text.encode("utf-8"))
        codes, errors = [], []
        for command in (["validate"], ["compute", "--methods", "abreu", "--out", f"{tmp}/out"]):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                codes.append(main([*command, "--data", str(data)]))
            errors.append(stderr.getvalue())
    event(f"exit code {codes[0]}")
    assert codes[0] == codes[1] and codes[0] in (0, 2)
    assert all("Traceback" not in text for text in errors)
    if codes[0] == 2:
        assert all(text.startswith(f"error (validation): {data}: ") for text in errors)


def test_deep_json_cell_gives_one_line_in_fresh_processes(tmp_path):
    """A cell nested 975-999 arrays deep: at every depth, validate and compute
    print the same error line from the stack of a fresh process."""
    paths = []
    for depth in range(975, 1000):
        path = tmp_path / f"deep-{depth}.json"
        cell = "[" * depth + "103.8" + "]" * depth
        path.write_text(BUNDLED_INPUTS["data.json"].replace("103.8", cell), encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "from indexforge import cli\n"
        "command, *paths = sys.argv[1:]\n"
        f"extra = [] if command == 'validate' else ['--methods', 'abreu', '--out', {str(out)!r}]\n"
        "for path in paths:\n"
        "    print(cli.main([command, '--data', path, *extra]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    errors = []
    for command in ("validate", "compute"):
        completed = subprocess.run([sys.executable, "-c", code, command, *paths], env=env,
                                   capture_output=True, text=True, timeout=120)
        assert completed.stdout.split() == ["2"] * len(paths), completed.stderr
        errors.append(completed.stderr.splitlines())
    expected = [f"error (validation): {path}: the file nests JSON arrays or objects too deeply"
                for path in paths]
    assert errors == [expected] * 2
    assert not out.exists()

def test_report_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs 16-18 ms of start-up; np.median would import it lazily.
    code = (
        "import sys\n"
        "from indexforge import cli\n"
        f"assert cli.main(['report', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "False"


def _read_all(fd: int) -> bytes:
    """Everything written to the slave side of a pty, once that side is closed."""
    chunks = []
    while True:
        try:
            chunk = os.read(fd, 4096)
        except OSError:  # EIO: the slave side is closed and every byte was read
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "argv, code, text",
    [(["validate"], 0, b"9 regions, 25 indicators"),
     (["validate", "--data", "missing.csv"], 3, b"error (io): ")],
    ids=["stdout", "stderr"],
)
def test_plain_text_with_stdout_on_a_terminal(tmp_path, argv, code, text):
    """stdout on a terminal and stderr to a file: neither gets an escape byte."""
    master, slave = pty.openpty()
    try:
        with open(tmp_path / "err.log", "wb") as err:
            completed = cli_in_process_of_its_own(argv, cwd=tmp_path, stdout=slave, stderr=err)
    finally:
        os.close(slave)
    out = _read_all(master)
    os.close(master)
    err = (tmp_path / "err.log").read_bytes()
    assert completed.returncode == code
    assert text in out + err
    assert b"\x1b" not in out
    assert b"\x1b" not in err


FLIPPED_DIRECTION = {"benefit": "cost", "cost": "benefit"}


def _report_artifacts(out: Path) -> dict[str, object]:
    """The bytes of each artifact of a report run, ``pca_audit.json`` parsed and without notes.

    ``cli._is_bundled_dataset`` matches the input by content, so only a run on
    the bytes of the bundled data and manifest gets the profile notes.
    """
    artifacts: dict[str, object] = {p.name: p.read_bytes() for p in out.iterdir()}
    audit = json.loads(artifacts["pca_audit.json"])
    del audit["notes"]
    artifacts["pca_audit.json"] = audit
    return artifacts


def _report_on(rows: list[list[str]], manifest: list[list[str]]) -> dict[str, object]:
    """The ``_report_artifacts`` of an in-process ``report --methods all`` on these rows."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_rows(tmp / "data.csv", rows)
        _write_rows(tmp / "manifest.csv", manifest)
        argv = ["report", "--methods", "all", "--data", str(tmp / "data.csv"),
                "--manifest", str(tmp / "manifest.csv"), "--out", str(tmp / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return _report_artifacts(tmp / "out")


@pytest.fixture(scope="module")
def bundled_report(tmp_path_factory) -> dict[str, object]:
    out = tmp_path_factory.mktemp("bundled") / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", "--methods", "all", "--out", str(out)]) == 0
    return _report_artifacts(out)


@pytest.fixture(scope="module")
def eu_rows() -> list[list[str]]:
    """A seeded 1,200 x 25 data table at EU NUTS-3 scale, for the bundled manifest."""
    rng = np.random.default_rng(1200)
    values = rng.lognormal(2.0, 1.0, size=(1200, len(BUNDLED_DATA_ROWS[0]) - 1))
    body = ([f"EU{i:04d}", *(f"{v:.4f}" for v in row)] for i, row in enumerate(values))
    return [BUNDLED_DATA_ROWS[0], *body]


SCALINGS = st.dictionaries(
    st.sampled_from(BUNDLED_DATA_ROWS[0][1:]), st.tuples(st.integers(-40, 40), st.booleans()),
    min_size=1,
)


@pytest.fixture(scope="module")
def eu_report(eu_rows) -> dict[str, object]:
    return _report_on(eu_rows, BUNDLED_MANIFEST_ROWS)


def test_power_of_two_scaling_and_direction_flips_change_no_index_byte(
    bundled_report, eu_rows, eu_report
):
    """Scaling a raw column by 2**e, and negating it while flipping its manifest
    direction, are exact under min-max scaling: every artifact but
    normalization.csv (raw extremes and directions) keeps its bytes, on the
    bundled inputs (60 examples) and on the EU-scale table (15)."""
    for data_rows, base, examples in ((BUNDLED_DATA_ROWS, bundled_report, 60),
                                      (eu_rows, eu_report, 15)):

        @settings(max_examples=examples, deadline=None, derandomize=True)
        @given(transforms=SCALINGS)
        def check(transforms):
            rows = [list(row) for row in data_rows]
            for j, indicator in enumerate(rows[0]):
                if indicator in transforms:
                    exponent, flip = transforms[indicator]
                    factor = -(2.0**exponent) if flip else 2.0**exponent
                    for row in rows[1:]:
                        row[j] = repr(float(row[j]) * factor)
            manifest = [list(row) for row in BUNDLED_MANIFEST_ROWS]
            for row in manifest[1:]:
                if transforms.get(row[0], (0, False))[1]:
                    row[3] = FLIPPED_DIRECTION[row[3]]
            event(f"{sum(flip for _, flip in transforms.values())} direction flips")
            artifacts = _report_on(rows, manifest)
            assert artifacts.keys() == base.keys()
            for name in sorted(base.keys() - {"normalization.csv"}):
                assert artifacts[name] == base[name], name

        check()


#: The bound of the near-exact relations: a permuted input changes only the
#: order of some sums, so every index value moves by a few ulps at most.
NEAR = 1e-12


def _assert_same_indexes(artifacts: dict[str, object], base_report: dict[str, object]) -> None:
    """Every value of the three <method>.json files within NEAR of the base run's,
    by region label; the rankings agree but for the order of two values within NEAR.

    ``pca_audit.json`` is left out: its sign flips record the solver's raw
    signs, which a permuted input may change.
    """
    for method in ("abreu", "delphi", "pca"):
        base = json.loads(base_report[f"{method}.json"])
        got = json.loads(artifacts[f"{method}.json"])
        for key in ("raw_index", "rescaled_index"):
            assert got[key].keys() == base[key].keys()
            for region, value in base[key].items():
                assert abs(got[key][region] - value) <= NEAR, (method, key, region)
        assert sorted(got["ranking"]) == sorted(base["ranking"])
        # Each pair that the two rankings order oppositely, base ranking order first.
        position = {region: i for i, region in enumerate(got["ranking"])}
        moved = np.array([position[region] for region in base["ranking"]])
        values = np.array([base["rescaled_index"][region] for region in base["ranking"]])
        a, b = np.nonzero(np.triu(moved[:, None] > moved[None, :], k=1))
        assert (np.abs(values[a] - values[b]) <= NEAR).all(), (method, a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.permutations(BUNDLED_DATA_ROWS[1:]))
def test_permuting_the_regions_moves_no_index_value(bundled_report, rows):
    artifacts = _report_on([BUNDLED_DATA_ROWS[0], *rows], BUNDLED_MANIFEST_ROWS)
    _assert_same_indexes(artifacts, bundled_report)


PILLAR_IDS = {
    pillar: [row[0] for row in BUNDLED_MANIFEST_ROWS[1:] if row[2] == pillar.value]
    for pillar in Pillar
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(orders=st.fixed_dictionaries({p: st.permutations(ids) for p, ids in PILLAR_IDS.items()}))
def test_permuting_indicators_within_a_pillar_moves_no_index_value(bundled_report, orders):
    """The manifest rows and the data columns of each pillar, permuted together."""
    slots = {pillar: iter(ids) for pillar, ids in orders.items()}
    order = [next(slots[Pillar(row[2])]) for row in BUNDLED_MANIFEST_ROWS[1:]]
    manifest_row = {row[0]: row for row in BUNDLED_MANIFEST_ROWS[1:]}
    manifest = [BUNDLED_MANIFEST_ROWS[0], *(manifest_row[i] for i in order)]
    columns = [0, *(BUNDLED_DATA_ROWS[0].index(i) for i in order)]
    rows = [[row[j] for j in columns] for row in BUNDLED_DATA_ROWS]
    event(f"{sum(a != row[0] for a, row in zip(order, BUNDLED_MANIFEST_ROWS[1:]))} moved")
    _assert_same_indexes(_report_on(rows, manifest), bundled_report)


#: EU-scale examples of each permutation relation: each report run on the
#: 1,200 x 25 table takes about a tenth of a second.
EU_PERMUTATIONS = 12


@pytest.mark.parametrize("seed", range(EU_PERMUTATIONS))
def test_permuting_the_eu_regions_moves_no_index_value(eu_rows, eu_report, seed):
    order = np.random.default_rng(seed).permutation(len(eu_rows) - 1)
    rows = [eu_rows[0], *(eu_rows[1 + i] for i in order)]
    _assert_same_indexes(_report_on(rows, BUNDLED_MANIFEST_ROWS), eu_report)


@pytest.mark.parametrize("seed", range(EU_PERMUTATIONS))
def test_permuting_eu_indicators_within_a_pillar_moves_no_index_value(eu_rows, eu_report, seed):
    """The manifest rows and the data columns of each pillar, permuted together."""
    rng = np.random.default_rng(seed)
    slots = {pillar: iter(rng.permutation(ids).tolist()) for pillar, ids in PILLAR_IDS.items()}
    order = [next(slots[Pillar(row[2])]) for row in BUNDLED_MANIFEST_ROWS[1:]]
    manifest_row = {row[0]: row for row in BUNDLED_MANIFEST_ROWS[1:]}
    manifest = [BUNDLED_MANIFEST_ROWS[0], *(manifest_row[i] for i in order)]
    columns = [0, *(eu_rows[0].index(i) for i in order)]
    rows = [[row[j] for j in columns] for row in eu_rows]
    _assert_same_indexes(_report_on(rows, manifest), eu_report)
