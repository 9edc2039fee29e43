from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from indexforge import cli
from indexforge.cli import main
from indexforge.datasets import data_path, load_nuts3_dataset, load_reference_indexes
from indexforge.errors import DataFormatError

FIXTURE_DATA = str(data_path("nuts3.csv"))
FIXTURE_MANIFEST = str(data_path("manifest.csv"))
FIXTURE_TABLE3 = str(data_path("table3.csv"))
GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "bundled-report"


def run(argv):
    return main(argv)


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
            ("indicator,PopDens,3,7", "weights file line 2 has 4 cells, expected 3"),
            ("indicator,PopDens", "weights file line 2 has 2 cells, expected 3"),
        ],
        ids=["non-numeric-weight", "unknown-pillar", "duplicate-pillar", "duplicate-indicator",
             "extra-cell", "missing-cell"],
    )
    def test_malformed_weights_exit_2(self, tmp_path, capsys, row, expected):
        weights = tmp_path / "weights.csv"
        weights.write_text(f"scope,id,weight\n{row}\n", encoding="utf-8")
        code = run(["compute", "--methods", "delphi", "--out", str(tmp_path / "out"),
                    "--weights", str(weights)])
        assert code == 2
        assert expected in capsys.readouterr().err

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

    def test_published_non_numeric_value_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "table3.csv"
        text = Path(FIXTURE_TABLE3).read_text(encoding="utf-8")
        bad.write_text(text.replace("Alto Minho,0.34", "Alto Minho,n/a", 1), encoding="utf-8")
        code = run(["compare", "--published", str(bad), "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert "non-numeric abreu value 'n/a' for region 'Alto Minho'" in capsys.readouterr().err

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

    def test_bundled_artifacts_match_golden_bytes(self, tmp_path):
        out = tmp_path / "all"
        assert run(["report", "--methods", "all", "--out", str(out)]) == 0
        golden = sorted(p.name for p in GOLDEN_REPORT.iterdir())
        assert len(golden) == 13
        assert sorted(p.name for p in out.iterdir()) == golden
        for name in golden:
            assert (out / name).read_bytes() == (GOLDEN_REPORT / name).read_bytes(), name

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

    def test_single_method_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "one"
        code = run(["report", "--methods", "abreu", "--out", str(out)])
        assert code == 2
        assert "at least two methods" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


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
