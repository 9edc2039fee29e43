from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pty
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from indexforge import cli
from indexforge.cli import main
from indexforge.datasets import data_path, load_nuts3_dataset, load_reference_indexes
from indexforge.errors import DataFormatError
from indexforge.ingest import parse_dataset
from indexforge.model import Pillar

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
            "error (validation): dataset has 0 region(s); at least 2 are needed"
        ]

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
        assert errors == [f"error (validation): {message}"]
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

    ``cli._is_bundled_dataset`` matches the input by path, so only a run on the
    bundled file itself gets the profile notes.
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


def test_power_of_two_scaling_and_direction_flips_change_no_index_byte(bundled_report, eu_rows):
    """Scaling a raw column by 2**e, and negating it while flipping its manifest
    direction, are exact under min-max scaling: every artifact but
    normalization.csv (raw extremes and directions) keeps its bytes, on the
    bundled inputs (60 examples) and on the EU-scale table (15)."""
    eu_report = _report_on(eu_rows, BUNDLED_MANIFEST_ROWS)
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


def _assert_same_indexes(artifacts: dict[str, object], bundled_report: dict[str, object]) -> None:
    """Every value of the three <method>.json files within NEAR of the bundled run's,
    by region label; the rankings agree but for the order of two values within NEAR.

    ``pca_audit.json`` is left out: its sign flips record the solver's raw
    signs, which a permuted input may change.
    """
    for method in ("abreu", "delphi", "pca"):
        base = json.loads(bundled_report[f"{method}.json"])
        got = json.loads(artifacts[f"{method}.json"])
        for key in ("raw_index", "rescaled_index"):
            assert got[key].keys() == base[key].keys()
            for region, value in base[key].items():
                assert abs(got[key][region] - value) <= NEAR, (method, key, region)
        assert sorted(got["ranking"]) == sorted(base["ranking"])
        position = {region: i for i, region in enumerate(got["ranking"])}
        values = base["rescaled_index"]
        for a, b in combinations(base["ranking"], 2):
            if position[a] > position[b]:
                assert abs(values[a] - values[b]) <= NEAR, (method, a, b)


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
