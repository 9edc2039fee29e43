"""Tests of the benchmark itself: generator, oracles, checks, spans.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

DATA = ROOT / "src" / "indexforge" / "data"


@pytest.fixture(scope="module")
def bundled_out(tmp_path_factory) -> Path:
    """Artifacts of `report --methods all` on the bundled dataset."""
    from indexforge import cli

    out = tmp_path_factory.mktemp("bundled") / "out"
    argv = ["report", "--methods", "all", "--data", str(DATA / "nuts3.csv"),
            "--manifest", str(DATA / "manifest.csv"), "--out", str(out)]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        assert cli.main(argv) == 0
    return out


@pytest.fixture(scope="module")
def bundled_oracle() -> checks.Oracle:
    table = checks.read_table(DATA / "nuts3.csv")
    return checks.Oracle(*table, checks.read_manifest(DATA / "manifest.csv"))


@pytest.fixture
def faulty(bundled_out, tmp_path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(bundled_out, copy)
    return copy


def _problems(out: Path, oracle) -> list[str]:
    wl = run.Workload("bundled-report", 1, "report", [9, 25], DATA / "nuts3.csv",
                      DATA / "manifest.csv", out)
    return run.check_cli_output(wl, oracle)


# -- generator -------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["eu-report", "wide-report"])
def test_generator_is_byte_deterministic(workload, tmp_path):
    first = gen.generate(workload, 7, tmp_path / "a", DATA / "manifest.csv")
    again = gen.generate(workload, 7, tmp_path / "b", DATA / "manifest.csv")
    other = gen.generate(workload, 8, tmp_path / "c", DATA / "manifest.csv")
    assert first["data"].read_bytes() == again["data"].read_bytes()
    assert first["manifest"].read_bytes() == again["manifest"].read_bytes()
    assert first["data"].read_bytes() != other["data"].read_bytes()


def test_wide_workload_shape_and_planted_structure(tmp_path):
    info = gen.generate("wide-report", 3, tmp_path, DATA / "manifest.csv")
    regions, ids, values = checks.read_table(info["data"])
    manifest = checks.read_manifest(info["manifest"])
    assert values.shape == (300, 200) == tuple(info["shape"])
    assert sum(row["direction"] == "cost" for row in manifest) == 40
    assert int((values.max(axis=0) == values.min(axis=0)).sum()) == 1
    assert len(set(regions)) == 300


# -- oracles against the engine ------------------------------------------------------

def test_oracle_agrees_with_engine_on_bundled_dataset(bundled_oracle):
    from indexforge.aggregate import compute_abreu, compute_delphi
    from indexforge.datasets import load_nuts3_dataset
    from indexforge.normalize import normalize_matrix

    manifest, raw = load_nuts3_dataset()
    normalized, _ = normalize_matrix(raw, manifest)
    for method, result in (("abreu", compute_abreu(normalized, manifest)),
                           ("delphi", compute_delphi(normalized, manifest))):
        engine = np.array([result.rescaled_index[r] for r in bundled_oracle.regions])
        np.testing.assert_allclose(engine, bundled_oracle.index[method], atol=1e-12)


def test_bundled_artifacts_pass_every_check(bundled_out, bundled_oracle):
    assert _problems(bundled_out, bundled_oracle) == []
    fit = checks.reference_fit(bundled_out, BENCH / "golden" / "table3.csv")
    assert fit["abreu_same_ranking"] and fit["delphi_same_ranking"]


def test_numpy_crossings_match_the_definition():
    a = ["r1", "r2", "r3", "r4"]
    assert checks.crossings(a, a) == 0
    assert checks.crossings(a, a[::-1]) == 6
    assert checks.crossings(a, ["r2", "r1", "r3", "r4"]) == 1


# -- planted faults ------------------------------------------------------------------

def test_swapped_ranks_are_caught(faulty, bundled_oracle):
    path = faulty / "abreu.csv"
    rows = list(csv.reader(path.open(encoding="utf-8")))
    rows[1][3], rows[2][3] = rows[2][3], rows[1][3]
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert any("ranks disagree" in p for p in _problems(faulty, bundled_oracle))


@pytest.mark.parametrize("method", ["abreu", "pca"])
def test_value_off_by_1e3_is_caught(faulty, bundled_oracle, method):
    path = faulty / f"{method}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    region = payload["ranking"][4]
    payload["rescaled_index"][region] += 1e-3
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert _problems(faulty, bundled_oracle)


def test_value_off_by_1e3_in_a_report_is_caught_by_golden(faulty, bundled_oracle):
    path = faulty / "report.csv"
    text = path.read_text(encoding="utf-8")
    first = next(t for t in checks._FLOAT.findall(text) if 0.01 < float(t) < 0.99)
    path.write_text(text.replace(first, f"{float(first) + 1e-3:.6f}", 1), encoding="utf-8")
    assert any(p.startswith("golden: report.csv") for p in _problems(faulty, bundled_oracle))


def test_missing_artifact_is_caught_and_counted(faulty, bundled_oracle):
    (faulty / "parallel.svg").unlink()
    tally = run.Tally()
    tally.record(_problems(faulty, bundled_oracle))
    tally.record([])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_compare_text_tolerates_roundoff_only():
    assert checks.compare_text("x,0.123457\n", "x,0.123456\n") is None
    assert checks.compare_text('{"r": 0.30000000000000004}', '{"r": 0.3}') is None
    assert checks.compare_text("x,0.124456\n", "x,0.123456\n")
    assert checks.compare_text("y,0.123456\n", "x,0.123456\n")


# -- spans and statistics ---------------------------------------------------------

def test_tracer_records_nesting_and_missing_names(monkeypatch):
    layer = types.ModuleType("fake_layer")
    exec("def inner(n):\n    return n * 2\n"
         "def outer(n):\n    return inner(n) + inner(n + 1)\n", layer.__dict__)
    layer.inner.__module__ = layer.outer.__module__ = "pkg.fake_layer"
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    original = layer.inner
    with spans.Tracer(request=3) as tracer:
        tracer.patch("fake_layer", "outer")
        tracer.patch("fake_layer", "inner", lambda args, result: {"n": args[0]})
        tracer.patch("fake_layer", "gone")
        assert layer.outer(1) == 6
    assert layer.inner is original
    assert tracer.missing == ["fake_layer.gone"]
    assert [(s.name, s.parent, s.request, s.attrs) for s in tracer.spans] == [
        ("fake_layer.outer", None, 3, {}),
        ("fake_layer.inner", 0, 3, {"n": 1}),
        ("fake_layer.inner", 0, 3, {"n": 2}),
    ]
    root = tracer.spans[0]
    assert spans.count(tracer.spans, "fake_layer.inner") == 2
    assert spans.self_times(tracer.spans)["fake_layer.outer"] == pytest.approx(
        root.duration - spans.total(tracer.spans, "fake_layer.inner"))


def test_tail_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, "p75.0")
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, "max of 3")


def test_parse_importtime_separates_numpy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       500 |        600 |   numpy",
        "import time:       300 |        900 | indexforge",
        "import time:        50 |         50 | indexforge.cli",
        "import time:        10 |         10 | json",
    ])
    assert run.parse_importtime(text) == pytest.approx((600e-6, 350e-6))


def test_pca_stage_split_survives_a_folded_stage2():
    def span(name, start, end, parent):
        return spans.Span(name, start, end, parent, 1)

    with_wrapper = [span("pca.compute_pca", 0, 10, None)]
    with_wrapper += [span("pca.pca_pillar", i, i + 1, 0) for i in range(4)]
    with_wrapper += [span("pca.pca_stage2", 5, 7, 0), span("pca.pca_pillar", 5, 6.5, 5)]
    assert run.pca_stage_times(with_wrapper) == (4.0, 2.0)
    folded = with_wrapper[:5] + [span("pca.pca_pillar", 5, 7, 0)]
    assert run.pca_stage_times(folded) == (4.0, 2.0)


def _benchmark_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec[kind]]


def test_traced_cli_run_yields_every_per_layer_metric(tmp_path):
    from indexforge import cli

    argv = ["report", "--methods", "all", "--data", str(DATA / "nuts3.csv"),
            "--manifest", str(DATA / "manifest.csv"), "--out", str(tmp_path)]
    patches = list(run.ENGINE_PATCHES) + run.cli_patches()
    with contextlib.redirect_stdout(io.StringIO()):
        tracer, code, _ = run.traced_call(1, patches, lambda: cli.main(argv))
    assert code == 0
    found = set(run.layer_metrics(tracer.spans, tmp_path))
    found |= {"cli.interp_s", "cli.import_numpy_s", "cli.import_indexforge_s",
              "trace.overhead_ratio"}
    assert found == set(_benchmark_names("per_layer"))


def test_benchmark_lists_the_workloads_the_runner_knows():
    assert _benchmark_names("workloads") == list(run.WORKLOADS)


def test_short_timed_run_yields_every_end_to_end_metric(tmp_path, bundled_oracle):
    wl = run.Workload("bundled-report", 1, "report", [9, 25], DATA / "nuts3.csv",
                      DATA / "manifest.csv", tmp_path / "out")
    tally = run.Tally()
    table = checks.read_table(wl.data)
    metrics, info = run.measure(wl, table, bundled_oracle, 0.0, tmp_path, tally)
    assert set(metrics) == set(_benchmark_names("end_to_end"))
    assert tally.failed == 0 and tally.attempted == 1 + info["samples"]["pipeline_s"]
    assert all(value > 0 for value in metrics.values())


def test_probe_scales_by_the_kernel_time_around_a_sample():
    sample = speed.Sample(wall=2.0, kernel=2 * speed.REFERENCE_S)
    assert sample.scale(sample.wall) == pytest.approx(1.0)


def test_probe_runs_the_kernel_during_a_long_call_and_takes_it_out():
    probe = speed.Probe()
    before = len(probe.kernel_times)
    result, sample = probe.call(lambda: sum(i for i in range(2_000_000)) and "done")
    assert result == "done"
    assert len(probe.kernel_times) > before + 2 * speed.EDGE_CALLS  # some ran during the call
    assert 0 < sample.wall and sample.kernel > 0


def test_probe_spawn_reports_exit_code_and_usage(tmp_path):
    probe = speed.Probe()
    proc = probe.spawn([sys.executable, "-c", "import sys, time; time.sleep(0.1); sys.exit(3)"],
                       tmp_path, {})
    assert proc.code == 3
    assert 0.05 < proc.wall and proc.peak_mb > 0 and proc.kernel > 0
