"""indexforge benchmark: the CLI as fresh processes, the library pipeline
in-process, and a separate traced run for per-layer metrics.

Run from the repository root (the package need not be installed; it is
imported from ``src/``):

    python3 perfbench/run.py --workload eu-report --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Workloads: bundled-report, eu-report, wide-report, tall-compute (see
``gen.py`` for the synthetic ones). Load is a closed loop with one client:
each CLI process starts after the previous one exits.

``--trace 0`` measures with tracing off and reports the end-to-end metrics,
as medians in reference seconds: each sample is scaled by the speed a fixed
kernel shows on the same core around and during it (see ``speed.py``), so
that runs on a shared host compare. The bench and its processes run on one
core. ``--trace 1`` runs the traced pass (spans around the engine's public
functions, patched from outside) and reports the per-layer metrics. Every
CLI run and pipeline call is checked (see ``checks.py``); failures count
against ``attempted`` and make ``correct`` false. Human-readable lines come
first; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Inputs live under ``.bench_work/``
and are removed at exit; metadata, sample counts and spans are written to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import inspect
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DATA = SRC / "indexforge" / "data"
GOLDEN = HERE / "golden"

WORKLOADS = ("bundled-report", *gen.SYNTHETIC)
SETUP_SAMPLES = 9        # fresh `import indexforge.cli` processes per run, at least
SETUP_SHARE = 0.25       # import seconds per CLI second in the timed loop
IMPORT_SAMPLES = 5       # bare-interpreter and -X importtime processes per traced run
MIN_PIPELINE = 3         # timed pipeline calls per run, at least
MIN_TRACED_PAIRS = 2     # untraced/traced pipeline pairs per traced run, at least
PIPELINE_SHARE = 0.5     # pipeline seconds per CLI second in the timed loop
TRACE_PIPELINE_SHARE = 0.3  # share of a traced run spent on pipeline calls


# Functions traced through the module their callers look them up in. The
# CLI's own imported bindings are added at run time (see cli_patches).
ENGINE_PATCHES = (
    ("indexforge.normalize", "normalize_matrix"),
    ("indexforge.aggregate", "compute_abreu"),
    ("indexforge.aggregate", "compute_delphi"),
    ("indexforge.pca", "compute_pca"),
    ("indexforge.pca", "pca_pillar"),
    ("indexforge.pca", "pca_stage2"),
    ("indexforge.pca", "eigen_symmetric"),
    ("indexforge.stats", "build_comparison"),
    ("indexforge.stats", "crossings"),
)
CLI_NAMES = (
    "main", "parse_manifest", "parse_dataset", "normalize_matrix", "write_normalization_csv",
    "compute_abreu", "compute_delphi", "write_index_csv", "write_index_json", "compute_pca",
    "write_pca_audit", "build_comparison", "write_report_json", "write_report_csv",
    "write_parallel_csv", "write_parallel_svg", "write_scatter_csv",
)
SPAN_ATTRS = {
    "parse_dataset": lambda args, result: {"cells": result.shape[0] * result.shape[1]},
    "normalize_matrix": lambda args, result: {
        "degenerate": sum(1 for record in result[1] if record.degenerate)},
    "eigen_symmetric": lambda args, result: {"dim": len(args[0])},
    "crossings": lambda args, result: {"n": len(args[0])},
    "build_comparison": lambda args, result: {"methods": len(args[0])},
}
WRITERS = {
    "normalize.write_s": ("normalize.write_normalization_csv",),
    "aggregate.write_s": ("aggregate.write_index_csv", "aggregate.write_index_json"),
    "pca.write_audit_s": ("pca.write_pca_audit",),
    "stats.write_s": ("stats.write_report_json", "stats.write_report_csv",
                      "stats.write_parallel_csv", "stats.write_parallel_svg",
                      "stats.write_scatter_csv"),
}
PCA_STAGES = ("pca.pca_pillar", "pca.pca_stage2")
PILLAR_COUNT = 4


@dataclass
class Workload:
    name: str
    seed: int
    command: str
    shape: list
    data: Path
    manifest: Path
    out: Path

    def argv(self) -> list[str]:
        return [self.command, "--methods", "all", "--data", str(self.data),
                "--manifest", str(self.manifest), "--out", str(self.out)]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"# check failed: {'; '.join(problems[:3])}", file=sys.stderr)


def prepare(name: str, seed: int, work: Path) -> Workload:
    if name == "bundled-report":
        return Workload(name, seed, "report", [9, 25], PACKAGE_DATA / "nuts3.csv",
                        PACKAGE_DATA / "manifest.csv", work / "out")
    info = gen.generate(name, seed, work / "input", PACKAGE_DATA / "manifest.csv")
    return Workload(name, seed, info["command"], info["shape"], info["data"], info["manifest"],
                    work / "out")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], cwd: Path) -> float:
    """Run ``python args`` to completion; its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def check_cli_output(wl: Workload, oracle) -> list[str]:
    problems = checks.check_invocation(wl.out, oracle, wl.command)
    if wl.name == "bundled-report" and not problems:
        problems += checks.check_reference(wl.out, GOLDEN / "table3.csv")
        problems += checks.check_golden(wl.out, GOLDEN / "bundled-report")
    return problems


# -- the library pipeline ------------------------------------------------------

def load_inputs(wl: Workload, table):
    """Parsed manifest and raw matrix, built before any timing starts."""
    from indexforge import ingest, model

    regions, ids, values = table
    manifest = ingest.parse_manifest(wl.manifest)
    return manifest, model.IndicatorMatrix(regions, ids, values, stage=model.Stage.RAW)


def run_pipeline(manifest, raw, compare: bool) -> list:
    """normalize, the three methods, and the comparison on report workloads.

    Functions are looked up on their modules at call time so the traced run
    sees them.
    """
    from indexforge import aggregate, normalize, pca, stats

    normalized, _ = normalize.normalize_matrix(raw, manifest)
    results = [
        aggregate.compute_abreu(normalized, manifest),
        aggregate.compute_delphi(normalized, manifest),
        pca.compute_pca(normalized, manifest)[0],
    ]
    if compare:
        stats.build_comparison(results)
    return results


def check_pipeline(results, oracle) -> list[str]:
    problems = []
    for result in results:
        method = result.method.value
        values = np.array([result.rescaled_index[r] for r in oracle.regions])
        if method in oracle.index and np.abs(values - oracle.index[method]).max() > checks.VALUE_TOL:
            problems.append(f"pipeline {method} is off the oracle")
        if method == "pca" and not (values.min() == 0.0 and values.max() == 1.0):
            problems.append("pipeline pca does not span [0, 1]")
    return problems


def timed_pipeline(manifest, raw, wl: Workload, oracle, tally: Tally) -> float:
    start = time.perf_counter()
    try:
        results = run_pipeline(manifest, raw, wl.command == "report")
    except Exception as exc:  # a failed call is counted, not fatal to the run
        tally.record([f"pipeline raised {exc!r}"])
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    tally.record(check_pipeline(results, oracle))
    return elapsed


# -- statistics ----------------------------------------------------------------

def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile that still has at least 10 samples beyond it.

    Below 20 samples no such percentile lies above the median, so the
    maximum is reported instead and labelled as such.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


# -- end-to-end run (tracing off) --------------------------------------------

def measure(wl: Workload, table, oracle, seconds: float, work: Path,
            tally: Tally) -> tuple[dict, dict]:
    """Closed loop until the deadline. Each round runs one CLI process, then
    pipeline calls and fresh-import samples up to their share of the CLI
    time, so all three are spread over the whole run. Times are reported in
    reference seconds (see ``speed.py``); the plain medians go to the record."""
    manifest, raw = load_inputs(wl, table)
    compare = wl.command == "report"
    env = child_env()
    import_argv = [sys.executable, "-c", "import indexforge.cli"]
    spawn(import_argv[1:], work)  # compiles bytecode once
    run_pipeline(manifest, raw, compare)  # warm-up call
    probe = speed.Probe()
    deadline = time.perf_counter() + seconds
    cli, pipeline, setup = [], [], []

    def pipeline_call() -> None:
        try:
            results, sample = probe.call(lambda: run_pipeline(manifest, raw, compare))
        except Exception as exc:  # a failed call is counted, not fatal to the run
            tally.record([f"pipeline raised {exc!r}"])
            return
        pipeline.append(sample)
        tally.record(check_pipeline(results, oracle))

    def left(samples: list) -> float:
        return deadline - time.perf_counter() - median([s.wall for s in samples])

    stderr_path = work / "cli.stderr"
    while not cli or left(cli) >= 0:
        shutil.rmtree(wl.out, ignore_errors=True)
        with stderr_path.open("wb") as stderr:
            proc = probe.spawn([sys.executable, "-m", "indexforge.cli", *wl.argv()], work, env, stderr)
        cli.append(proc)
        tally.record([f"exit code {proc.code}: {stderr_path.read_text()[-300:]}"] if proc.code
                     else check_cli_output(wl, oracle))
        cli_time = sum(s.wall for s in cli)
        while sum(s.wall for s in pipeline) < PIPELINE_SHARE * cli_time and left(pipeline) >= 0:
            pipeline_call()
        while sum(s.wall for s in setup) < SETUP_SHARE * cli_time and left(setup) >= 0:
            setup.append(probe.spawn(import_argv, work, env))
    while len(pipeline) < MIN_PIPELINE:
        pipeline_call()
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe.spawn(import_argv, work, env))

    scaled = {
        "cli_wall_s": [s.scale(s.wall) for s in cli],
        "cli_cpu_s": [s.scale(s.cpu) for s in cli],
        "pipeline_s": [s.scale(s.wall) for s in pipeline],
        "setup_s": [s.scale(s.wall) for s in setup],
    }
    tail_value, tail_label = tail(scaled["cli_wall_s"])
    metrics = {name: median(values) for name, values in scaled.items()}
    metrics["cli_wall_tail_s"] = tail_value
    metrics["peak_rss_mb"] = median([s.peak_mb for s in cli])
    plain = {
        "cli_wall_s": [s.wall for s in cli], "cli_cpu_s": [s.cpu for s in cli],
        "pipeline_s": [s.wall for s in pipeline], "setup_s": [s.wall for s in setup],
    }
    samples = {name: len(values) for name, values in scaled.items()}
    samples.update(cli_wall_tail_s=len(cli), peak_rss_mb=len(cli))
    return metrics, {
        "samples": samples, "tail_percentile": tail_label,
        "plain_medians_s": {name: median(values) for name, values in plain.items()},
        "kernel_s": {"min": min(probe.kernel_times), "median": median(probe.kernel_times),
                     "calls": len(probe.kernel_times)},
        "raw_samples": {**plain, "kernel_s": {"cli": [s.kernel for s in cli],
                                              "pipeline": [s.kernel for s in pipeline],
                                              "setup": [s.kernel for s in setup]}},
    }


# -- traced run ----------------------------------------------------------------

def parse_importtime(text: str) -> tuple[float, float]:
    """(numpy s, indexforge s excluding numpy) from ``-X importtime`` output."""
    numpy_us, numpy_depth, package_us = 0, 0, 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        if name == "numpy":
            numpy_us, numpy_depth = int(cumulative), depth
        elif depth == 0 and name.split(".")[0] == "indexforge":
            package_us += int(cumulative)
    if numpy_depth > 0:
        package_us -= numpy_us
    return numpy_us / 1e6, package_us / 1e6


def startup_breakdown(work: Path) -> dict:
    interp = [spawn(["-c", "pass"], work) for _ in range(IMPORT_SAMPLES)]
    numpy_s, package_s = [], []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import indexforge.cli"],
                              cwd=work, env=child_env(), capture_output=True, text=True, check=True)
        a, b = parse_importtime(done.stderr)
        numpy_s.append(a)
        package_s.append(b)
    return {"cli.interp_s": median(interp), "cli.import_numpy_s": median(numpy_s),
            "cli.import_indexforge_s": median(package_s)}


def cli_patches() -> list[tuple[str, str]]:
    """Every engine function ``indexforge.cli`` imports, plus the names the
    metrics need (reported as missing if the module no longer has them)."""
    import indexforge.cli as cli

    imported = {
        name for name, value in vars(cli).items()
        if inspect.isfunction(value) and value.__module__.startswith("indexforge.")
        and value.__module__ != cli.__name__
    }
    return [("indexforge.cli", name) for name in sorted(imported | set(CLI_NAMES))]


def traced_call(request: int, patches, fn, *args):
    with spans.Tracer(request) as tracer:
        for module, attr in patches:
            tracer.patch(module, attr, SPAN_ATTRS.get(attr))
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
    return tracer, result, elapsed


def pca_stage_times(trace: list) -> tuple[float, float]:
    """Stage 1 is the first PILLAR_COUNT outermost stage calls inside each
    compute_pca, stage 2 the rest; robust to pca_stage2 being folded away."""
    by_call: dict[int, list] = {}
    for s in trace:
        if s.name not in PCA_STAGES:
            continue
        parent, owner = s.parent, None
        while parent is not None and owner is None:
            if trace[parent].name in PCA_STAGES:
                break
            if trace[parent].name == "pca.compute_pca":
                owner = parent
            parent = trace[parent].parent
        if owner is not None:
            by_call.setdefault(owner, []).append(s)
    stage1 = stage2 = 0.0
    for calls in by_call.values():
        calls.sort(key=lambda s: s.start)
        stage1 += sum(s.duration for s in calls[:PILLAR_COUNT])
        stage2 += sum(s.duration for s in calls[PILLAR_COUNT:])
    return stage1, stage2


def layer_metrics(trace: list, out_dir: Path) -> dict:
    total = lambda name: spans.total(trace, name)  # noqa: E731
    count = lambda name: spans.count(trace, name)  # noqa: E731
    attr = lambda name, key: [s.attrs.get(key, 0) for s in trace if s.name == name]  # noqa: E731
    parse_s = total("ingest.parse_dataset")
    pairs = sum(k * (k - 1) // 2 for k in attr("stats.build_comparison", "methods"))
    stage1, stage2 = pca_stage_times(trace)
    metrics = {
        "cli.self_s": spans.self_times(trace).get("cli.main", 0.0),
        "cli.compute_calls_per_method": (count("aggregate.compute_abreu")
                                         + count("aggregate.compute_delphi")
                                         + count("pca.compute_pca")) / 3,
        "cli.parse_calls": count("ingest.parse_dataset"),
        "ingest.parse_manifest_s": total("ingest.parse_manifest"),
        "ingest.parse_dataset_s": parse_s,
        "ingest.cells_per_s": sum(attr("ingest.parse_dataset", "cells")) / parse_s if parse_s else 0.0,
        "normalize.normalize_matrix_s": total("normalize.normalize_matrix"),
        "normalize.degenerate_columns": max(attr("normalize.normalize_matrix", "degenerate"), default=0),
        "aggregate.compute_abreu_s": total("aggregate.compute_abreu"),
        "aggregate.compute_delphi_s": total("aggregate.compute_delphi"),
        "pca.compute_pca_s": total("pca.compute_pca"),
        "pca.stage1_s": stage1,
        "pca.stage2_s": stage2,
        "pca.eigen_symmetric_s": total("pca.eigen_symmetric"),
        "pca.eigen_calls": count("pca.eigen_symmetric"),
        "pca.eigen_max_dim": max(attr("pca.eigen_symmetric", "dim"), default=0),
        "stats.build_comparison_s": total("stats.build_comparison"),
        "stats.crossings_s": total("stats.crossings"),
        "stats.crossings_calls_per_pair": count("stats.crossings") / pairs if pairs else 0.0,
        "stats.region_pairs_compared": sum(n * (n - 1) // 2 for n in attr("stats.crossings", "n")),
        "writers.bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),
    }
    for name, functions in WRITERS.items():
        metrics[name] = sum(total(f) for f in functions)
    return metrics


def traced_run(wl: Workload, table, oracle, seconds: float, work: Path,
               tally: Tally) -> tuple[dict, dict]:
    import indexforge.cli as cli

    manifest, raw = load_inputs(wl, table)
    compare = wl.command == "report"
    deadline = time.perf_counter() + seconds
    metrics = startup_breakdown(work)

    # Untraced and traced pipeline calls alternate, after one warm-up call.
    run_pipeline(manifest, raw, compare)
    plain, traced = [], []
    request = 0
    start = time.perf_counter()
    budget = TRACE_PIPELINE_SHARE * (deadline - start)
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < budget:
        plain.append(timed_pipeline(manifest, raw, wl, oracle, tally))
        request += 1
        tracer, results, elapsed = traced_call(request, ENGINE_PATCHES, run_pipeline,
                                               manifest, raw, compare)
        traced.append(elapsed)
        tally.record(check_pipeline(results, oracle))

    # In-process CLI runs, traced, until the deadline.
    runs, dumps, missing, main_times = [], [], set(), []
    patches = list(ENGINE_PATCHES) + cli_patches()
    while not runs or time.perf_counter() + median(main_times) <= deadline:
        shutil.rmtree(wl.out, ignore_errors=True)
        request += 1
        with contextlib.redirect_stdout(io.StringIO()):
            tracer, code, elapsed = traced_call(request, patches, lambda: cli.main(wl.argv()))
        main_times.append(elapsed)
        tally.record([f"cli.main returned {code}"] if code else check_cli_output(wl, oracle))
        runs.append(layer_metrics(tracer.spans, wl.out))
        dumps.append(tracer.dump())
        missing.update(tracer.missing)

    for name in runs[0]:
        metrics[name] = median([run[name] for run in runs])
    metrics["trace.overhead_ratio"] = median(traced) / median(plain)
    own = spans.self_times(tracer.spans)
    hot = sorted(own.items(), key=lambda item: -item[1])[:6]
    info = {
        "samples": {"cli.main": len(runs), "pipeline_traced": len(traced),
                    "pipeline_plain": len(plain), "startup": IMPORT_SAMPLES},
        "missing_spans": sorted(missing),
        "hot_spots_self_s": dict(hot),
        "spans": dumps,
    }
    return metrics, info


# -- metadata and output -------------------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(wl: Workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in
                   Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name"))
        threads = len(os.listdir("/proc/self/task"))  # OpenBLAS starts its pool at import
    except (OSError, StopIteration):
        cpu, threads = platform.processor() or "unknown", None
    return {
        "workload": wl.name, "seed": wl.seed, "shape": wl.shape,
        "command": wl.command, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": threads, "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(), "bench_cores": sorted(os.sched_getaffinity(0)), "cpu_model": cpu,
        "load": "closed loop, one client, one CLI process at a time",
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, Tally]:
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    tally = Tally()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = prepare(name, seed, work)
        table = checks.read_table(wl.data)
        oracle = checks.Oracle(*table, checks.read_manifest(wl.manifest))
        if trace:
            values, info = traced_run(wl, table, oracle, seconds, work, tally)
        else:
            values, info = measure(wl, table, oracle, seconds, work, tally)
        if name == "bundled-report":
            with contextlib.suppress(OSError, KeyError, ValueError):  # last run failed
                info["reference_fit"] = checks.reference_fit(wl.out, GOLDEN / "table3.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    meta = metadata(wl)
    print(f"# workload {name}: {wl.command} on {wl.shape[0]}x{wl.shape[1]}, seed {seed}; {why}")
    for key in units:
        value, n = values[key], info["samples"].get(key)
        extra = f" n={n}" if n else ""
        if key == "cli_wall_tail_s":
            extra += f" ({info['tail_percentile']})"
        if key in info.get("plain_medians_s", {}):
            extra += f" (plain {info['plain_medians_s'][key]:.6g} s)"
        print(f"{key:32s} {value:14.6g} {units[key]:6s}{extra}")
    print(f"{'error_rate':32s} {tally.failed / max(tally.attempted, 1):14.6g} ratio "
          f" ({tally.failed}/{tally.attempted})")
    if trace:
        print(f"# samples {json.dumps(info['samples'])}")
        print(f"# hot spots (self s, last cli.main) {json.dumps(info['hot_spots_self_s'])}")
        print(f"# missing spans {json.dumps(info['missing_spans'])}")
    if "kernel_s" in info:
        print(f"# speed kernel (s; one reference second = kernel at {speed.REFERENCE_S:g} s) "
              f"{json.dumps(info['kernel_s'])}")
    if "reference_fit" in info:
        print(f"# reference fit (Table 3) {json.dumps(info['reference_fit'])}")
    print(f"# meta {json.dumps(meta)}")
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": values, "units": units, "attempted": tally.attempted,
              "failed": tally.failed, **info}
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record) + "\n")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "indexforge" / "cli.py").is_file():
        print(f"error: no indexforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import indexforge

    if Path(indexforge.__file__).resolve().parent != SRC / "indexforge":
        print(f"error: imported indexforge from {indexforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    # One core for the bench and every process it starts: the speed probe
    # tracks the core it runs on, and the cores of this host slow down apart.
    core = {min(os.sched_getaffinity(0))}
    for thread in os.listdir("/proc/self/task"):  # numpy's BLAS threads too
        os.sched_setaffinity(int(thread), core)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, total = {}, Tally()
    for name in names:
        found, tally = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        total.attempted += tally.attempted
        total.failed += tally.failed
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
