"""Command-line interface: validate, compute, compare, report.

``compute``, ``compare`` and ``report`` run one pipeline, ``run_pipeline``:
the results of ``--methods`` (computed, or read from ``--published``), the
comparison unless the command is ``compute``, then the command's artifacts.
Engine warnings are printed to stderr as ``warning (<kind>): <message>``.

Exit codes: 0 success, 2 validation or usage failure, 3 I/O failure,
4 numerical failure (eigensolver non-convergence). All file artifacts are
byte-reproducible for identical inputs and flags: CSV floats use a fixed
six-decimal format and JSON is written with sorted keys.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import sys
import warnings
from itertools import combinations
from pathlib import Path

from . import datasets
from .aggregate import (
    compute_abreu,
    compute_delphi,
    write_index_csv,
    write_index_json,
)
from .errors import CompositeIndexError, FewerThanTwoMethodsError, NoConvergenceError
from .ingest import parse_dataset, parse_manifest, parse_weights
from .model import PILLARS, IndicatorMatrix, Manifest, Method
from .normalize import DegenerateColumnWarning, normalize_matrix, write_normalization_csv
from .pca import REFERENCE_VARIANCE_PROFILE, compute_pca, write_pca_audit
from .stats import (
    build_comparison,
    write_parallel_csv,
    write_parallel_svg,
    write_report_csv,
    write_report_json,
    write_scatter_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _parse_methods(text: str) -> list[Method]:
    tokens = [t.strip().lower() for t in text.split(",") if t.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("no methods given")
    methods = []
    for token in (token for token in tokens if token != "all"):
        try:
            method = Method(token)
        except ValueError:
            choices = ", ".join(m.value for m in Method)
            raise argparse.ArgumentTypeError(
                f"unknown method {token!r} (choose from {choices}, all)"
            ) from None
        if method not in methods:
            methods.append(method)
    return list(Method) if "all" in tokens else methods


def _load_inputs(args) -> tuple[Manifest, IndicatorMatrix]:
    manifest = parse_manifest(args.manifest)
    matrix = parse_dataset(args.data, manifest)
    return manifest, matrix


def _is_bundled_dataset(args) -> bool:
    files = zip((args.data, args.manifest), (datasets.DATASET_FILE, datasets.MANIFEST_FILE))
    try:
        return all(filecmp.cmp(f, datasets.data_path(name), shallow=False) for f, name in files)
    except OSError:
        return False


def cmd_validate(args) -> int:
    """The input checks ``compute`` runs before any method, normalization included."""
    manifest, matrix = _load_inputs(args)
    normalize_matrix(matrix, manifest)
    sizes = manifest.pillar_sizes()
    summary = {
        "regions": len(matrix.regions),
        "indicators": len(matrix.indicators),
        "pillar_sizes": {p.value: sizes[p] for p in PILLARS},
        "cost_indicators": [
            s.id for s in manifest.specs if s.direction.value == "cost"
        ],
    }
    if args.json:
        print(json.dumps({"status": "ok", **summary}, ensure_ascii=False, sort_keys=True))
    else:
        print(f"{summary['regions']} regions, {summary['indicators']} indicators")
        per_pillar = ", ".join(f"{p.value}={sizes[p]}" for p in PILLARS)
        print(f"pillars: {per_pillar}")
        print(f"cost indicators: {', '.join(summary['cost_indicators'])}")
    return EXIT_OK


def _fail(args, code: int, kind: str, message: str) -> int:
    if getattr(args, "json", False):
        print(json.dumps({"status": "error", "kind": kind, "message": message}, ensure_ascii=False))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def _compute_results(args):
    """Read ``--weights`` whichever methods run; normalize and compute each method once."""
    manifest, matrix = _load_inputs(args)
    scheme = parse_weights(args.weights, manifest) if args.weights else None
    normalized, records = normalize_matrix(matrix, manifest)
    results = {}
    audit = None
    for method in args.methods:
        if method is Method.ABREU:
            results[method] = compute_abreu(normalized, manifest)
        elif method is Method.DELPHI:
            results[method] = compute_delphi(normalized, manifest, scheme)
        elif method is Method.PCA:
            profile = REFERENCE_VARIANCE_PROFILE if _is_bundled_dataset(args) else None
            results[method], audit = compute_pca(
                normalized, manifest, reference_profile=profile
            )
    return records, results, audit


def run_pipeline(args) -> int:
    """compute | compare | report: the results of ``--methods``, the comparison
    unless the command is ``compute``, then the command's artifacts.

    Prints a plain-text line per step, or with ``--json`` one JSON object at
    the end: status, command, methods, out and, when comparing, the Pearson
    r of each method pair keyed ``a:b``."""
    compare = args.command != "compute"
    say = (lambda line: None) if args.json else print
    if compare and len(args.methods) < 2:
        raise FewerThanTwoMethodsError(
            f"comparison needs at least two methods, got {len(args.methods)}"
        )
    if args.published:  # an option of compare only, which writes no method files
        reference = datasets.load_reference_indexes(args.published)
        results = {method: reference[method] for method in args.methods}
    else:
        records, results, audit = _compute_results(args)
    report = build_comparison(list(results.values())) if compare else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.command != "compare":
        write_normalization_csv(records, out / "normalization.csv")
        for method, result in results.items():
            write_index_csv(result, out / f"{method.value}.csv")
            write_index_json(result, out / f"{method.value}.json")
        if audit is not None:
            write_pca_audit(audit, out / "pca_audit.json")
        say(f"computed {', '.join(m.value for m in results)} -> {out}")
    summary = {"status": "ok", "command": args.command, "methods": [m.value for m in results],
               "out": args.out}
    if compare:
        write_report_json(report, out / "report.json")
        write_report_csv(report, out / "report.csv")
        write_parallel_csv(report, out / "parallel.csv")
        write_parallel_svg(report, out / "parallel.svg")
        write_scatter_csv(report, out / "scatter.csv")
        pairs = combinations(enumerate(report.names), 2)
        summary["pearson"] = {f"{a}:{b}": report.r[i, j].item() for (i, a), (j, b) in pairs}
        for pair, r in summary["pearson"].items():
            say(f"pearson {pair} = {r:.4f}")
        say(f"comparison artifacts -> {args.out}")
    if args.json:
        print(json.dumps(summary, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexforge",
        description="Composite-index construction over a regions-by-indicators dataset.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    default_data = str(datasets.data_path(datasets.DATASET_FILE))
    default_manifest = str(datasets.data_path(datasets.MANIFEST_FILE))

    for command, text in (
        ("validate", "check manifest and dataset"),
        ("compute", "compute index methods"),
        ("compare", "cross-method comparison report"),
        ("report", "compute and compare in one run"),
    ):
        sub = subparsers.add_parser(command, help=text)
        sub.add_argument("--data", default=default_data, help="dataset CSV/JSON path")
        sub.add_argument("--manifest", default=default_manifest, help="manifest CSV path")
        sub.add_argument(
            "--json", action="store_true", help="print one JSON object: the summary or the error"
        )
        if command == "validate":
            sub.set_defaults(func=cmd_validate)
            continue
        sub.add_argument(
            "--methods",
            type=_parse_methods,
            default=list(Method),
            help="comma-separated subset of abreu,delphi,pca or 'all'",
        )
        sub.add_argument("--out", default="out", help="output directory")
        sources = sub.add_mutually_exclusive_group()
        sources.add_argument("--weights", help="weight override CSV (scope,id,weight)")
        if command == "compare":
            sources.add_argument(
                "--published",
                nargs="?",
                const=str(datasets.data_path(datasets.REFERENCE_FILE)),
                help="compare the --methods columns of this reference CSV instead of "
                "computing them; reads no --data or --manifest",
            )
        sub.set_defaults(func=run_pipeline, published=None)

    return parser


def _print_warning(message, category, *_) -> None:
    kind = "degenerate" if issubclass(category, DegenerateColumnWarning) else category.__name__
    print(f"warning ({kind}): {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except NoConvergenceError as exc:
            return _fail(args, EXIT_NUMERICAL, "numerical", str(exc))
        except CompositeIndexError as exc:
            return _fail(args, EXIT_VALIDATION, "validation", str(exc))
        except OSError as exc:
            return _fail(args, EXIT_IO, "io", str(exc))


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
