"""Command-line interface: validate, compute, compare, report.

Exit codes: 0 success, 2 validation or usage failure, 3 I/O failure,
4 numerical failure (eigensolver non-convergence). All file artifacts are
byte-reproducible for identical inputs and flags: CSV floats use a fixed
six-decimal format and JSON is written with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .normalize import normalize_matrix, write_normalization_csv
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
    return [Method.ABREU, Method.DELPHI, Method.PCA] if "all" in tokens else methods


def _load_inputs(args) -> tuple[Manifest, IndicatorMatrix]:
    manifest = parse_manifest(args.manifest)
    matrix = parse_dataset(args.data, manifest)
    return manifest, matrix


def _is_bundled_dataset(args) -> bool:
    try:
        return Path(args.data).resolve() == datasets.data_path(datasets.DATASET_FILE).resolve()
    except OSError:
        return False


def _require_two_methods(methods) -> None:
    if len(methods) < 2:
        raise FewerThanTwoMethodsError(
            f"comparison needs at least two methods, got {len(methods)}"
        )


def cmd_validate(args) -> int:
    manifest, matrix = _load_inputs(args)
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


def _compute_results(args, manifest, matrix, methods):
    """Read ``--weights`` whichever methods run; normalize and compute each method once."""
    scheme = parse_weights(args.weights, manifest) if args.weights else None
    normalized, records = normalize_matrix(matrix, manifest)
    results = {}
    audit = None
    for method in methods:
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


def _write_computed(args, records, results, audit) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_normalization_csv(records, out / "normalization.csv")
    for method, result in results.items():
        write_index_csv(result, out / f"{method.value}.csv")
        write_index_json(result, out / f"{method.value}.json")
    if audit is not None:
        write_pca_audit(audit, out / "pca_audit.json")
    print(f"computed {', '.join(m.value for m in results)} -> {out}")


def _write_comparison(args, report) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out / "report.json")
    write_report_csv(report, out / "report.csv")
    write_parallel_csv(report, out / "parallel.csv")
    write_parallel_svg(report, out / "parallel.svg")
    write_scatter_csv(report, out / "scatter.csv")
    for i, a in enumerate(report.methods):
        for b in report.methods[i + 1:]:
            print(f"pearson {a.value}:{b.value} = {report.pairwise_r[(a, b)]:.4f}")
    print(f"comparison artifacts -> {args.out}")


def cmd_compute(args) -> int:
    manifest, matrix = _load_inputs(args)
    _write_computed(args, *_compute_results(args, manifest, matrix, args.methods))
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.published:
        reference = datasets.load_reference_indexes(args.published)
        results = [reference[m] for m in (Method.ABREU, Method.DELPHI, Method.PCA)]
    else:
        _require_two_methods(args.methods)
        manifest, matrix = _load_inputs(args)
        _, computed, _ = _compute_results(args, manifest, matrix, args.methods)
        results = list(computed.values())
    _write_comparison(args, build_comparison(results))
    return EXIT_OK


def cmd_report(args) -> int:
    """Full pipeline in one pass: compute all requested methods, then compare them."""
    _require_two_methods(args.methods)
    manifest, matrix = _load_inputs(args)
    records, computed, audit = _compute_results(args, manifest, matrix, args.methods)
    report = build_comparison(list(computed.values()))
    _write_computed(args, records, computed, audit)
    _write_comparison(args, report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexforge",
        description="Composite-index construction over a regions-by-indicators dataset.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    default_data = str(datasets.data_path(datasets.DATASET_FILE))
    default_manifest = str(datasets.data_path(datasets.MANIFEST_FILE))

    def add_common(sub, with_methods: bool = True):
        sub.add_argument("--data", default=default_data, help="dataset CSV/JSON path")
        sub.add_argument("--manifest", default=default_manifest, help="manifest CSV path")
        sub.add_argument("--json", action="store_true", help="machine-readable diagnostics")
        if with_methods:
            sub.add_argument(
                "--methods",
                type=_parse_methods,
                default=[Method.ABREU, Method.DELPHI, Method.PCA],
                help="comma-separated subset of abreu,delphi,pca or 'all'",
            )
            sub.add_argument("--weights", help="weight override CSV (scope,id,weight)")
            sub.add_argument("--out", default="out", help="output directory")

    p_validate = subparsers.add_parser("validate", help="check manifest and dataset")
    add_common(p_validate, with_methods=False)
    p_validate.set_defaults(func=cmd_validate)

    p_compute = subparsers.add_parser("compute", help="compute index methods")
    add_common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_compare = subparsers.add_parser("compare", help="cross-method comparison report")
    add_common(p_compare)
    p_compare.add_argument(
        "--published",
        nargs="?",
        const=str(datasets.data_path(datasets.REFERENCE_FILE)),
        help="compare reference index columns from this CSV instead of recomputing",
    )
    p_compare.set_defaults(func=cmd_compare)

    p_report = subparsers.add_parser("report", help="compute and compare in one run")
    add_common(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
