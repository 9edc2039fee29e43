from __future__ import annotations

import csv
import io
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexforge import stats
from indexforge.aggregate import build_index_result
from indexforge.errors import (
    ConstantVectorError,
    FewerThanTwoMethodsError,
    LengthMismatchError,
    RegionSetMismatchError,
    TooShortError,
)
from indexforge.model import Method
from indexforge.stats import (
    build_comparison,
    crossings,
    describe,
    pearson,
    write_parallel_csv,
    write_parallel_svg,
    write_report_csv,
    write_report_json,
    write_scatter_csv,
)

from conftest import REGIONS, REFERENCE_ABREU, REFERENCE_DELPHI, REFERENCE_PCA


class TestPearson:
    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(x, 2.0 * x + 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_columns(self):
        assert pearson(REFERENCE_ABREU, REFERENCE_DELPHI) == pytest.approx(0.96, abs=0.005)
        assert pearson(REFERENCE_ABREU, REFERENCE_PCA) == pytest.approx(0.86, abs=0.005)
        assert pearson(REFERENCE_DELPHI, REFERENCE_PCA) == pytest.approx(0.80, abs=0.005)

    def test_reference_columns_frozen_precise(self):
        assert pearson(REFERENCE_ABREU, REFERENCE_DELPHI) == pytest.approx(
            0.9625245439560643, abs=1e-12
        )
        assert pearson(REFERENCE_ABREU, REFERENCE_PCA) == pytest.approx(
            0.8588232337651908, abs=1e-12
        )
        assert pearson(REFERENCE_DELPHI, REFERENCE_PCA) == pytest.approx(
            0.7990806765204214, abs=1e-12
        )

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            pearson([1, 2, 3], [1, 2])
        with pytest.raises(ConstantVectorError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(TooShortError):
            pearson([1], [2])

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            r = pearson(x, y)
            assert abs(r) <= 1.0
            assert pearson(y, x) == pytest.approx(r, abs=1e-14)
            a, b = rng.uniform(0.01, 10), rng.uniform(-5, 5)
            assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-10)
            assert pearson(-x, y) == pytest.approx(-r, abs=1e-10)


class TestDescribe:
    def test_reference_delphi_column(self):
        stats = describe(REFERENCE_DELPHI)
        assert stats.q1 == pytest.approx(0.11, abs=0.005)
        assert stats.q3 == pytest.approx(0.84, abs=0.005)
        assert stats.iqr == pytest.approx(0.73, abs=0.005)
        assert stats.sd == pytest.approx(0.41, abs=0.005)

    def test_reference_abreu_and_pca(self):
        assert describe(REFERENCE_ABREU).mean == pytest.approx(0.49, abs=0.005)
        assert describe(REFERENCE_PCA).median == pytest.approx(0.27, abs=1e-12)

    def test_two_point_vector(self):
        stats = describe([0.0, 1.0])
        assert stats.min == 0.0
        assert stats.max == 1.0
        assert stats.median == pytest.approx(0.5)
        assert stats.sd == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_whiskers_and_ordering(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            data = rng.normal(size=int(rng.integers(2, 40)))
            stats = describe(data)
            assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max
            assert stats.iqr == pytest.approx(stats.q3 - stats.q1, abs=1e-14)
            assert stats.whisker_low == pytest.approx(stats.q1 - 1.5 * stats.iqr, abs=1e-12)
            assert stats.whisker_high == pytest.approx(stats.q3 + 1.5 * stats.iqr, abs=1e-12)

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(63)
        data = rng.normal(size=15)
        shuffled = data.copy()
        rng.shuffle(shuffled)
        base, other = describe(data), describe(shuffled)
        for field_name in ("min", "q1", "median", "q3", "max", "iqr", "mean", "sd"):
            assert getattr(other, field_name) == pytest.approx(
                getattr(base, field_name), abs=1e-12
            )

    def test_too_short(self):
        with pytest.raises(TooShortError):
            describe([1.0])

    def test_median_and_hinges_bitwise_equal_np_median(self):
        rng = np.random.default_rng(70)
        cases = [
            [0.3, 0.1, 0.2],
            [0.4, 0.1, 0.3, 0.2],
            [0.1, 0.2],
            [0.5, 0.5, 0.5, 0.1, 0.9],
            [0.5, 0.5, 0.1, 0.9, 0.9, 0.9],
            [-0.0, -0.0],
            [-0.0, 0.0],
            [0.0, -0.0, 1.0],
            [-0.0, -0.0, -0.0, 0.0, 1.0, 1.0],
            [-0.0, -0.0, -0.0, 0.5, 0.5, 1.0, 1.0],
        ]
        # One-decimal normals: odd and even lengths, ties and -0.0.
        cases += [np.round(rng.normal(size=n), 1).tolist() for n in range(2, 26)]
        for values in cases:
            ordered = np.sort(values)
            half = (ordered.size + 1) // 2
            expected = np.array([
                np.median(ordered[:half]), np.median(ordered), np.median(ordered[ordered.size - half:])
            ])
            got = describe(values)
            assert np.array([got.q1, got.median, got.q3]).tobytes() == expected.tobytes(), values


@pytest.fixture()
def reference_triple(reference_results):
    return [
        reference_results[Method.ABREU],
        reference_results[Method.DELPHI],
        reference_results[Method.PCA],
    ]


class TestRankTable:
    def test_reference_abreu_order(self, reference_triple):
        assert reference_triple[0].ranking == (
            "Região Autónoma da Madeira",
            "Algarve",
            "Região de Coimbra",
            "Região Autónoma dos Açores",
            "Alentejo Litoral",
            "Alto Minho",
            "Alto Alentejo",
            "Beiras e Serra da Estrela",
            "Terras de Trás-os-Montes",
        )

    def test_reference_pca_puts_coimbra_fifth(self, reference_triple):
        pca_order = build_comparison(reference_triple).rankings[Method.PCA]
        assert pca_order.index("Região de Coimbra") == 4
        assert pca_order.index("Alto Minho") == 3

    def test_single_method_two_regions(self):
        result = build_index_result(Method.ABREU, ("a", "b"), [0.2, 0.9])
        assert result.ranking == ("b", "a")

    def test_region_set_mismatch(self, reference_triple):
        other = build_index_result(Method.PCA, ("x", "y"), [0.1, 0.9])
        with pytest.raises(RegionSetMismatchError):
            build_comparison([reference_triple[0], other])


class TestCrossings:
    def test_identical_rankings(self):
        ranking = tuple("abcdefghi")
        assert crossings(ranking, ranking) == 0

    def test_fully_reversed(self):
        ranking = tuple("abcdefghi")
        assert crossings(ranking, ranking[::-1]) == 36

    def test_reference_counts(self, reference_triple):
        abreu, delphi, pca = (r.ranking for r in reference_triple)
        # Frozen from a brute-force pair enumeration oracle.
        assert crossings(abreu, delphi) == 4
        assert crossings(abreu, pca) == 5
        assert crossings(abreu, delphi) < crossings(abreu, pca)

    def test_matches_bruteforce_oracle_random(self):
        rng = np.random.default_rng(64)
        labels = [f"r{i}" for i in range(8)]
        for _ in range(50):
            a = list(labels)
            b = list(labels)
            rng.shuffle(a)
            rng.shuffle(b)
            pos_a = {x: i for i, x in enumerate(a)}
            pos_b = {x: i for i, x in enumerate(b)}
            expected = sum(
                1
                for i in range(8)
                for j in range(i + 1, 8)
                if (pos_a[labels[i]] - pos_a[labels[j]])
                * (pos_b[labels[i]] - pos_b[labels[j]])
                < 0
            )
            assert crossings(tuple(a), tuple(b)) == expected

    def test_mismatched_sets(self):
        with pytest.raises(RegionSetMismatchError):
            crossings(("a", "b"), ("a", "c"))

    @pytest.mark.parametrize(
        "rank_a, rank_b",
        [
            (("a", "b", "c"), ("a", "b")),
            (("a", "b"), ("a", "b", "c")),
            (("a", "a", "b"), ("a", "b")),
            (("a", "b"), ("a", "a", "b")),
            (("a", "a", "b"), ("a", "b", "b")),
        ],
        ids=["longer-a", "longer-b", "repeat-in-a", "repeat-in-b", "repeats-same-length"],
    )
    def test_rejects_length_mismatch_and_repeated_labels(self, rank_a, rank_b):
        with pytest.raises(RegionSetMismatchError):
            crossings(rank_a, rank_b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 60).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        )
    )
    def test_matches_pair_enumeration_property(self, orders):
        order_a, order_b = orders
        rank_a = tuple(f"r{i}" for i in order_a)
        rank_b = tuple(f"r{i}" for i in order_b)
        pos_b = {region: i for i, region in enumerate(rank_b)}
        n = len(rank_a)
        expected = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if pos_b[rank_a[i]] > pos_b[rank_a[j]]
        )
        assert crossings(rank_a, rank_b) == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_rankings(self, n):
        ranking = tuple(f"r{i}" for i in range(n))
        assert crossings(ranking, ranking) == 0
        assert crossings(ranking, ranking[::-1]) == n * (n - 1) // 2

    def test_large_identity_and_reversal(self):
        n = 30_000
        ranking = tuple(f"r{i}" for i in range(n))
        assert crossings(ranking, ranking) == 0
        assert crossings(ranking, ranking[::-1]) == n * (n - 1) // 2 == 449_985_000

    def test_large_shuffle_matches_quadratic_numpy_reference(self):
        rng = np.random.default_rng(65)
        n = 3_000
        labels = np.array([f"r{i}" for i in range(n)])
        rank_a = tuple(labels[rng.permutation(n)])
        rank_b = tuple(labels[rng.permutation(n)])
        pos_b = {region: i for i, region in enumerate(rank_b)}
        b = np.array([pos_b[region] for region in rank_a])
        expected = int(np.triu(b[:, None] > b[None, :], k=1).sum())
        assert crossings(rank_a, rank_b) == expected


class TestComparisonReport:
    def test_pairwise_block(self, reference_triple):
        report = build_comparison(reference_triple)
        assert report.r(Method.ABREU, Method.ABREU) == 1.0
        assert report.r(Method.ABREU, Method.DELPHI) == report.r(Method.DELPHI, Method.ABREU)
        assert report.r(Method.ABREU, Method.DELPHI) == pytest.approx(0.96, abs=0.005)

    def test_needs_two_methods(self, reference_triple):
        with pytest.raises(FewerThanTwoMethodsError):
            build_comparison(reference_triple[:1])

    def test_each_unordered_pair_compared_once(self, reference_triple, monkeypatch):
        calls = []

        def counting_crossings(rank_a, rank_b):
            calls.append((rank_a, rank_b))
            return crossings(rank_a, rank_b)

        monkeypatch.setattr(stats, "crossings", counting_crossings)
        report = build_comparison(reference_triple)
        assert len(calls) == 3
        for a in report.methods:
            for b in report.methods:
                assert report.crossings[(a, b)] == report.crossings[(b, a)]
                assert report.pairwise_r[(a, b)] == report.pairwise_r[(b, a)]
        assert report.crossings[(Method.ABREU, Method.PCA)] == 5

    def test_report_files(self, tmp_path, reference_triple):
        report = build_comparison(reference_triple)
        write_report_json(report, tmp_path / "report.json")
        write_report_csv(report, tmp_path / "report.csv")
        import json

        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert payload["pairwise_r"]["abreu:delphi"] == pytest.approx(0.9625, abs=1e-4)
        assert payload["per_method_stats"]["delphi"]["iqr"] == pytest.approx(0.73, abs=1e-9)
        lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "block,key,abreu,delphi,pca"


def read_polylines(path):
    """Re-parse a polyline CSV into region -> [(method, value), ...]."""
    polylines = {}
    with path.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            polylines.setdefault(row["region"], []).append((row["method"], float(row["value"])))
    return polylines


class TestParallelCoordinates:
    def test_csv_shape_and_round_trip(self, tmp_path, reference_triple):
        path = tmp_path / "parallel.csv"
        write_parallel_csv(build_comparison(reference_triple), path)
        polylines = read_polylines(path)
        assert len(polylines) == 9
        for region, vertices in polylines.items():
            assert len(vertices) == 3
            for (method_name, value), result in zip(vertices, reference_triple):
                assert method_name == result.method.value
                assert value == pytest.approx(result.rescaled_index[region], abs=1e-9)

    def test_svg_contents(self, tmp_path, reference_triple):
        path = tmp_path / "parallel.svg"
        write_parallel_svg(build_comparison(reference_triple), path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.count("<polyline") == 9
        assert text.count("<line") == 3
        assert "abreu" in text and "delphi" in text and "pca" in text
        assert "Região Autónoma da Madeira" in text

    def test_vertices_within_axis_bounds(self, tmp_path, reference_triple):
        path = tmp_path / "parallel.csv"
        write_parallel_csv(build_comparison(reference_triple), path)
        for vertices in read_polylines(path).values():
            for _, value in vertices:
                assert 0.0 <= value <= 1.0


def test_scatter_csv(tmp_path, reference_triple):
    path = tmp_path / "scatter.csv"
    write_scatter_csv(build_comparison(reference_triple), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method_x,method_y,region,x,y"
    # 3 unordered pairs x 9 regions
    assert len(lines) == 1 + 3 * 9


# -- per-row references for the comparison writers ---------------------------
# Each writes what the writer of the same name writes, one row or one region at
# a time from the results' region -> value views.

def reference_report_json(report):
    payload = {
        "methods": [m.value for m in report.methods],
        "regions": list(report.regions),
        "pairwise_r": {
            f"{a.value}:{b.value}": report.pairwise_r[(a, b)]
            for a in report.methods for b in report.methods
        },
        "crossings": {
            f"{a.value}:{b.value}": report.crossings[(a, b)]
            for a in report.methods for b in report.methods
        },
        "per_method_stats": {m.value: vars(report.per_method_stats[m]) for m in report.methods},
        "rankings": {m.value: list(report.rankings[m]) for m in report.methods},
    }
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def reference_report_csv(report):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["block", "key"] + [m.value for m in report.methods])
    for a in report.methods:
        writer.writerow(
            ["pearson", a.value] + [f"{report.pairwise_r[(a, b)]:.6f}" for b in report.methods]
        )
    for a in report.methods:
        writer.writerow(
            ["crossings", a.value] + [str(report.crossings[(a, b)]) for b in report.methods]
        )
    for name in ["min", "q1", "median", "q3", "max", "iqr", "mean", "sd"]:
        writer.writerow(
            ["stats", name]
            + [f"{getattr(report.per_method_stats[m], name):.6f}" for m in report.methods]
        )
    for position in range(len(report.regions)):
        writer.writerow(
            ["ranking", str(position + 1)] + [report.rankings[m][position] for m in report.methods]
        )
    return out.getvalue()


def reference_parallel_csv(results):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["region", "method", "axis", "value"])
    for region in results[0].regions:
        for axis, result in enumerate(results):
            writer.writerow(
                [region, result.method.value, axis, f"{result.rescaled_index[region]:.9f}"]
            )
    return out.getvalue()


def reference_scatter_csv(results):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["method_x", "method_y", "region", "x", "y"])
    for a, b in combinations(results, 2):
        for region in results[0].regions:
            writer.writerow([
                a.method.value, b.method.value, region,
                f"{a.rescaled_index[region]:.6f}", f"{b.rescaled_index[region]:.6f}",
            ])
    return out.getvalue()


def reference_parallel_svg(results):
    n_axes = len(results)

    def x_at(axis):
        return 60 + 600 * axis / (n_axes - 1)

    def y_at(value):
        return 60 + 360 * (1.0 - value)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="480" viewBox="0 0 720 480">',
        '<rect width="720" height="480" fill="white"/>',
    ]
    for axis, result in enumerate(results):
        x = x_at(axis)
        parts.append(
            f'<line x1="{x:.2f}" y1="{y_at(1.0):.2f}" x2="{x:.2f}" y2="{y_at(0.0):.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y_at(0.0) + 24:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{result.method.value}</text>'
        )
        for tick in (0.0, 1.0):
            parts.append(
                f'<text x="{x - 8:.2f}" y="{y_at(tick) + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{tick:.0f}</text>'
            )
    colors = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
              "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
    for i, region in enumerate(results[0].regions):
        color = colors[i % len(colors)]
        points = " ".join(
            f"{x_at(axis):.2f},{y_at(result.rescaled_index[region]):.2f}"
            for axis, result in enumerate(results)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        label = region.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{x_at(n_axes - 1) + 6:.2f}" '
            f'y="{y_at(results[-1].rescaled_index[region]) + 4:.2f}" '
            f'font-family="sans-serif" font-size="10" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


AWKWARD_STEMS = ("Região", "a,b", 'say "hi"', "line\nbreak", "A&B", "<x>", "é", "😀", "\U0001d11e",
                 "Zeta")


def awkward_results(n_methods, n=2000, shuffle_later=False):
    """Results over n awkward labels with tied values; later ones optionally reordered."""
    regions = [f"{AWKWARD_STEMS[i % len(AWKWARD_STEMS)]} {i}" for i in range(n)]
    rng = np.random.default_rng(66 + n_methods)
    results = []
    for k, method in enumerate((Method.ABREU, Method.DELPHI, Method.PCA)[:n_methods]):
        raw = rng.normal(size=n)
        raw[::40] = raw[0]  # ties within a method
        raw[1::97] = raw[1]
        order = rng.permutation(n) if (shuffle_later and k) else np.arange(n)
        results.append(
            build_index_result(method, [regions[i] for i in order], raw[order])
        )
    return results


class TestComparisonWriterBytes:
    """All five comparison artifacts against the per-row references above."""

    @pytest.mark.parametrize("n_methods", [2, 3])
    @pytest.mark.parametrize("shuffle_later", [False, True], ids=["same-order", "reordered"])
    def test_artifacts_match_per_row_references(self, tmp_path, n_methods, shuffle_later):
        results = awkward_results(n_methods, shuffle_later=shuffle_later)
        report = build_comparison(results)
        assert report.regions == results[0].regions
        if shuffle_later:
            assert results[1].regions != report.regions
        writers = {
            "report.json": (write_report_json, reference_report_json(report)),
            "report.csv": (write_report_csv, reference_report_csv(report)),
            "parallel.csv": (write_parallel_csv, reference_parallel_csv(results)),
            "parallel.svg": (write_parallel_svg, reference_parallel_svg(results)),
            "scatter.csv": (write_scatter_csv, reference_scatter_csv(results)),
        }
        for name, (writer, expected) in writers.items():
            writer(report, tmp_path / name)
            assert (tmp_path / name).read_bytes() == expected.encode("utf-8"), name

    def test_values_table_is_aligned_and_read_only(self):
        results = awkward_results(3, n=50, shuffle_later=True)
        report = build_comparison(results)
        assert report.values.shape == (50, 3)
        for j, result in enumerate(results):
            assert report.values[:, j].tolist() == [
                result.rescaled_index[region] for region in report.regions
            ]
        with pytest.raises(ValueError):
            report.values[0, 0] = 0.5
