from __future__ import annotations

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
    read_parallel_csv,
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


class TestParallelCoordinates:
    def test_csv_shape_and_round_trip(self, tmp_path, reference_triple):
        path = tmp_path / "parallel.csv"
        write_parallel_csv(reference_triple, path)
        polylines = read_parallel_csv(path)
        assert len(polylines) == 9
        for region, vertices in polylines.items():
            assert len(vertices) == 3
            for (method_name, value), result in zip(vertices, reference_triple):
                assert method_name == result.method.value
                assert value == pytest.approx(result.rescaled_index[region], abs=1e-9)

    def test_svg_contents(self, tmp_path, reference_triple):
        path = tmp_path / "parallel.svg"
        write_parallel_svg(reference_triple, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.count("<polyline") == 9
        assert text.count("<line") == 3
        assert "abreu" in text and "delphi" in text and "pca" in text
        assert "Região Autónoma da Madeira" in text

    def test_vertices_within_axis_bounds(self, tmp_path, reference_triple):
        path = tmp_path / "parallel.csv"
        write_parallel_csv(reference_triple, path)
        for vertices in read_parallel_csv(path).values():
            for _, value in vertices:
                assert 0.0 <= value <= 1.0


def test_scatter_csv(tmp_path, reference_triple):
    path = tmp_path / "scatter.csv"
    write_scatter_csv(reference_triple, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method_x,method_y,region,x,y"
    # 3 unordered pairs x 9 regions
    assert len(lines) == 1 + 3 * 9
