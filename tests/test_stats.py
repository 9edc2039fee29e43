from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
import tracemalloc
from itertools import combinations
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexforge import stats
from indexforge.aggregate import IndexResult
from indexforge.errors import (
    ConstantVectorError,
    DuplicateRegionError,
    FewerThanTwoMethodsError,
    LengthMismatchError,
    RegionSetMismatchError,
    TooShortError,
)
from indexforge.model import Method
from indexforge.normalize import DegenerateColumnWarning
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
        report = build_comparison(reference_triple)
        pca_order = report.rankings[report.names.index("pca")]
        assert pca_order.index("Região de Coimbra") == 4
        assert pca_order.index("Alto Minho") == 3

    def test_single_method_two_regions(self):
        result = IndexResult(Method.ABREU, ("a", "b"), [0.2, 0.9])
        assert result.ranking == ("b", "a")

    def test_region_set_mismatch(self, reference_triple):
        other = IndexResult(Method.PCA, ("x", "y"), [0.1, 0.9])
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


def merge_count(values: list[int]) -> tuple[int, list[int]]:
    """Inversions of ``values`` by merge sort (Knight 1966), and ``values`` sorted."""
    if len(values) < 2:
        return 0, list(values)
    left_count, left = merge_count(values[: len(values) // 2])
    right_count, right = merge_count(values[len(values) // 2:])
    count, merged, i = left_count + right_count, [], 0
    for value in right:
        while i < len(left) and left[i] < value:
            merged.append(left[i])
            i += 1
        count += len(left) - i  # every left value still waiting is larger
        merged.append(value)
    return count, merged + left[i:]


#: Ranking lengths around the block kernel's edges: every n < 4, each square
#: of a block width w = 2..5 and its neighbours, and the width cap of 128:
#: 16,128 and 16,129 = 127**2 use w = 127, 16,130 is the first at w = 128 and
#: 16,385 lies past 128**2.
#: Sizes at the kernel's edges: block widths, the width cap of 128, and the
#: first step boundary of the comparisons (32,768) and of the histogram (131,072).
KERNEL_EDGES = [0, 1, 2, 3] + [w * w + d for w in range(2, 6) for d in (-1, 0, 1)] + [
    16_128, 16_129, 16_130, 16_385, 32_768, 32_769, 131_072, 131_073,
]


class TestCrossingsKernel:
    @pytest.mark.parametrize("n", KERNEL_EDGES)
    def test_matches_merge_count_oracle(self, n):
        rng = np.random.default_rng(2900 + n)
        labels = [f"r{i}" for i in range(n)]
        for _ in range(3):
            rank_a = tuple(labels[i] for i in rng.permutation(n))
            rank_b = tuple(labels[i] for i in rng.permutation(n))
            pos_b = {region: i for i, region in enumerate(rank_b)}
            assert crossings(rank_a, rank_b) == merge_count([pos_b[r] for r in rank_a])[0]

    def test_reversed_100k_counts_every_pair(self):
        n = 100_000
        ranking = tuple(f"r{i}" for i in range(n))
        assert crossings(ranking, ranking[::-1]) == n * (n - 1) // 2 == 4_999_950_000

    @pytest.mark.parametrize("n", [2, 3, 25, 26, 100, 101, 1_000])
    @pytest.mark.parametrize("cells", [(1, 1), (200, 30)])
    def test_small_steps_match_merge_count_oracle(self, n, cells, monkeypatch):
        # Steps of one block and bucket, or of a few, so that n falls on either
        # side of many step boundaries.
        monkeypatch.setattr(stats, "_COMPARE_CELLS", cells[0])
        monkeypatch.setattr(stats, "_HISTOGRAM_CELLS", cells[1])
        rng = np.random.default_rng(3000 + n)
        for _ in range(3):
            perm = rng.permutation(n)
            assert stats._inversions(perm.astype(np.int32)) == merge_count(perm.tolist())[0]

    @staticmethod
    def traced_peak(n: int) -> int:
        """Peak traced memory of ``crossings`` on two random rankings of n regions."""
        rng = np.random.default_rng(29)
        labels = [f"r{i}" for i in range(n)]
        rank_a = tuple(labels[i] for i in rng.permutation(n))
        rank_b = tuple(labels[i] for i in rng.permutation(n))
        tracemalloc.start()
        try:
            crossings(rank_a, rank_b)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_at_100k_stays_under_64_mb(self):
        # A quadratic kernel would need gigabytes here.
        assert self.traced_peak(100_000) < 64 * 2**20

    def test_peak_memory_at_300k_stays_under_64_mb(self):
        # Past 131,072 regions the histogram is summed in steps, so the peak
        # grows with n, not n**2 (about 147 MB here without steps).
        assert self.traced_peak(300_000) < 64 * 2**20

    @pytest.mark.parametrize(
        "rank_a, rank_b, message",
        [
            (("a", "b", "c"), ("a", "b"), "rankings have different lengths (3 vs 2)"),
            (("a", "a", "b"), ("a", "b"), "rankings have different lengths (3 vs 2)"),
            (("a", "x"), ("a", "b", "c"), "rankings have different lengths (2 vs 3)"),
            (("a", "a", "b"), ("a", "b", "c"), "a ranking lists a region more than once"),
            (("a", "b", "c"), ("a", "b", "b"), "a ranking lists a region more than once"),
            (("a", "a", "x"), ("a", "b", "c"), "a ranking lists a region more than once"),
            (("a", "b", "x"), ("a", "a", "b"), "a ranking lists a region more than once"),
            (("a", "b"), ("a", "c"), "rankings cover different region sets"),
            (("x", "y", "z"), ("a", "b", "c"), "rankings cover different region sets"),
        ],
        ids=[
            "longer-a", "longer-a-with-repeat", "longer-b-with-foreign", "repeat-in-a",
            "repeat-in-b", "repeat-in-a-and-foreign", "repeat-in-b-and-foreign", "foreign",
            "disjoint",
        ],
    )
    def test_error_messages_and_their_order(self, rank_a, rank_b, message):
        with pytest.raises(RegionSetMismatchError, match=f"^{re.escape(message)}$"):
            crossings(rank_a, rank_b)


class TestComparisonReport:
    def test_pairwise_block(self, reference_triple):
        report = build_comparison(reference_triple)
        assert report.names == ("abreu", "delphi", "pca")
        abreu, delphi = report.names.index("abreu"), report.names.index("delphi")
        assert report.r[abreu, abreu] == 1.0
        assert report.r[abreu, delphi] == report.r[delphi, abreu]
        assert report.r[abreu, delphi] == pytest.approx(0.96, abs=0.005)
        with pytest.raises(ValueError):
            report.r[abreu, delphi] = 0.0

    def test_needs_two_methods(self, reference_triple):
        with pytest.raises(FewerThanTwoMethodsError):
            build_comparison(reference_triple[:1])

    def test_each_unordered_pair_compared_once(self, reference_triple, monkeypatch):
        calls, kernel = [], stats._inversions

        def counting_inversions(perm):
            calls.append(perm)
            return kernel(perm)

        monkeypatch.setattr(stats, "_inversions", counting_inversions)
        report = build_comparison(reference_triple)
        assert len(calls) == 3
        assert (report.crossings == report.crossings.T).all()
        assert (report.r == report.r.T).all()
        assert report.crossings[report.names.index("abreu"), report.names.index("pca")] == 5
        with pytest.raises(ValueError):
            report.crossings[0, 1] = 0

    def test_constant_column_named_before_any_pair(self, reference_triple, monkeypatch):
        regions = reference_triple[0].regions
        with pytest.warns(DegenerateColumnWarning, match="^column abreu is constant"):
            flat = IndexResult(Method.ABREU, regions, [0.0] * 9)
        assert flat.rescaled.tolist() == [0.5] * 9 and flat.ranking == tuple(sorted(regions))
        pairs = []
        monkeypatch.setattr(stats, "pearson", lambda x, y: pairs.append((x, y)) or 0.0)
        with pytest.raises(ConstantVectorError, match="index 'abreu' is constant"):
            build_comparison([reference_triple[1], reference_triple[2], flat])
        assert pairs == []

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


class TestPositionalCrossings:
    """``build_comparison`` counts crossings on rank positions; label ``crossings``
    on the results' rankings is the oracle."""

    @pytest.mark.parametrize("layout", ["one-tuple", "equal-tuples", "permuted"])
    def test_matrix_equals_label_crossings_on_each_pair(self, layout):
        rng = np.random.default_rng(3200 + len(layout))
        for n in (2, 3, 9, 40, 1_200):
            regions = tuple(f"r{i}" for i in rng.permutation(n))
            results = []
            for k, method in enumerate(Method):
                raw = rng.normal(size=n)
                raw[::3] = raw[0]  # ties, broken by label
                order = rng.permutation(n) if layout == "permuted" and k else np.arange(n)
                labels = regions if layout == "one-tuple" else [regions[i] for i in order]
                results.append(IndexResult(method, labels, raw[order]))
            if layout == "permuted" and n > 3:
                assert results[1].regions != results[0].regions
            report = build_comparison(results)
            assert report.regions == results[0].regions
            for i, j in combinations(range(3), 2):
                expected = crossings(results[i].ranking, results[j].ranking)
                assert report.crossings[i, j] == report.crossings[j, i] == expected, (n, i, j)

    @pytest.mark.parametrize(
        "regions_a, regions_b, error, message",
        [
            (("a", "b", "c"), ("a", "b", "d"), RegionSetMismatchError,
             "method 'delphi' covers a different region set"),
            (("a", "b", "c"), ("a", "b"), RegionSetMismatchError,
             "method 'delphi' covers a different region set"),
            # A repeated region is rejected where its result is built.
            (("a", "b", "c"), ("c", "b", "a", "a"), DuplicateRegionError,
             "region 'a' appears more than once"),
            (("a", "a", "b"), ("a", "b"), DuplicateRegionError,
             "region 'a' appears more than once"),
            (("a", "a", "b"), ("a", "a", "b"), DuplicateRegionError,
             "region 'a' appears more than once"),
            (("a", "a", "b"), ("b", "b", "a"), DuplicateRegionError,
             "region 'a' appears more than once"),
        ],
        ids=["different-set", "subset", "longer-b", "repeat-in-a-longer", "shared-repeat",
             "repeats-in-both"],
    )
    def test_rejected_region_sets_before_any_pair(self, regions_a, regions_b, error, message,
                                                  monkeypatch):
        pairs = []
        monkeypatch.setattr(stats, "_inversions", lambda perm: pairs.append(perm) or 0)
        monkeypatch.setattr(stats, "pearson", lambda x, y: pairs.append((x, y)) or 0.0)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_comparison([
                IndexResult(Method.ABREU, regions_a, np.arange(len(regions_a))),
                IndexResult(Method.DELPHI, regions_b, np.arange(len(regions_b))),
            ])
        assert pairs == []


#: The engine's fit to the published Table 3 on the bundled data, per method:
#: max abs diff (and its region), mean abs diff, discordant pairs, Pearson r.
#: Table 3 prints two decimals, so 0.005 is all that rounding explains; the
#: README section "Where the engine differs from Table 3" discusses the rest.
TABLE3_FIT = {
    Method.ABREU: (0.004665, "Alto Alentejo", 0.002065, 0, 0.999976),
    Method.DELPHI: (0.015245, "Algarve", 0.005555, 0, 0.999895),
    Method.PCA: (0.301606, "Região de Coimbra", 0.101771, 3, 0.930108),
}


@pytest.mark.parametrize("method", list(TABLE3_FIT), ids=lambda m: m.value)
def test_table3_fit_card(results_all, reference_results, method):
    engine, published = results_all[0][method], reference_results[method]
    max_diff, worst, mean_diff, discordant, r = TABLE3_FIT[method]
    diff = np.abs(engine.rescaled - published.rescaled_vector(engine.regions))
    assert diff.max() == pytest.approx(max_diff, abs=5e-5)
    assert engine.regions[int(diff.argmax())] == worst
    assert diff.mean() == pytest.approx(mean_diff, abs=5e-5)
    assert crossings(engine.ranking, published.ranking) == discordant
    assert pearson(engine.rescaled, published.rescaled_vector(engine.regions)) == pytest.approx(
        r, abs=5e-5
    )


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

    def test_svg_is_well_formed_for_every_label(self, tmp_path):
        """Each character XML 1.0 forbids is drawn as U+FFFD; markup, tab, LF and
        other text keep their meaning; the CSV artifact keeps the labels verbatim."""
        forbidden = [chr(c) for c in [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]]
        regions = [f"r{i}{char}x" for i, char in enumerate(forbidden)]
        regions += ["Alto\x01Minho", "tab\tlf\nend", "<&>\x00\x7f\x85\ufffd", "\U0001d11e"]
        results = [IndexResult(method, regions, np.arange(len(regions), dtype=float) * k)
                   for k, method in enumerate((Method.ABREU, Method.DELPHI), 1)]
        report = build_comparison(results)
        write_parallel_svg(report, tmp_path / "parallel.svg")
        write_parallel_csv(report, tmp_path / "parallel.csv")
        svg = ElementTree.parse(tmp_path / "parallel.svg").getroot()
        drawn = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")][-len(regions):]
        assert drawn == [f"r{i}\ufffdx" for i in range(len(forbidden))] + [
            "Alto\ufffdMinho", "tab\tlf\nend", "<&>\ufffd\x7f\x85\ufffd", "\U0001d11e"
        ]
        assert set(read_polylines(tmp_path / "parallel.csv")) == set(regions)

    def test_svg_is_well_formed_for_every_column_name(self, tmp_path, reference_triple):
        report = dataclasses.replace(build_comparison(reference_triple),
                                     names=("a<b", "x & y", "c\x01d"))
        write_parallel_svg(report, tmp_path / "parallel.svg")
        svg = ElementTree.parse(tmp_path / "parallel.svg").getroot()
        drawn = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert drawn[0:9:3] == ["a<b", "x & y", "c\ufffdd"]

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
    names = report.names
    payload = {
        "methods": list(names),
        "regions": list(report.regions),
        "pairwise_r": {
            f"{a}:{b}": float(report.r[i, j])
            for i, a in enumerate(names) for j, b in enumerate(names)
        },
        "crossings": {
            f"{a}:{b}": int(report.crossings[i, j])
            for i, a in enumerate(names) for j, b in enumerate(names)
        },
        "per_method_stats": {name: vars(s) for name, s in zip(names, report.stats)},
        "rankings": {name: list(ranking) for name, ranking in zip(names, report.rankings)},
    }
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def reference_report_csv(report):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    names, k = report.names, len(report.names)
    writer.writerow(["block", "key", *names])
    for i, a in enumerate(names):
        writer.writerow(["pearson", a] + [f"{report.r[i, j]:.6f}" for j in range(k)])
    for i, a in enumerate(names):
        writer.writerow(["crossings", a] + [str(report.crossings[i, j]) for j in range(k)])
    for name in ["min", "q1", "median", "q3", "max", "iqr", "mean", "sd"]:
        writer.writerow(["stats", name] + [f"{getattr(s, name):.6f}" for s in report.stats])
    for position in range(len(report.regions)):
        writer.writerow(
            ["ranking", str(position + 1)] + [ranking[position] for ranking in report.rankings]
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
            IndexResult(method, [regions[i] for i in order], raw[order])
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
