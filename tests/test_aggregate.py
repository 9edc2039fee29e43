from __future__ import annotations

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from indexforge.aggregate import (
    IndexResult,
    compute_abreu,
    compute_delphi,
    geometric_mean,
    pillar_arithmetic_means,
    rank_order,
    rank_regions,
    write_index_csv,
    write_index_json,
)
from indexforge.datasets import load_reference_indexes
from indexforge.model import (
    DEFAULT_PILLAR_WEIGHTS,
    PILLARS,
    Direction,
    IndicatorMatrix,
    IndicatorSpec,
    Manifest,
    Method,
    Pillar,
    Stage,
    WeightScheme,
    build_weight_scheme,
)
from indexforge.normalize import DegenerateColumnWarning, normalize_column, normalize_matrix
from indexforge.pca import compute_pca
from indexforge.stats import pearson
from indexforge.errors import NegativeInputError, WeightManifestMismatchError

from conftest import REGIONS, REFERENCE_ABREU, edge_vector, random_dataset, recorded_warnings

# Engine outputs for the bundled dataset, frozen from an independent
# spreadsheet-style recomputation (6 decimals).
FROZEN_ABREU_RAW = (
    0.315072, 0.205543, 0.460508, 0.221835, 0.326417,
    0.259477, 0.513313, 0.445626, 0.531755,
)
FROZEN_ABREU_RESCALED = (
    0.335761, 0.0, 0.781594, 0.049943, 0.37054,
    0.165335, 0.943466, 0.735974, 1.0,
)
FROZEN_DELPHI_RESCALED = (
    0.118047, 0.108236, 0.894207, 0.008832, 0.378768,
    0.0, 0.855245, 0.734425, 1.0,
)


def reference_rank_regions(regions, rescaled):
    """The string-lexsort ranking ``rank_regions`` must match.

    numpy compares its fixed-width strings without trailing NUL characters,
    so the two differ only for labels that differ by trailing NULs alone.
    """
    order = np.lexsort((np.array(regions, dtype=str), -np.asarray(rescaled, dtype=float)))
    return tuple(np.array(regions, dtype=object)[order])


class TestRankRegions:
    """Descending value, ties by code-point label order, as the lexsort reference."""

    STEMS = ("Região", "Açores", "Zeta", "alpha", "ALPHA", "e\u0301", "é", "\uff21", "😀",
             "𝔘", "a,b", "", " ")

    @classmethod
    def labels(cls, n, rng):
        return rng.permutation([f"{cls.STEMS[i % len(cls.STEMS)]}{i}" for i in range(n)]).tolist()

    def assert_matches_reference(self, regions, values):
        got = rank_regions(regions, values)
        assert got == reference_rank_regions(regions, values)
        assert type(got) is tuple and all(type(label) is str for label in got)

    @pytest.mark.parametrize("decimals", [0, 1, 2])
    def test_rounded_ties(self, decimals):
        rng = np.random.default_rng(61 + decimals)
        for n in (3, 40, 700):
            values = np.round(rng.uniform(size=n), decimals)
            self.assert_matches_reference(self.labels(n, rng), values)

    def test_all_equal(self):
        rng = np.random.default_rng(62)
        for n in (2, 3, 13, 500):
            regions = self.labels(n, rng)
            self.assert_matches_reference(regions, np.full(n, 0.5))
            assert rank_regions(regions, np.zeros(n)) == tuple(sorted(regions))

    def test_negative_and_positive_zero_tie(self):
        regions = ["d", "b", "e", "a", "c", "f"]
        values = [0.0, -0.0, 1.0, -0.0, 0.0, -1.0]
        self.assert_matches_reference(regions, values)
        assert rank_regions(regions, values) == ("e", "a", "b", "c", "d", "f")

    def test_one_and_two_regions(self):
        self.assert_matches_reference(["only"], [0.3])
        for values in ([0.0, 1.0], [1.0, 0.0], [0.5, 0.5]):
            for regions in (["b", "a"], ["a", "b"]):
                self.assert_matches_reference(regions, values)

    def test_non_ascii_and_non_bmp_labels(self):
        regions = ["é", "e\u0301", "😀", "𝔘", "\uff21", "Z", "a", "Açores", "Região", "ÿ"]
        for values in (np.zeros(len(regions)), np.arange(len(regions)) % 3):
            self.assert_matches_reference(regions, values)
            self.assert_matches_reference(regions[::-1], values[::-1])

    @pytest.mark.parametrize("decimals", [None, 3])
    def test_seeded_shuffle_at_scale(self, decimals):
        rng = np.random.default_rng(63)
        n = 30_000
        regions = [f"R{i:05d}" for i in rng.permutation(n)]
        values = rng.uniform(size=n)
        if decimals is not None:
            values = np.round(values, decimals)  # about 30 regions per tied value
        self.assert_matches_reference(regions, values)

    def test_trailing_nul_labels_in_code_point_order(self):
        # The one input where the lexsort reference differs: numpy drops the NUL.
        for regions in (["a\x00", "a"], ["a", "a\x00"]):
            assert rank_regions(regions, [0.5, 0.5]) == ("a", "a\x00")


class TestRankOrder:
    """``rank_order`` and ``IndexResult.order``: positions whose labels are the ranking."""

    CASES = {
        "tied": (["d", "b", "e", "a", "c", "f"], [0.5, 0.5, 1.0, 0.5, 0.5, 0.0]),
        "signed-zero": (["d", "b", "e", "a", "c", "f"], [0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
        "non-bmp": (["😀", "𝔘", "\uff21", "é", "e\u0301", "Z", "a"],
                    [1.0, 1.0, 0.0, 0.0, 1.0, 0.5, 0.5]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_positions_index_the_ranking(self, case):
        regions, values = self.CASES[case]
        order = rank_order(regions, values)
        assert sorted(order.tolist()) == list(range(len(regions)))
        assert tuple(regions[i] for i in order) == reference_rank_regions(regions, values)
        result = IndexResult(Method.PCA, regions, values)
        assert tuple(result.regions[i] for i in result.order) == result.ranking
        assert result.ranking == reference_rank_regions(regions, result.rescaled)
        with pytest.raises(ValueError, match="read-only"):
            result.order[0] = result.order[1]

    def test_signed_zeros_tie(self):
        regions, values = self.CASES["signed-zero"]
        order = rank_order(regions, values)
        assert tuple(regions[i] for i in order) == ("e", "a", "b", "c", "d", "f")


class TestPillarMeans:
    def test_all_ones_pillar_scores_one(self):
        manifest = Manifest(
            [IndicatorSpec(id=f"i{k}", label="", pillar=p) for k, p in enumerate(PILLARS)]
        )
        matrix = IndicatorMatrix(("a", "b"), manifest.ids, [[1, 1, 1, 1], [0, 0, 0, 0]])
        norm = IndicatorMatrix(("a", "b"), manifest.ids, matrix.values, stage=matrix.stage)
        normalized, _ = normalize_matrix(norm, manifest)
        means = pillar_arithmetic_means(normalized, manifest)
        assert means.shape == (2, len(PILLARS))
        assert means[0, PILLARS.index(Pillar.POPULATION)] == pytest.approx(1.0)

    def test_simple_arithmetic(self):
        specs = [IndicatorSpec(id=f"p{k}", label="", pillar=Pillar.POPULATION) for k in range(3)]
        specs += [IndicatorSpec(id=f"o{k}", label="", pillar=p) for k, p in enumerate(PILLARS[1:])]
        manifest = Manifest(specs)
        values = np.array([[0.2, 0.4, 0.6, 0.5, 0.5, 0.5], [1, 1, 1, 1, 1, 1]])
        normalized = IndicatorMatrix(("a", "b"), manifest.ids, values, stage=Stage.NORMALIZED)
        means = pillar_arithmetic_means(normalized, manifest)
        assert means[0].tolist() == pytest.approx([0.4, 0.5, 0.5, 0.5], abs=1e-12)

    def test_madeira_population_mean_hand_oracle(self, normalized, manifest):
        # Independent hand arithmetic over the bundled raw values.
        expected_cells = [
            (67.10 - 43.00) / (67.10 - 43.00),     # DmgDep, cost
            (30.27 - 16.98) / (30.27 - 14.94),     # Pop65, cost
            (13.11 - 9.90) / (15.37 - 9.90),       # Pop16
            (317.20 - 17.20) / (317.20 - 17.20),   # PopDens
            (-0.31 - -1.15) / (-0.06 - -1.15),     # NatInc
        ]
        expected = sum(expected_cells) / 5
        matrix, _ = normalized
        means = pillar_arithmetic_means(matrix, manifest)
        got = means[matrix.regions.index("Região Autónoma da Madeira"), 0]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.844881, abs=1e-6)


class TestGeometricMean:
    def test_symmetry(self):
        assert geometric_mean([0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.25, abs=1e-15)

    def test_zero_annihilates(self):
        assert geometric_mean([0.9, 0.9, 0.9, 0.0]) == 0.0
        rows = geometric_mean([[0.9, 0.0, 0.9, 0.9], [0.25, 0.25, 0.25, 0.25]])
        assert rows[0] == 0.0 and rows[1] == pytest.approx(0.25, abs=1e-15)

    def test_hand_computed(self):
        got = geometric_mean([0.1, 0.2, 0.4, 0.8])
        assert got == pytest.approx(0.28284, abs=1e-5)
        assert got == pytest.approx((0.1 * 0.2 * 0.4 * 0.8) ** 0.25, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInputError):
            geometric_mean([0.5, -0.1, 0.2, 0.3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])


def reference_final_rescale(raw) -> np.ndarray:
    """The final rescale with its own min-max code, before it ran through the kernel."""
    values = np.asarray(raw, dtype=float)
    if values.size < 2:
        raise ValueError("rescaling needs at least two regions")
    lo, hi = values.min(), values.max()
    if hi == lo:
        warnings.warn(
            "raw index is constant across regions; rescaled to 0.5",
            DegenerateColumnWarning,
            stacklevel=2,
        )
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def rescaled(raw, method: Method = Method.ABREU) -> np.ndarray:
    """The final rescale of ``raw``, as an ``IndexResult`` built from it derives it."""
    return IndexResult(method, [f"r{i}" for i in range(np.size(raw))], raw).rescaled


class TestRescaleFinal:
    """The final rescale of an ``IndexResult``: the kernel on one benefit column."""

    def test_bundled_endpoints(self, results_all):
        results, _ = results_all
        abreu = results[Method.ABREU]
        assert abreu.rescaled_index["Terras de Trás-os-Montes"] == 0.0
        assert abreu.rescaled_index["Região Autónoma da Madeira"] == 1.0

    def test_constant_input_maps_to_half(self):
        with pytest.warns(DegenerateColumnWarning) as caught:
            out = rescaled([5.0, 5.0, 5.0], Method.DELPHI)
        assert out.tolist() == [0.5, 0.5, 0.5]
        assert [str(w.message) for w in caught] == [
            "column delphi is constant; normalized to 0.5"
        ]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="column 'pca' contains non-finite values"):
            rescaled([0.0, bad, 1.0], Method.PCA)

    def test_matches_reference_bit_for_bit(self):
        """Seeded vectors with signed zeros, subnormals, magnitudes to 1e±300 and
        constants: the reference's bytes and warning category."""
        rng = np.random.default_rng(45)
        constants = 0
        for _ in range(3000):
            raw = edge_vector(rng, int(rng.integers(2, 300)))
            got, got_warnings = recorded_warnings(lambda: rescaled(raw))
            want, want_warnings = recorded_warnings(lambda: reference_final_rescale(raw))
            assert got.tobytes() == want.tobytes()
            assert [c for c, _ in got_warnings] == [c for c, _ in want_warnings]
            constants += bool(want_warnings)
        assert constants > 300

    def test_strictly_increasing_preserved(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            raw = np.sort(rng.normal(size=8))
            if np.any(np.diff(raw) == 0):
                continue
            out = rescaled(raw)
            assert np.all(np.diff(out) > 0)

    def test_order_preserved_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            raw = rng.normal(size=6)
            out = rescaled(raw)
            assert np.array_equal(np.argsort(-raw, kind="stable"), np.argsort(-out, kind="stable"))

    def test_needs_two_regions(self):
        with pytest.raises(ValueError, match="^rescaling needs at least two regions$"):
            rescaled([1.0])


def assert_derived(result: IndexResult) -> None:
    """``result`` holds the kernel's rescale of its raw vector, bit for bit, and its ranking."""
    want = normalize_column(result.raw, Direction.BENEFIT, result.method.value)[0]
    assert result.rescaled.tobytes() == want.tobytes(), result.method
    assert result.ranking == rank_regions(result.regions, result.rescaled), result.method
    assert tuple(result.regions[i] for i in result.order) == result.ranking, result.method
    assert not result.order.flags.writeable, result.method


class TestResultsDeriveWhatTheyHold:
    def test_every_producer(self, results_all):
        results, _ = results_all
        producers = [*results.values(), *load_reference_indexes().values()]
        rng = np.random.default_rng(31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant columns, factor caps
            for _ in range(20):
                manifest, matrix = random_dataset(rng)
                normalized, _ = normalize_matrix(matrix, manifest)
                producers += [
                    compute_abreu(normalized, manifest),
                    compute_delphi(normalized, manifest),
                    compute_pca(normalized, manifest)[0],
                ]
            for result in producers:
                assert_derived(result)

    def test_seeded_raw_vectors(self):
        rng = np.random.default_rng(32)
        methods = [*Method, *(method.value for method in Method)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateColumnWarning)
            for i in range(600):
                raw = edge_vector(rng, int(rng.integers(2, 40)))
                regions = [f"r{j}" for j in rng.permutation(raw.size)]
                result = IndexResult(methods[i % 6], regions, raw)
                assert result.method is Method(methods[i % 6])
                assert result.raw.tobytes() == raw.tobytes()
                assert_derived(result)


class TestComputeAbreu:
    def test_reproduces_reference_column(self, results_all):
        results, _ = results_all
        abreu = results[Method.ABREU]
        for region, expected in zip(REGIONS, REFERENCE_ABREU):
            assert abreu.rescaled_index[region] == pytest.approx(expected, abs=0.03)

    def test_matches_frozen_engine_values(self, results_all):
        results, _ = results_all
        abreu = results[Method.ABREU]
        for region, raw, rescaled in zip(REGIONS, FROZEN_ABREU_RAW, FROZEN_ABREU_RESCALED):
            assert abreu.raw_index[region] == pytest.approx(raw, abs=1e-6)
            assert abreu.rescaled_index[region] == pytest.approx(rescaled, abs=1e-6)

    def test_reference_ranking(self, results_all):
        results, _ = results_all
        assert results[Method.ABREU].ranking == (
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

    def test_two_region_dataset_endpoints(self):
        rng = np.random.default_rng(43)
        manifest, matrix = random_dataset(rng, n_regions=2)
        normalized, _ = normalize_matrix(matrix, manifest)
        result = compute_abreu(normalized, manifest)
        assert sorted(result.rescaled_index.values()) == [0.0, 1.0]

    def test_dominant_region_ranks_first(self):
        specs = [IndicatorSpec(id=f"i{k}", label="", pillar=p) for k, p in enumerate(PILLARS)]
        manifest = Manifest(specs)
        values = np.array([[4.0, 4, 4, 4], [3, 3, 3, 3], [1, 1, 1, 1]])
        matrix = IndicatorMatrix(("top", "mid", "low"), manifest.ids, values)
        normalized, _ = normalize_matrix(matrix, manifest)
        result = compute_abreu(normalized, manifest)
        assert result.ranking == ("top", "mid", "low")

    def test_ignores_manifest_weights(self, norm_matrix, manifest):
        reweighted = Manifest(
            [
                IndicatorSpec(
                    id=s.id, label=s.label, pillar=s.pillar,
                    direction=s.direction, weight=3.7 * (i + 1), unit=s.unit,
                )
                for i, s in enumerate(manifest.specs)
            ]
        )
        base = compute_abreu(norm_matrix, manifest)
        other = compute_abreu(norm_matrix, reweighted)
        assert base.raw_index == other.raw_index

    # A draw whose regions all take the same raw index rescales it to 0.5, with a warning.
    @pytest.mark.filterwarnings(
        "ignore:column abreu is constant:indexforge.normalize.DegenerateColumnWarning"
    )
    def test_matches_per_region_loop_reference(self):
        # Reference: the per-region loop with math.log/math.exp. Pillar means
        # sum in the same order and must be equal; the vectorized log/exp may
        # differ in the last bit, so the index gets a few ulps of float64.
        rng = np.random.default_rng(48)
        for _ in range(50):
            manifest, matrix = random_dataset(rng, n_indicators=int(rng.integers(4, 60)))
            normalized, _ = normalize_matrix(matrix, manifest)
            pillar_means = pillar_arithmetic_means(normalized, manifest)
            result = compute_abreu(normalized, manifest)
            for i, region in enumerate(normalized.regions):
                means = [float(normalized.columns(manifest.pillar_ids(p))[i].mean()) for p in PILLARS]
                assert pillar_means[i].tolist() == means
                expected = (
                    0.0 if 0.0 in means
                    else math.exp(sum(math.log(v) for v in means) / len(means))
                )
                assert result.raw_index[region] == pytest.approx(expected, rel=4e-16, abs=0)

    def test_amgm_and_zero_pillar_properties(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            manifest, matrix = random_dataset(rng)
            normalized, _ = normalize_matrix(matrix, manifest)
            means = pillar_arithmetic_means(normalized, manifest)
            result = compute_abreu(normalized, manifest)
            for region, pillar_values in zip(normalized.regions, means.tolist()):
                arithmetic = float(np.mean(pillar_values))
                assert result.raw_index[region] <= arithmetic + 1e-12
                if max(pillar_values) - min(pillar_values) > 1e-9:
                    assert result.raw_index[region] < arithmetic
                if any(v == 0.0 for v in pillar_values):
                    assert result.raw_index[region] == 0.0


class TestComputeDelphi:
    def test_matches_frozen_engine_values(self, results_all):
        results, _ = results_all
        delphi = results[Method.DELPHI]
        for region, rescaled in zip(REGIONS, FROZEN_DELPHI_RESCALED):
            assert delphi.rescaled_index[region] == pytest.approx(rescaled, abs=1e-6)

    def test_correlates_with_reference_column(self, results_all, reference_results):
        results, _ = results_all
        ours = results[Method.DELPHI].rescaled_vector(REGIONS)
        reference = reference_results[Method.DELPHI].rescaled_vector(REGIONS)
        assert pearson(ours, reference) >= 0.9

    def test_weight_collapse_to_global_mean(self):
        # Equal pillar weights, equal indicator weights, equal pillar sizes.
        specs = [
            IndicatorSpec(id=f"i{p.value}{k}", label="", pillar=p)
            for p in PILLARS
            for k in range(3)
        ]
        manifest = Manifest(specs)
        rng = np.random.default_rng(45)
        values = rng.uniform(size=(5, 12))
        normalized = IndicatorMatrix(
            tuple(f"r{i}" for i in range(5)), manifest.ids, values, stage=Stage.NORMALIZED
        )
        scheme = build_weight_scheme(manifest, {p: 1.0 for p in PILLARS})
        result = compute_delphi(normalized, manifest, scheme)
        for i, region in enumerate(normalized.regions):
            assert result.raw_index[region] == pytest.approx(values[i].mean(), abs=1e-12)

    def test_single_pillar_weight_isolates_pillar(self, norm_matrix, manifest):
        scheme = build_weight_scheme(
            manifest, {Pillar.ECONOMY: 1.0}
        )
        result = compute_delphi(norm_matrix, manifest, scheme)
        econ_ids = manifest.pillar_ids(Pillar.ECONOMY)
        for i, region in enumerate(norm_matrix.regions):
            expected = float(np.mean([norm_matrix.column(ind)[i] for ind in econ_ids]))
            assert result.raw_index[region] == pytest.approx(expected, abs=1e-12)

    def test_weight_scaling_invariance(self, norm_matrix, manifest):
        rng = np.random.default_rng(46)
        for _ in range(20):
            pw = {p: float(rng.uniform(0.1, 10)) for p in PILLARS}
            c = float(rng.uniform(0.01, 100))
            base = compute_delphi(norm_matrix, manifest, build_weight_scheme(manifest, pw))
            scaled = compute_delphi(
                norm_matrix, manifest,
                build_weight_scheme(manifest, {p: c * w for p, w in pw.items()}),
            )
            for region in norm_matrix.regions:
                assert scaled.raw_index[region] == pytest.approx(
                    base.raw_index[region], abs=1e-12
                )

    def test_convexity_bounds(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            manifest, matrix = random_dataset(rng)
            normalized, _ = normalize_matrix(matrix, manifest)
            pw = {p: float(rng.uniform(0.1, 5)) for p in PILLARS}
            result = compute_delphi(normalized, manifest, build_weight_scheme(manifest, pw))
            for i, region in enumerate(normalized.regions):
                row = normalized.values[i]
                assert row.min() - 1e-12 <= result.raw_index[region] <= row.max() + 1e-12

    def test_unknown_weight_ids_rejected(self, norm_matrix, manifest):
        bigger = Manifest(
            list(manifest.specs)
            + [IndicatorSpec(id="extra", label="", pillar=Pillar.ECONOMY)]
        )
        scheme = build_weight_scheme(bigger)
        with pytest.raises(WeightManifestMismatchError, match="differ on: extra$"):
            compute_delphi(norm_matrix, manifest, scheme)

    def test_scheme_without_a_pillar_rejected(self, norm_matrix, manifest):
        full = build_weight_scheme(manifest)
        pillars = {p: w for p, w in full.pillar_weights.items() if p is not Pillar.POPULATION}
        scheme = WeightScheme(pillars, full.indicator_weights, full.flat_weights)
        with pytest.raises(WeightManifestMismatchError, match="differ on: Population$"):
            compute_delphi(norm_matrix, manifest, scheme)

    def test_flat_weights_keep_the_two_level_bits(self, norm_matrix, manifest):
        """delphi through ``flat_weights`` has the bits of the product of the two
        levels per column, for the panel weighting and for random overrides."""
        rng = np.random.default_rng(47)
        overrides = {i: float(rng.uniform(0.1, 3)) for i in manifest.ids}
        pillars = {p: float(rng.uniform(0.1, 5)) for p in PILLARS}
        for scheme in (manifest.panel_weights, build_weight_scheme(manifest, pillars, overrides)):
            two_level = np.array([
                scheme.pillar_weights[manifest.spec(i).pillar] * scheme.indicator_weights[i]
                for i in norm_matrix.indicators
            ])
            got = compute_delphi(norm_matrix, manifest, scheme).raw
            assert got.tobytes() == (norm_matrix.values @ two_level).tobytes()

    def test_panel_weighting_cannot_be_rewritten(self, norm_matrix, manifest):
        """Every call on a manifest shares its panel weighting, and every manifest
        the default pillar weights: writing any of their mappings raises, so no
        later index is re-ranked."""
        before = compute_delphi(norm_matrix, manifest)
        panel = manifest.panel_weights
        for mapping, key in [
            (panel.pillar_weights, Pillar.ECONOMY),
            (panel.indicator_weights, "PopDens"),
            (panel.flat_weights, "PopDens"),
            (DEFAULT_PILLAR_WEIGHTS, Pillar.ECONOMY),
        ]:
            with pytest.raises(TypeError):
                mapping[key] = 0.0
            with pytest.raises(TypeError):
                del mapping[key]
        after = compute_delphi(norm_matrix, manifest)
        assert after.ranking == before.ranking
        assert after.raw.tobytes() == before.raw.tobytes()
        assert Manifest(manifest.specs).panel_weights == panel

    def test_default_weights_are_build_weight_scheme(self, norm_matrix, manifest):
        explicit = compute_delphi(norm_matrix, manifest, build_weight_scheme(manifest))
        assert explicit.raw.tobytes() == compute_delphi(norm_matrix, manifest).raw.tobytes()


@pytest.mark.parametrize(
    "compute, message",
    [
        (pillar_arithmetic_means, "pillar means are defined on a normalized matrix"),
        (compute_delphi, "the weighted index is defined on a normalized matrix"),
        (compute_pca, "the PCA index is defined on a normalized matrix"),
    ],
    ids=["pillar-means", "delphi", "pca"],
)
def test_raw_stage_matrix_rejected(raw_matrix, manifest, compute, message):
    with pytest.raises(ValueError) as exc_info:
        compute(raw_matrix, manifest)
    assert str(exc_info.value) == message


class TestIndexWriters:
    """The writers against the plain csv.writer and indent=2 json.dumps layouts."""

    @staticmethod
    def awkward_result(n=2000):
        stems = ("Região", "Açores", "a,b", 'say "hi"', "back\\slash", "Zeta", "alpha",
                 "ALPHA", "line\nbreak", "\uff21", "😀", "é")
        regions = [f"{stems[i % len(stems)]} {i}" for i in range(n)]
        rng = np.random.default_rng(17)
        raw = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        raw[::50] = raw[0]  # ties, broken by label
        return IndexResult(Method.PCA, rng.permutation(regions).tolist(), raw)

    def test_csv_bytes_at_scale(self, tmp_path):
        result = self.awkward_result()
        rank = {region: i for i, region in enumerate(result.ranking, start=1)}
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["region", "raw", "rescaled", "rank"])
        for region, raw, rescaled in zip(result.regions, result.raw, result.rescaled):
            writer.writerow([region, f"{raw:.6f}", f"{rescaled:.6f}", rank[region]])
        write_index_csv(result, tmp_path / "pca.csv")
        assert (tmp_path / "pca.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_json_bytes_at_scale(self, tmp_path):
        result = self.awkward_result()
        payload = {
            "method": "pca",
            "raw_index": dict(zip(result.regions, result.raw.tolist())),
            "rescaled_index": dict(zip(result.regions, result.rescaled.tolist())),
            "ranking": list(result.ranking),
        }
        expected = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        write_index_json(result, tmp_path / "pca.json")
        assert (tmp_path / "pca.json").read_bytes() == expected.encode("utf-8")

    def test_csv_bytes_empty_and_carriage_return_labels(self, tmp_path):
        regions = ["", "a\rb", "\r", "tab\there", "x,\r", "plain", " ", "%s %d", "\x00"]
        raw = [2.0, -1.5, 0.25, 7.0, 2.0, -0.0, 1e-9, 3.5, 2.0]
        result = IndexResult(Method.ABREU, regions, raw)
        rank = {region: i for i, region in enumerate(result.ranking, start=1)}
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["region", "raw", "rescaled", "rank"])
        for region, value, rescaled in zip(result.regions, result.raw, result.rescaled):
            row = [region, f"{value:.6f}", f"{rescaled:.6f}", rank[region]]
            if "\r" in region:  # csv.writer (3.11, "\n" line ends) leaves a lone \r unquoted
                expected.write(f'"{region}",{row[1]},{row[2]},{row[3]}\n')
            else:
                writer.writerow(row)
        write_index_csv(result, tmp_path / "abreu.csv")
        assert (tmp_path / "abreu.csv").read_bytes() == expected.getvalue().encode("utf-8")
        with open(tmp_path / "abreu.csv", newline="", encoding="utf-8") as handle:
            assert [row[0] for row in csv.reader(handle)][1:] == list(result.regions)
