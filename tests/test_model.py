from __future__ import annotations

import numpy as np
import pytest

from indexforge.model import (
    PILLARS,
    Direction,
    IndexResult,
    IndicatorMatrix,
    IndicatorSpec,
    Method,
    Pillar,
    Stage,
    build_weight_scheme,
    validate_manifest,
)
from indexforge.errors import (
    AllZeroWeightsError,
    DuplicateIndicatorIdError,
    EmptyPillarError,
    NegativeWeightError,
    WeightManifestMismatchError,
)


def spec(i, pillar, weight=1.0, direction=Direction.BENEFIT):
    return IndicatorSpec(id=f"i{i}", label=f"ind {i}", pillar=pillar, weight=weight, direction=direction)


def small_manifest():
    return validate_manifest(
        [spec(i, pillar) for i, pillar in enumerate(PILLARS)]
    )


class TestValidateManifest:
    def test_default_manifest_pillar_sizes(self, manifest):
        sizes = manifest.pillar_sizes()
        assert sizes[Pillar.POPULATION] == 5
        assert sizes[Pillar.SOCIAL_WELFARE] == 7
        assert sizes[Pillar.ECONOMY] == 7
        assert sizes[Pillar.ENVIRONMENT] == 6
        assert len(manifest) == 25

    def test_default_manifest_cost_indicators(self, manifest):
        cost = {s.id for s in manifest.specs if s.direction is Direction.COST}
        assert cost == {"DmgDep", "Pop65", "Unemp"}

    def test_duplicate_id_rejected(self):
        specs = [spec(i, pillar) for i, pillar in enumerate(PILLARS)]
        specs.append(IndicatorSpec(id="i0", label="dup", pillar=Pillar.ECONOMY))
        with pytest.raises(DuplicateIndicatorIdError) as exc_info:
            validate_manifest(specs)
        assert exc_info.value.indicator_id == "i0"

    def test_missing_pillar_rejected(self):
        specs = [spec(i, p) for i, p in enumerate(PILLARS) if p is not Pillar.ENVIRONMENT]
        with pytest.raises(EmptyPillarError) as exc_info:
            validate_manifest(specs)
        assert exc_info.value.pillar is Pillar.ENVIRONMENT

    def test_negative_weight_rejected(self):
        specs = [spec(i, pillar) for i, pillar in enumerate(PILLARS)]
        specs[2] = spec(2, PILLARS[2], weight=-0.5)
        with pytest.raises(NegativeWeightError):
            validate_manifest(specs)

    def test_all_zero_weights_in_pillar_rejected(self):
        specs = [spec(i, pillar, weight=0.0 if pillar is Pillar.ECONOMY else 1.0)
                 for i, pillar in enumerate(PILLARS)]
        with pytest.raises(AllZeroWeightsError):
            validate_manifest(specs)


class TestBuildWeightScheme:
    def test_published_percentages_renormalized(self):
        # Inputs sum to 99.6 and are divided through.
        manifest = small_manifest()
        scheme = build_weight_scheme(
            manifest,
            pillar_weights={
                Pillar.ECONOMY: 28.4,
                Pillar.SOCIAL_WELFARE: 26.2,
                Pillar.ENVIRONMENT: 24.0,
                Pillar.POPULATION: 21.0,
            },
        )
        assert scheme.pillar_weights[Pillar.ECONOMY] == pytest.approx(0.28514, abs=5e-6)
        assert scheme.pillar_weights[Pillar.SOCIAL_WELFARE] == pytest.approx(0.26305, abs=5e-6)
        assert scheme.pillar_weights[Pillar.ENVIRONMENT] == pytest.approx(0.24096, abs=5e-6)
        assert scheme.pillar_weights[Pillar.POPULATION] == pytest.approx(0.21084, abs=5e-6)
        assert sum(scheme.pillar_weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_equal_inputs_give_quarter_each(self):
        scheme = build_weight_scheme(small_manifest(), {p: 25.0 for p in PILLARS})
        assert all(w == pytest.approx(0.25, abs=1e-12) for w in scheme.pillar_weights.values())

    def test_unspecified_indicator_weights_default_equal(self, manifest):
        scheme = build_weight_scheme(manifest)
        for ind in manifest.pillar_ids(Pillar.POPULATION):
            assert scheme.indicator_weights[ind] == pytest.approx(0.2, abs=1e-12)

    def test_within_pillar_weights_sum_to_one(self, manifest):
        rng = np.random.default_rng(7)
        overrides = {i: float(rng.uniform(0.1, 3)) for i in manifest.ids}
        scheme = build_weight_scheme(manifest, indicator_weights=overrides)
        for pillar in PILLARS:
            total = sum(scheme.indicator_weights[i] for i in manifest.pillar_ids(pillar))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_renormalization_idempotent(self, manifest):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pw = {p: float(rng.uniform(0, 10)) for p in PILLARS}
            if sum(pw.values()) == 0:
                continue
            first = build_weight_scheme(manifest, pw)
            second = build_weight_scheme(manifest, first.pillar_weights,
                                         first.indicator_weights)
            for p in PILLARS:
                assert second.pillar_weights[p] == pytest.approx(first.pillar_weights[p], abs=1e-12)
            for i in manifest.ids:
                assert second.indicator_weights[i] == pytest.approx(first.indicator_weights[i], abs=1e-12)

    def test_scaling_inputs_changes_nothing(self, manifest):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pw = {p: float(rng.uniform(0.01, 10)) for p in PILLARS}
            c = float(rng.uniform(0.001, 1000))
            base = build_weight_scheme(manifest, pw)
            scaled = build_weight_scheme(manifest, {p: c * w for p, w in pw.items()})
            for p in PILLARS:
                assert scaled.pillar_weights[p] == pytest.approx(base.pillar_weights[p], abs=1e-12)

    def test_all_zero_pillar_weights_rejected(self):
        with pytest.raises(AllZeroWeightsError):
            build_weight_scheme(small_manifest(), {p: 0.0 for p in PILLARS})

    def test_unknown_indicator_override_rejected(self):
        with pytest.raises(WeightManifestMismatchError):
            build_weight_scheme(small_manifest(), indicator_weights={"nope": 1.0})


class TestIndicatorMatrix:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            IndicatorMatrix(("a", "b"), ("x",), [[1.0], [2.0], [3.0]])

    def test_rejects_duplicate_regions(self):
        with pytest.raises(ValueError):
            IndicatorMatrix(("a", "a"), ("x",), [[1.0], [2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            IndicatorMatrix(("a", "b"), ("x",), [[1.0], [float("nan")]])

    def test_rejects_out_of_range_normalized(self):
        with pytest.raises(ValueError):
            IndicatorMatrix(("a", "b"), ("x",), [[0.1], [1.4]], stage=Stage.NORMALIZED)

    def test_values_are_read_only(self):
        matrix = IndicatorMatrix(("a", "b"), ("x",), [[1.0], [2.0]])
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 9.0
        with pytest.raises(AttributeError):
            matrix.stage = Stage.NORMALIZED

    def test_column_and_row_lookup(self, raw_matrix):
        assert raw_matrix.column("PopDens")[0] == pytest.approx(103.80)
        assert raw_matrix.row("Algarve")[raw_matrix.indicators.index("Unemp")] == pytest.approx(15.74)


class TestResultEquality:
    def test_index_results_compare_by_value(self):
        a = IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.5], [0.0, 1.0], ("y", "x"))
        same = IndexResult(Method.ABREU, ("x", "y"), np.array([0.2, 0.5]), [0.0, 1.0], ("y", "x"))
        reordered = IndexResult(Method.ABREU, ("y", "x"), [0.5, 0.2], [1.0, 0.0], ("y", "x"))
        assert a == same and a == reordered
        assert a != IndexResult(Method.DELPHI, ("x", "y"), [0.2, 0.5], [0.0, 1.0], ("y", "x"))
        assert a != IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.6], [0.0, 1.0], ("y", "x"))
