from __future__ import annotations

import dataclasses
import traceback
import typing
from enum import Enum

import numpy as np
import pytest

import indexforge
from indexforge import aggregate, model
from indexforge.aggregate import IndexResult, compute_delphi
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
from indexforge.normalize import normalize_matrix, write_normalization_csv
from indexforge.errors import (
    AllZeroWeightsError,
    DuplicateIndicatorIdError,
    DuplicateRegionError,
    EmptyPillarError,
    LengthMismatchError,
    ManifestFormatError,
    NegativeWeightError,
    NonFiniteWeightError,
    NonNumericCellError,
    WeightFormatError,
    WeightManifestMismatchError,
    WeightSumOverflowError,
)


def spec(i, pillar, weight=1.0, direction=Direction.BENEFIT):
    return IndicatorSpec(id=f"i{i}", label=f"ind {i}", pillar=pillar, weight=weight, direction=direction)


def small_manifest():
    return Manifest(
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
            Manifest(specs)
        assert exc_info.value.indicator_id == "i0"

    def test_missing_pillar_rejected(self):
        specs = [spec(i, p) for i, p in enumerate(PILLARS) if p is not Pillar.ENVIRONMENT]
        with pytest.raises(EmptyPillarError) as exc_info:
            Manifest(specs)
        assert exc_info.value.pillar is Pillar.ENVIRONMENT

    def test_negative_weight_rejected(self):
        specs = [spec(i, pillar) for i, pillar in enumerate(PILLARS)]
        specs[2] = spec(2, PILLARS[2], weight=-0.5)
        with pytest.raises(NegativeWeightError):
            Manifest(specs)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, weight):
        specs = [spec(i, pillar) for i, pillar in enumerate(PILLARS)]
        specs[2] = spec(2, PILLARS[2], weight=weight)
        message = f"'i2' has weight {weight}, which is not finite"
        with pytest.raises(NonFiniteWeightError, match=message):
            Manifest(specs)

    def test_all_zero_weights_in_pillar_rejected(self):
        specs = [spec(i, pillar, weight=0.0 if pillar is Pillar.ECONOMY else 1.0)
                 for i, pillar in enumerate(PILLARS)]
        with pytest.raises(AllZeroWeightsError):
            Manifest(specs)


class TestManifestConstructor:
    def test_package_exports_the_constructor(self):
        assert indexforge.Manifest is Manifest

    def test_built_directly_it_carries_the_panel_weighting(self, manifest, norm_matrix):
        direct = Manifest(list(manifest.specs))
        assert direct == manifest and direct.specs == manifest.specs
        assert direct.panel_weights == build_weight_scheme(manifest)
        got = compute_delphi(norm_matrix, direct)
        assert got.raw.tobytes() == compute_delphi(norm_matrix, manifest).raw.tobytes()

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda specs: specs + [IndicatorSpec(id="i0", label="dup", pillar=Pillar.ECONOMY)],
             DuplicateIndicatorIdError, "duplicate indicator id 'i0'"),
            (lambda specs: [s for s in specs if s.pillar is not Pillar.ENVIRONMENT],
             EmptyPillarError, "no indicators assigned to pillar 'Environment'"),
            (lambda specs: [spec(0, PILLARS[0], weight=-0.5), *specs[1:]],
             NegativeWeightError, "indicator 'i0' has negative weight -0.5"),
        ],
        ids=["duplicate-id", "empty-pillar", "negative-weight"],
    )
    def test_checks_itself(self, edit, error, message):
        with pytest.raises(error) as exc_info:
            Manifest(edit([spec(i, pillar) for i, pillar in enumerate(PILLARS)]))
        assert str(exc_info.value) == message


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

    def test_nan_pillar_weight_rejected(self):
        weights = {pillar: 1.0 for pillar in PILLARS}
        weights[Pillar.ECONOMY] = float("nan")
        message = "^pillar 'Economy' has weight nan, which is not finite$"
        with pytest.raises(NonFiniteWeightError, match=message) as exc_info:
            build_weight_scheme(small_manifest(), weights)
        assert (exc_info.value.scope, exc_info.value.name) == ("pillar", "Economy")

    def test_negative_pillar_weight_rejected(self):
        weights = {pillar: 1.0 for pillar in PILLARS}
        weights[Pillar.ECONOMY] = -2.0
        with pytest.raises(NegativeWeightError, match="^pillar 'Economy' has negative weight -2.0$"):
            build_weight_scheme(small_manifest(), weights)

    def test_inf_indicator_weight_rejected(self):
        message = "^indicator 'i1' has weight inf, which is not finite$"
        with pytest.raises(NonFiniteWeightError, match=message) as exc_info:
            build_weight_scheme(small_manifest(), indicator_weights={"i1": float("inf")})
        assert (exc_info.value.scope, exc_info.value.name) == ("indicator", "i1")

    def test_no_pillar_weights_is_the_panel(self, manifest):
        assert build_weight_scheme(manifest) == build_weight_scheme(manifest, DEFAULT_PILLAR_WEIGHTS)

    def test_unknown_pillar_rejected(self, manifest):
        weights = {"Economy": 28.4, "SocialWelfare": 26.2, "Enviroment": 24.0, "Population": 21.0}
        with pytest.raises(WeightFormatError, match="^unknown pillar 'Enviroment'$"):
            build_weight_scheme(manifest, weights)

    @pytest.mark.parametrize("weight", ["abc", None, [1]], ids=["text", "none", "list"])
    def test_non_numeric_weight_named_at_each_level(self, weight):
        manifest = small_manifest()
        cases = [
            ({Pillar.ECONOMY: weight}, None, f"pillar 'Economy' has non-numeric weight {weight!r}"),
            ({"Economy": weight}, None, f"pillar 'Economy' has non-numeric weight {weight!r}"),
            (None, {manifest.ids[0]: weight},
             f"indicator {manifest.ids[0]!r} has non-numeric weight {weight!r}"),
        ]
        for pillar_weights, indicator_weights, message in cases:
            with pytest.raises(WeightFormatError) as exc_info:
                build_weight_scheme(manifest, pillar_weights, indicator_weights)
            assert type(exc_info.value) is WeightFormatError
            assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "pillar_weights, indicator_weights, scope",
        [
            ({"Economy": 1e308, "Population": 1e308}, None, "pillars"),
            (None, {"DmgDep": 1e308, "Pop65": 1e308}, "Population"),
        ],
        ids=["pillars", "indicators"],
    )
    def test_weight_sum_overflow_rejected(self, manifest, pillar_weights, indicator_weights,
                                          scope):
        # Each weight is finite but their sum is not; dividing by it would give 0.0.
        message = f"^weights in scope '{scope}' sum beyond the float range$"
        with pytest.raises(WeightSumOverflowError, match=message) as exc_info:
            build_weight_scheme(manifest, pillar_weights, indicator_weights)
        assert exc_info.value.scope == scope

    def test_flat_weights_are_pillar_share_times_indicator_share(self, manifest):
        scheme = build_weight_scheme(manifest, {p: k + 1.0 for k, p in enumerate(PILLARS)})
        assert set(scheme.flat_weights) == set(manifest.ids)
        for i in manifest.ids:
            pillar_share = scheme.pillar_weights[manifest.spec(i).pillar]
            assert scheme.flat_weights[i] == pillar_share * scheme.indicator_weights[i]
        assert sum(scheme.flat_weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_scheme_keeps_read_only_copies(self):
        pillars, indicators, flat = {p: 0.25 for p in PILLARS}, {"i0": 1.0}, {"i0": 0.25}
        scheme = WeightScheme(pillars, indicators, flat)
        pillars[Pillar.ECONOMY], indicators["i0"], flat["i0"] = 0.0, 0.0, 0.0
        assert scheme == WeightScheme({p: 0.25 for p in PILLARS}, {"i0": 1.0}, {"i0": 0.25})
        for mapping in (scheme.pillar_weights, scheme.indicator_weights, scheme.flat_weights):
            with pytest.raises(TypeError):
                mapping[next(iter(mapping))] = 0.0

    def test_unknown_indicator_override_rejected(self):
        with pytest.raises(WeightManifestMismatchError):
            build_weight_scheme(small_manifest(), indicator_weights={"nope": 1.0})


class TestIndicatorMatrix:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            IndicatorMatrix(("a", "b"), ("x",), [[1.0], [2.0], [3.0]])

    def test_rejects_duplicate_regions(self):
        with pytest.raises(DuplicateRegionError, match="^region 'a' appears more than once$"):
            IndicatorMatrix(("a", "a"), ("x",), [[1.0], [2.0]])

    def test_rejects_non_finite(self):
        message = "^non-numeric value 'nan' at region 'b', indicator 'x'$"
        with pytest.raises(NonNumericCellError, match=message):
            IndicatorMatrix(("a", "b"), ("x",), [[1.0], [float("nan")]])

    def test_rejects_out_of_range_normalized(self):
        with pytest.raises(ValueError):
            IndicatorMatrix(("a", "b"), ("x",), [[0.1], [1.4]], stage=Stage.NORMALIZED)

    @pytest.mark.parametrize(
        "regions, values, error",
        [
            (("a", "a"), [[1.0], [2.0]], DuplicateRegionError),
            (("a", "b"), [[1.0], [float("nan")]], NonNumericCellError),
            (("a", "b"), [[1.0], [2.0], [3.0]], ValueError),
        ],
        ids=["repeated-region", "nan-cell", "shape"],
    )
    def test_repr_of_a_failed_construction(self, regions, values, error):
        """A traceback that shows its locals shows the arguments that failed."""
        with pytest.raises(error) as exc_info:
            IndicatorMatrix(regions, ("x",), values)
        half_built = next(
            frame.f_locals["self"]
            for frame, _ in traceback.walk_tb(exc_info.tb)
            if isinstance(frame.f_locals.get("self"), IndicatorMatrix)
        )
        assert repr(half_built) == (
            f"IndicatorMatrix({{'regions': {regions!r}, 'indicators': ('x',), "
            f"'values': {values!r}, 'stage': <Stage.RAW: 'raw'>}})"
        )

    def test_repr_of_a_built_matrix(self):
        matrix = IndicatorMatrix(("a", "b"), ("x",), [[0.1], [1.0]], stage=Stage.NORMALIZED)
        assert repr(matrix) == "IndicatorMatrix(2 regions x 1 indicators, stage=normalized)"

    @pytest.mark.parametrize(
        "regions, indicators, values, stage, error, message",
        [
            (("a", "b"), ("x",), [[1.0], [2.0], [3.0]], Stage.RAW, ValueError,
             "values shape (3, 1) does not match 2 regions x 1 indicators"),
            (("a", "a"), ("x",), [[1.0], [2.0]], Stage.RAW, DuplicateRegionError,
             "region 'a' appears more than once"),
            (("a", "b"), ("x", "x"), [[1.0, 1.0], [2.0, 2.0]], Stage.RAW,
             DuplicateIndicatorIdError, "duplicate indicator id 'x'"),
            (("a", "b"), ("x",), [[1.0], [float("inf")]], Stage.RAW, NonNumericCellError,
             "non-numeric value 'inf' at region 'b', indicator 'x'"),
            (("a", "b"), ("x",), [[-0.1], [1.0]], Stage.NORMALIZED, ValueError,
             "normalized matrix has values outside [0, 1]"),
            # The shape is checked first, then the labels, then the values.
            (("a", "a"), ("x",), [[1.0]], Stage.RAW, ValueError,
             "values shape (1, 1) does not match 2 regions x 1 indicators"),
            (("a", "a"), ("x",), [[1.0], [float("nan")]], Stage.RAW, DuplicateRegionError,
             "region 'a' appears more than once"),
            (("a", "a"), ("x", "x"), [[1.0, 2.0], [3.0, 4.0]], Stage.RAW, DuplicateRegionError,
             "region 'a' appears more than once"),
            (("a", "b"), ("x", "x"), [[float("nan"), 2.0], [3.0, 4.0]], Stage.RAW,
             DuplicateIndicatorIdError, "duplicate indicator id 'x'"),
            # Each names the first repeat, and the first bad cell in row-major order.
            (("a", "b", "c", "b", "a"), ("x",), np.zeros((5, 1)), Stage.RAW, DuplicateRegionError,
             "region 'b' appears more than once"),
            (("a",), ("x", "y", "z", "y", "x"), np.zeros((1, 5)), Stage.RAW,
             DuplicateIndicatorIdError, "duplicate indicator id 'y'"),
            (("a", "b"), ("x", "y"), [[1.0, float("-inf")], [float("nan"), 2.0]], Stage.RAW,
             NonNumericCellError, "non-numeric value '-inf' at region 'a', indicator 'y'"),
            (("a", "b"), ("x",), [[float("nan")], [1.4]], Stage.NORMALIZED, NonNumericCellError,
             "non-numeric value 'nan' at region 'a', indicator 'x'"),
        ],
        ids=["shape", "regions", "indicators", "finite", "bounds", "shape-first", "labels-first",
             "regions-before-indicators", "indicators-before-values", "first-repeated-region",
             "first-repeated-indicator", "first-bad-cell", "finite-before-bounds"],
    )
    def test_constructor_messages(self, regions, indicators, values, stage, error, message):
        with pytest.raises(error) as exc_info:
            IndicatorMatrix(regions, indicators, values, stage=stage)
        assert type(exc_info.value) is error
        assert str(exc_info.value) == message

    def test_constructor_copies_a_strided_view(self):
        table = np.arange(12.0).reshape(3, 4)
        matrix = IndicatorMatrix(("a", "b", "c"), ("x", "y"), table[:, 1:3])
        assert matrix.values.flags.c_contiguous and not np.shares_memory(matrix.values, table)
        assert matrix.values.tolist() == [[1.0, 2.0], [5.0, 6.0], [9.0, 10.0]]
        assert table.flags.writeable and not matrix.values.flags.writeable

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
        a = IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.5])
        same = IndexResult(Method.ABREU, ("x", "y"), np.array([0.2, 0.5]))
        reordered = IndexResult(Method.ABREU, ("y", "x"), [0.5, 0.2])
        assert a == same and a == reordered
        assert a != IndexResult(Method.DELPHI, ("x", "y"), [0.2, 0.5])
        assert a != IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.6])
        assert a != IndexResult(Method.ABREU, ("x", "z"), [0.2, 0.5])

    def test_rescaled_and_ranking_are_not_arguments(self):
        with pytest.raises(TypeError):
            IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.5], [1.0, 0.0])
        with pytest.raises(TypeError, match="rescaled"):
            IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.5], rescaled=[1.0, 0.0])
        with pytest.raises(TypeError, match="ranking"):
            IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.5], ranking=("x", "y"))
        result = IndexResult(Method.ABREU, ("x", "y"), [0.2, 0.5])
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(result, ranking=("x", "y"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.ranking = ("x", "y")
        with pytest.raises(ValueError):
            result.rescaled[0] = 1.0
        assert result.rescaled.tolist() == [0.0, 1.0] and result.ranking == ("y", "x")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([0.2, 0.5], "vectors have different lengths (3 vs 2)"),
            ([0.2, 0.5, 0.3, 0.1], "vectors have different lengths (3 vs 4)"),
            # A vector that is not 1-D is named by its shape, even when its size fits.
            ([[0.2], [0.5], [0.3]], "expected a vector of 3 values, got shape (3, 1)"),
        ],
        ids=["short-raw", "long-raw", "column-raw"],
    )
    def test_lengths_are_checked(self, raw, message):
        with pytest.raises(LengthMismatchError) as exc_info:
            IndexResult(Method.ABREU, ("x", "y", "z"), raw)
        assert str(exc_info.value) == message

    def test_the_constructor_checks_the_region_count(self):
        with pytest.raises(LengthMismatchError, match=r"^vectors have different lengths \(3 vs 2\)$"):
            IndexResult(Method.ABREU, ("a", "b", "c"), [1.0, 2.0])
        with pytest.raises(ValueError, match="^rescaling needs at least two regions$"):
            IndexResult(Method.ABREU, ("a",), [1.0])


def enum_fields():
    """(class, field name, enum) for every enum-typed field of the dataclasses of
    ``model`` and of ``aggregate``, the home of IndexResult."""
    for module in (model, aggregate):
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                hints = typing.get_type_hints(cls)
                for f in dataclasses.fields(cls):
                    kind = hints[f.name]
                    if isinstance(kind, type) and issubclass(kind, Enum):
                        yield cls, f.name, kind


#: Valid constructor arguments of each model class that has an enum field.
VALID_ARGUMENTS = {
    IndicatorSpec: dict(id="i0", label="l", pillar=Pillar.POPULATION, direction=Direction.COST),
    IndicatorMatrix: dict(regions=("a", "b"), indicators=("x",), values=[[0.5], [1.0]]),
    IndexResult: dict(method=Method.ABREU, regions=("x", "y"), raw=[0.2, 0.5]),
}

ENUM_FIELDS = list(enum_fields())
ENUM_FIELD_IDS = [f"{cls.__name__}.{name}" for cls, name, _ in ENUM_FIELDS]


class TestEnumCoercion:
    def test_every_enum_field_is_found(self):
        assert ENUM_FIELD_IDS == [
            "IndicatorSpec.pillar", "IndicatorSpec.direction", "IndicatorMatrix.stage",
            "IndexResult.method",
        ]

    @pytest.mark.parametrize("cls, name, kind", ENUM_FIELDS, ids=ENUM_FIELD_IDS)
    def test_a_value_string_is_stored_as_the_member(self, cls, name, kind):
        for member in kind:
            from_value = cls(**{**VALID_ARGUMENTS[cls], name: member.value})
            assert getattr(from_value, name) is member
            assert from_value == cls(**{**VALID_ARGUMENTS[cls], name: member})

    @pytest.mark.parametrize("cls, name, kind", ENUM_FIELDS, ids=ENUM_FIELD_IDS)
    def test_an_unknown_value_is_rejected(self, cls, name, kind):
        error = ManifestFormatError if cls is IndicatorSpec else ValueError
        with pytest.raises(error) as exc_info:
            cls(**{**VALID_ARGUMENTS[cls], name: "bogus"})
        assert type(exc_info.value) is error
        if cls is IndicatorSpec:
            assert str(exc_info.value) == f"unknown {name} 'bogus'"

    def test_spec_checks_pillar_then_direction_then_weight(self):
        with pytest.raises(ManifestFormatError, match="^unknown pillar 'P'$"):
            IndicatorSpec("i0", "l", "P", "D", "W")
        with pytest.raises(ManifestFormatError, match="^unknown direction 'D'$"):
            IndicatorSpec("i0", "l", "Economy", "D", "W")

    @pytest.mark.parametrize("weight", ["heavy", "", None])
    def test_spec_rejects_a_non_numeric_weight(self, weight):
        message = f"non-numeric weight {weight!r} for indicator 'i0'"
        with pytest.raises(ManifestFormatError) as exc_info:
            IndicatorSpec("i0", "l", Pillar.ECONOMY, weight=weight)
        assert str(exc_info.value) == message

    def test_spec_stores_a_float_weight(self):
        spec = IndicatorSpec("i0", "l", Pillar.ECONOMY, weight=" 2.5 ")
        assert type(spec.weight) is float and spec.weight == 2.5
        assert IndicatorSpec("i0", "l", Pillar.ECONOMY, weight=np.float32(0.5)).weight == 0.5

    def test_a_string_normalized_stage_gets_the_range_check(self):
        with pytest.raises(ValueError, match=r"^normalized matrix has values outside \[0, 1\]$"):
            IndicatorMatrix(("a", "b"), ("x",), [[0.5], [7.0]], stage="normalized")

    def test_a_list_ranking_is_stored_as_a_tuple(self):
        args = VALID_ARGUMENTS[IndexResult]
        from_list = IndexResult(**{**args, "regions": ["x", "y"]})
        assert from_list.regions == ("x", "y") and type(from_list.regions) is tuple
        assert from_list.ranking == ("y", "x") and type(from_list.ranking) is tuple
        assert from_list == IndexResult(**args)

    def test_a_cost_string_spec_is_scaled_as_cost(self, tmp_path):
        specs = [IndicatorSpec("i0", "l", "Population", "cost")]
        specs += [IndicatorSpec(f"i{i}", "l", p.value) for i, p in enumerate(PILLARS[1:], 1)]
        manifest = Manifest(specs)
        values = np.column_stack([[1.0, 2.0, 3.0]] * 4)
        raw = IndicatorMatrix(("a", "b", "c"), manifest.ids, values)
        normalized, records = normalize_matrix(raw, manifest)
        assert normalized.column("i0").tolist() == [1.0, 0.5, 0.0]
        assert normalized.column("i1").tolist() == [0.0, 0.5, 1.0]
        write_normalization_csv(records, tmp_path / "normalization.csv")
        assert (tmp_path / "normalization.csv").read_text().splitlines()[1:3] == [
            "i0,1.000000,3.000000,cost,false",
            "i1,1.000000,3.000000,benefit,false",
        ]
