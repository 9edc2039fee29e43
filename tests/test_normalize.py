from __future__ import annotations

import warnings

import numpy as np
import pytest

from indexforge import normalize
from indexforge.datasets import data_path
from indexforge.errors import ColumnSpanOverflowError, ConstantComponentError
from indexforge.ingest import parse_dataset
from indexforge.model import Direction, IndicatorMatrix, Stage
from indexforge.normalize import (
    DegenerateColumnWarning,
    NormalizationRecord,
    composite_indicator,
    normalize_column,
    normalize_matrix,
    write_normalization_csv,
)

from conftest import edge_vector, recorded_warnings

# Columns where the bundled dataset has tied extremes (two regions share the
# minimum of ICT; four share the maximum of WasteW).
TIED_EXTREME_COLUMNS = {"ICT", "WasteW"}


def reference_normalize_column(values, direction, indicator_id=""):
    """The per-column normalization the vectorized kernel must match byte for byte."""
    col = np.asarray(values, dtype=float)
    if col.size == 0:
        raise ValueError("cannot normalize an empty column")
    if not np.all(np.isfinite(col)):
        raise ValueError(f"column {indicator_id!r} contains non-finite values")
    lo = float(col.min())
    hi = float(col.max())
    degenerate = hi == lo
    if degenerate:
        warnings.warn(
            f"column {indicator_id or '<unnamed>'} is constant; normalized to 0.5",
            DegenerateColumnWarning,
            stacklevel=2,
        )
        scaled = np.full_like(col, 0.5)
    elif direction is Direction.COST:
        scaled = (hi - col) / (hi - lo)
    else:
        scaled = (col - lo) / (hi - lo)
    record = NormalizationRecord(
        indicator_id=indicator_id,
        observed_min=lo,
        observed_max=hi,
        direction=direction,
        degenerate=degenerate,
    )
    return scaled, record


def reference_normalize_matrix(matrix, manifest):
    """The loop of per-column calls that ``normalize_matrix`` replaced."""
    if matrix.stage is not Stage.RAW:
        raise ValueError("normalize_matrix expects a raw-stage matrix")
    columns = []
    records = []
    for indicator_id in matrix.indicators:
        direction = manifest.spec(indicator_id).direction
        scaled, record = reference_normalize_column(
            matrix.column(indicator_id), direction, indicator_id
        )
        columns.append(scaled)
        records.append(record)
    normalized = IndicatorMatrix(
        matrix.regions, matrix.indicators, np.column_stack(columns), stage=Stage.NORMALIZED
    )
    return normalized, records


class TestNormalizeColumn:
    def test_benefit_column_endpoints_and_interior(self, raw_matrix):
        col, record = normalize_column(raw_matrix.column("PopDens"), Direction.BENEFIT, "PopDens")
        regions = raw_matrix.regions
        values = dict(zip(regions, col))
        assert values["Região Autónoma da Madeira"] == pytest.approx(1.0)
        assert values["Alto Alentejo"] == pytest.approx(0.0)
        assert values["Alto Minho"] == pytest.approx((103.80 - 17.20) / 300.00, abs=1e-12)
        assert record.observed_min == pytest.approx(17.20)
        assert record.observed_max == pytest.approx(317.20)
        assert not record.degenerate

    def test_cost_column_inverts(self, raw_matrix):
        col, record = normalize_column(raw_matrix.column("Unemp"), Direction.COST, "Unemp")
        values = dict(zip(raw_matrix.regions, col))
        assert values["Região de Coimbra"] == pytest.approx(1.0)
        assert values["Algarve"] == pytest.approx(0.0)
        assert values["Alto Minho"] == pytest.approx((15.74 - 11.84) / 5.47, abs=1e-12)
        assert record.direction is Direction.COST

    def test_constant_column_maps_to_half(self):
        with pytest.warns(DegenerateColumnWarning):
            col, record = normalize_column([7.0, 7.0, 7.0], Direction.BENEFIT, "const")
        assert np.allclose(col, 0.5)
        assert record.degenerate
        assert record.observed_min == record.observed_max == 7.0

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            normalize_column([], Direction.BENEFIT)

    def test_cost_is_one_minus_benefit(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            col = rng.normal(size=rng.integers(2, 30)) * rng.uniform(0.1, 50)
            if col.max() == col.min():
                continue
            benefit, _ = normalize_column(col, Direction.BENEFIT)
            cost, _ = normalize_column(col, Direction.COST)
            assert np.allclose(cost, 1.0 - benefit, atol=1e-12)

    def test_monotonicity(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            col = rng.normal(size=10)
            benefit, _ = normalize_column(col, Direction.BENEFIT)
            cost, _ = normalize_column(col, Direction.COST)
            order = np.argsort(col)
            assert np.all(np.diff(benefit[order]) >= -1e-15)
            assert np.all(np.diff(cost[order]) <= 1e-15)

    def test_affine_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            col = rng.normal(size=12)
            a = rng.uniform(0.01, 100)
            b = rng.uniform(-50, 50)
            base, _ = normalize_column(col, Direction.BENEFIT)
            scaled, _ = normalize_column(a * col + b, Direction.BENEFIT)
            assert np.allclose(base, scaled, atol=1e-12)


class TestNormalizeMatrix:
    def test_bundled_dataset_bounds_and_extremes(self, normalized):
        matrix, records = normalized
        assert matrix.stage is Stage.NORMALIZED
        assert matrix.values.min() >= 0.0
        assert matrix.values.max() <= 1.0
        for indicator_id in matrix.indicators:
            col = matrix.column(indicator_id)
            zeros = int(np.sum(np.isclose(col, 0.0, atol=1e-12)))
            ones = int(np.sum(np.isclose(col, 1.0, atol=1e-12)))
            assert zeros >= 1 and ones >= 1
            if indicator_id not in TIED_EXTREME_COLUMNS:
                assert zeros == 1 and ones == 1

    def test_labels_are_checked_once(self, manifest, monkeypatch):
        # parse_dataset builds the raw matrix, whose constructor checks the
        # labels; normalize_matrix reuses them and takes over the scaled array
        # without running the constructor again.
        raw = parse_dataset(data_path("nuts3.csv"), manifest)
        scaled = []

        def validating_constructor(*args, **kwargs):
            raise AssertionError("IndicatorMatrix() called")

        def recorded_scale_columns(*args, scale_columns=normalize._scale_columns):
            result = scale_columns(*args)
            scaled.append(result[0])
            return result

        monkeypatch.setattr(IndicatorMatrix, "__init__", validating_constructor)
        monkeypatch.setattr(normalize, "_scale_columns", recorded_scale_columns)
        matrix, _ = normalize_matrix(raw, manifest)
        assert matrix.regions is raw.regions and matrix.indicators is raw.indicators
        assert matrix.values is scaled[0] and not matrix.values.flags.writeable
        assert not np.shares_memory(matrix.values, raw.values)

    def test_no_degenerate_columns_in_bundle(self, normalized):
        _, records = normalized
        assert not any(record.degenerate for record in records)

    def test_idempotent_on_spanning_data(self, manifest):
        rng = np.random.default_rng(31)
        values = rng.uniform(size=(6, 25))
        # Force each column to span [0, 1] exactly.
        values[0] = 0.0
        values[1] = 1.0
        benefit_manifest = manifest
        matrix = IndicatorMatrix(
            tuple(f"r{i}" for i in range(6)), manifest.ids, values
        )
        normalized, _ = normalize_matrix(matrix, benefit_manifest)
        for indicator_id in manifest.ids:
            spec = manifest.spec(indicator_id)
            col = matrix.column(indicator_id)
            expected = 1.0 - col if spec.direction is Direction.COST else col
            assert np.allclose(normalized.column(indicator_id), expected, atol=1e-12)

    def test_single_region_all_half(self, manifest, raw_matrix):
        single = IndicatorMatrix(
            ("Algarve",), raw_matrix.indicators, raw_matrix.row("Algarve")[None, :]
        )
        with pytest.warns(DegenerateColumnWarning):
            normalized, records = normalize_matrix(single, manifest)
        assert np.allclose(normalized.values, 0.5)
        assert all(record.degenerate for record in records)

    def test_rejects_already_normalized(self, normalized, manifest):
        matrix, _ = normalized
        with pytest.raises(ValueError):
            normalize_matrix(matrix, manifest)

    @pytest.mark.parametrize("column", ["DmgDep", "PopDens"], ids=["cost", "benefit"])
    def test_span_overflow_rejected(self, manifest, raw_matrix, column):
        # Every cell is finite, but max - min is beyond the float range.
        values = raw_matrix.values.copy()
        j = raw_matrix.indicators.index(column)
        values[:, j] = [1e308 if i % 2 == 0 else -1e308 for i in range(len(values))]
        matrix = IndicatorMatrix(raw_matrix.regions, raw_matrix.indicators, values)
        with pytest.raises(ColumnSpanOverflowError, match=f"^column '{column}' spans") as exc_info:
            normalize_matrix(matrix, manifest)
        assert exc_info.value.column == column


class TestMatchesPerColumnReference:
    """The one-pass kernel gives the bytes, records and warnings of the per-column loop."""

    @staticmethod
    def seeded_matrix(manifest, n, seed, constant=()):
        rng = np.random.default_rng(seed)
        k = len(manifest)
        values = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
        values += rng.uniform(-500, 500, size=k)
        values = np.round(values, rng.integers(0, 5))  # rounding ties some extremes
        for j in constant:
            values[:, j] = values[0, j]
        order = rng.permutation(k)  # file column order differs from the manifest's
        return IndicatorMatrix(
            tuple(f"r{i}" for i in range(n)),
            [manifest.ids[j] for j in order],
            values[:, order],
        )

    @pytest.mark.parametrize(
        "n, seed, constant",
        [(2, 1, ()), (3, 2, (0,)), (9, 3, ()), (50, 4, (1, 7, 24)), (1000, 5, (0, 12)),
         (2000, 6, (2, 3, 4, 5, 6, 7))],
    )
    def test_matrix_bytes_records_and_warnings(self, manifest, n, seed, constant):
        matrix = self.seeded_matrix(manifest, n, seed, constant)
        cost = {i for i in matrix.indicators if manifest.spec(i).direction is Direction.COST}
        assert cost  # the bundled manifest has cost columns
        (got, got_records), got_warnings = recorded_warnings(
            lambda: normalize_matrix(matrix, manifest)
        )
        (want, want_records), want_warnings = recorded_warnings(
            lambda: reference_normalize_matrix(matrix, manifest)
        )
        assert got.values.tobytes() == want.values.tobytes()
        assert got == want
        assert got_records == want_records
        assert got_warnings == want_warnings
        assert len(got_warnings) == sum(record.degenerate for record in want_records)

    def test_single_region_warns_for_every_column_in_order(self, manifest, raw_matrix):
        single = IndicatorMatrix(
            ("Algarve",), raw_matrix.indicators, raw_matrix.row("Algarve")[None, :]
        )
        (got, _), got_warnings = recorded_warnings(lambda: normalize_matrix(single, manifest))
        (want, _), want_warnings = recorded_warnings(
            lambda: reference_normalize_matrix(single, manifest)
        )
        assert got.values.tobytes() == want.values.tobytes()
        assert got_warnings == want_warnings
        assert [text.split()[1] for _, text in got_warnings] == list(raw_matrix.indicators)

    def test_bundled_dataset(self, manifest, raw_matrix, normalized):
        got, records = normalized
        want, want_records = reference_normalize_matrix(raw_matrix, manifest)
        assert got.values.tobytes() == want.values.tobytes()
        assert records == want_records

    @pytest.mark.parametrize("direction", list(Direction))
    def test_column_bytes(self, direction):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 17, 500):
            for col in (rng.normal(size=n) * 1e3, np.round(rng.uniform(size=n), 1),
                        np.full(n, -2.5)):
                (got, got_record), got_warnings = recorded_warnings(
                    lambda: normalize_column(col, direction, "c")
                )
                (want, want_record), want_warnings = recorded_warnings(
                    lambda: reference_normalize_column(col, direction, "c")
                )
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got_record == want_record
                assert got_warnings == want_warnings


def reference_composite_indicator(components):
    """``composite_indicator`` as a per-component loop, before it ran through the kernel."""
    if len(components) < 2:
        raise ValueError("need at least two component columns")
    columns = {name: np.asarray(values, dtype=float) for name, values in components.items()}
    lengths = {len(col) for col in columns.values()}
    if len(lengths) != 1:
        raise ValueError("component columns must cover the same regions")
    normalized = []
    for name, col in columns.items():
        lo, hi = col.min(), col.max()
        if hi == lo:
            raise ConstantComponentError(name)
        normalized.append((col - lo) / (hi - lo))
    return np.mean(normalized, axis=0)


def composite_outcome(function, components):
    """The bytes ``function`` returns, or the component its ConstantComponentError
    names, and the warnings it raised."""

    def call():
        try:
            return function(components).tobytes()
        except ConstantComponentError as exc:
            return exc.name

    return recorded_warnings(call)


def test_composite_indicator_matches_the_loop_bit_for_bit():
    """Seeded cases with up to 12 components (the mean's order matters from 8 on):
    the loop's bytes, or its ConstantComponentError naming the same component,
    and, as the loop, no warning."""
    rng = np.random.default_rng(61)
    outcomes = []
    for _ in range(3000):
        n, k = int(rng.integers(2, 40)), int(rng.integers(2, 13))
        components = {f"c{j}": edge_vector(rng, n, constant=0.03) for j in range(k)}
        got = composite_outcome(composite_indicator, components)
        assert got == composite_outcome(reference_composite_indicator, components)
        outcomes.append(type(got[0]))
    assert outcomes.count(bytes) > 1500 and outcomes.count(str) > 300


def test_records_csv_export(tmp_path, normalized):
    _, records = normalized
    path = tmp_path / "normalization.csv"
    write_normalization_csv(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id,min,max,direction,degenerate"
    assert len(lines) == 26
    by_id = {line.split(",")[0]: line for line in lines[1:]}
    assert by_id["PopDens"] == "PopDens,17.200000,317.200000,benefit,false"
    assert by_id["Unemp"].endswith("cost,false")
