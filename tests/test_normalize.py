from __future__ import annotations

import numpy as np
import pytest

from indexforge.model import Direction, IndicatorMatrix, Stage
from indexforge.normalize import (
    DegenerateColumnWarning,
    normalize_column,
    normalize_matrix,
    write_normalization_csv,
)

# Columns where the bundled dataset has tied extremes (two regions share the
# minimum of ICT; four share the maximum of WasteW).
TIED_EXTREME_COLUMNS = {"ICT", "WasteW"}


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
