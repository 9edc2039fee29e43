from __future__ import annotations

import math

import numpy as np
import pytest

from indexforge import pca
from indexforge.errors import ConstantColumnError, NoConvergenceError, NotSymmetricError
from indexforge.model import PILLARS, Method, Pillar
from indexforge.normalize import DegenerateColumnWarning
from indexforge.pca import (
    REFERENCE_VARIANCE_PROFILE,
    STAGE2_CAP,
    compute_pca,
    correlation_matrix,
    eigen_symmetric,
    pca_pillar,
)

from conftest import REGIONS

# Engine stage outcomes for the bundled dataset, frozen from an independent
# recomputation of the covariance spectra.
FROZEN_STAGE1 = {
    Pillar.POPULATION: (2, 0.9561967070892211),
    Pillar.SOCIAL_WELFARE: (2, 0.8104825246599158),
    Pillar.ECONOMY: (3, 0.8820459368951158),
    Pillar.ENVIRONMENT: (3, 0.8378012711369608),
}
FROZEN_STAGE2 = (2, 0.8633697613056925, 0.5739543573988637)


def charpoly_eigenvalues(a: np.ndarray) -> list[float]:
    """Closed-form eigenvalues of a symmetric matrix, n <= 3.

    Quadratic formula for n = 2 and the trigonometric solution of the
    characteristic cubic for n = 3; fully independent of the iterative
    solver under test.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return [float(a[0, 0])]
    if n == 2:
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
        return sorted([(tr + disc) / 2.0, (tr - disc) / 2.0], reverse=True)
    if n == 3:
        p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
        q = float(np.trace(a)) / 3.0
        p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * p1
        p = math.sqrt(p2 / 6.0)
        if p == 0.0:
            return [q, q, q]
        b = (a - q * np.eye(3)) / p
        det_b = (
            b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
            - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
            + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
        )
        r = max(-1.0, min(1.0, det_b / 2.0))
        phi = math.acos(r) / 3.0
        eig1 = q + 2.0 * p * math.cos(phi)
        eig3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
        eig2 = 3.0 * q - eig1 - eig3
        return sorted([eig1, eig2, eig3], reverse=True)
    raise ValueError("oracle covers n <= 3 only")


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(scale=rng.uniform(0.1, 5.0), size=(n, n))
    return (a + a.T) / 2.0


def reference_eigen_symmetric(matrix, *, max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """The per-element Jacobi loop ``eigen_symmetric`` must match bit for bit.

    Each rotation updates columns p and q of the matrix, then rows p and q,
    then columns p and q of the rotation product, element by element. Each
    eigenvector is normalized on its own; the result is (values descending,
    vectors as columns).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]]), np.array([[1.0]])

    vectors = np.eye(n)
    frob = max(1.0, float(np.sqrt((a * a).sum())))
    stop = 1e-15 * frob

    def off_norm() -> float:
        off = a - np.diag(np.diag(a))
        return float(np.sqrt((off * off).sum()))

    converged = False
    for _ in range(max_sweeps):
        if off_norm() <= stop:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # Smaller-angle rotation zeroing a[p, q].
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p, vec_q = vectors[:, p].copy(), vectors[:, q].copy()
                vectors[:, p] = c * vec_p - s * vec_q
                vectors[:, q] = s * vec_p + c * vec_q
    else:
        converged = off_norm() <= stop
    if not converged:
        raise NoConvergenceError(max_sweeps, off_norm())

    eigenvalues = np.diag(a)
    order = np.argsort(-eigenvalues, kind="stable")
    columns = []
    for idx in order:
        vector = vectors[:, idx]
        columns.append(vector / np.linalg.norm(vector))
    return eigenvalues[order], np.column_stack(columns)


def assert_eigen_properties(a: np.ndarray) -> None:
    """Residual, trace and orthogonality of ``eigen_symmetric(a)`` within 1e-8."""
    n = a.shape[0]
    values, vectors = eigen_symmetric(a)
    for value, vector in zip(values, vectors.T):
        assert np.linalg.norm(a @ vector - value * vector) <= 1e-8
    assert abs(values.sum() - np.trace(a)) <= 1e-8
    assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-8


def assert_bit_identical(matrix) -> None:
    """``eigen_symmetric`` returns exactly the reference loop's bytes."""
    values, vectors = eigen_symmetric(matrix)
    expected_values, expected_vectors = reference_eigen_symmetric(matrix)
    assert values.tobytes() == expected_values.tobytes()
    assert vectors.tobytes() == expected_vectors.tobytes()


class TestBitIdentity:
    """The row-rotation loop reproduces the per-element loop bit for bit."""

    def test_bundled_pipeline_covariances(self, norm_matrix, manifest, monkeypatch):
        seen = []

        def recording(matrix, **kwargs):
            seen.append(np.array(matrix))
            return eigen_symmetric(matrix, **kwargs)

        monkeypatch.setattr(pca, "eigen_symmetric", recording)
        compute_pca(norm_matrix, manifest)
        assert len(seen) == len(PILLARS) + 1
        for covariance in seen:
            assert_bit_identical(covariance)

    def test_wide_low_rank_covariance(self):
        # 300 regions x 50 columns: a rank-5 signal plus noise.
        rng = np.random.default_rng(63)
        data = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 50))
        data += 0.3 * rng.normal(size=data.shape)
        centered = data - data.mean(axis=0)
        assert_bit_identical((centered.T @ centered) / data.shape[0])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_symmetric(self, n):
        rng = np.random.default_rng(64 + n)
        for _ in range(5):
            assert_bit_identical(random_symmetric(rng, n))

    def test_diagonal(self):
        assert_bit_identical(np.diag([0.5, 3.0, -1.0, 2.0]))

    def test_block_diagonal_skips_zero_couplings(self):
        # Rotations inside one block leave the cross-block entries exactly
        # zero, so every rotation across the blocks takes the apq == 0 skip.
        rng = np.random.default_rng(65)
        a = np.zeros((7, 7))
        a[:3, :3] = random_symmetric(rng, 3)
        a[3:, 3:] = random_symmetric(rng, 4)
        assert_bit_identical(a)

    def test_repeated_eigenvalue(self):
        rng = np.random.default_rng(66)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = (q * [3.0, 3.0, 3.0, 1.0, 1.0, 0.25]) @ q.T
        assert_bit_identical((a + a.T) / 2.0)


class TestEigenSymmetric:
    def test_identity(self):
        values, vectors = eigen_symmetric(np.eye(3))
        assert values.tolist() == [1.0, 1.0, 1.0]
        assert vectors.tolist() == np.eye(3).tolist()

    def test_analytic_2x2(self):
        values, vectors = eigen_symmetric([[1.0, 0.5], [0.5, 1.0]])
        assert values[0] == pytest.approx(1.5, abs=1e-12)
        assert values[1] == pytest.approx(0.5, abs=1e-12)
        expected_first = np.array([1.0, 1.0]) / math.sqrt(2.0)
        expected_second = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert abs(abs(vectors[:, 0] @ expected_first) - 1.0) < 1e-12
        assert abs(abs(vectors[:, 1] @ expected_second) - 1.0) < 1e-12

    def test_single_element(self):
        values, vectors = eigen_symmetric([[4.25]])
        assert values.tolist() == [4.25]
        assert vectors.tolist() == [[1.0]]

    def test_returns_read_only_arrays(self):
        values, vectors = eigen_symmetric(random_symmetric(np.random.default_rng(50), 5))
        assert values.shape == (5,) and vectors.shape == (5, 5)
        assert not values.flags.writeable and not vectors.flags.writeable

    def test_sorted_descending(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            values = eigen_symmetric(random_symmetric(rng, 6))[0].tolist()
            assert values == sorted(values, reverse=True)

    def test_residual_trace_orthogonality(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            assert_eigen_properties(random_symmetric(rng, int(rng.integers(1, 11))))

    def test_residual_trace_orthogonality_wide(self):
        # The wide benchmark table runs pillar blocks of about 50x50.
        rng = np.random.default_rng(62)
        for _ in range(20):
            assert_eigen_properties(random_symmetric(rng, int(rng.integers(20, 51))))

    def test_matches_charpoly_oracle_small(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = random_symmetric(rng, n)
            got = eigen_symmetric(a)[0]
            expected = charpoly_eigenvalues(a)
            assert np.allclose(got, expected, atol=1e-8)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            eigen_symmetric([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetricError):
            eigen_symmetric([[1.0, 2.0, 3.0]])

    def test_no_convergence_raised(self):
        with pytest.raises(NoConvergenceError):
            eigen_symmetric([[1.0, 0.5], [0.5, 1.0]], max_sweeps=0)


class TestCorrelationMatrix:
    def test_identical_columns(self):
        col = np.array([1.0, 2.0, 5.0, 3.0])
        r = correlation_matrix(np.column_stack([col, col]))
        assert np.allclose(r, 1.0, atol=1e-12)

    def test_negated_column(self):
        col = np.array([1.0, 2.0, 5.0, 3.0])
        r = correlation_matrix(np.column_stack([col, -col]))
        assert r[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(54)
        r = correlation_matrix(rng.normal(size=(9, 5)))
        assert np.all(np.diag(r) == 1.0)
        assert np.abs(r - r.T).max() == 0.0
        assert np.abs(r).max() <= 1.0

    def test_bundled_spot_value(self, norm_matrix):
        cols = norm_matrix.columns(["Pop65", "DmgDep"])
        r = correlation_matrix(cols, ids=["Pop65", "DmgDep"])
        # Frozen from an independent covariance-formula computation.
        assert r[0, 1] == pytest.approx(0.9694598612919094, abs=1e-10)

    def test_constant_column_named(self):
        with pytest.raises(ConstantColumnError) as exc_info:
            correlation_matrix(np.column_stack([[1.0, 2, 3], [4.0, 4, 4]]), ids=["x", "flat"])
        assert exc_info.value.column == "flat"


def reference_orient_sign(vector: np.ndarray) -> tuple[np.ndarray, bool]:
    """The per-vector sign rule ``pca_pillar`` applies to all retained columns at once.

    Flip so the loading sum is nonnegative; a zero sum falls back to making
    the first nonzero loading positive. Returns (vector, flipped).
    """
    total = float(vector.sum())
    if total < 0:
        return -vector, True
    if total == 0:
        nonzero = np.nonzero(vector)[0]
        if nonzero.size and vector[nonzero[0]] < 0:
            return -vector, True
    return vector, False


def orient_through_pca_pillar(monkeypatch, block) -> tuple[np.ndarray, tuple[bool, ...]]:
    """``pca_pillar``'s loadings and sign flips when the solver returns ``block``.

    Every column is retained; the block is laid out as ``eigen_symmetric``
    lays out its vectors (columns contiguous).
    """
    vectors = np.asfortranarray(block, dtype=float)
    n = vectors.shape[0]
    monkeypatch.setattr(pca, "eigen_symmetric", lambda covariance: (np.ones(n), vectors))
    data = np.random.default_rng(0).uniform(size=(6, n))
    stage, _ = pca_pillar(data, cap=n, min_factors=n)
    return stage.loadings, stage.sign_flips


def assert_oriented_like_reference(monkeypatch, block) -> tuple[np.ndarray, tuple[bool, ...]]:
    loadings, flips = orient_through_pca_pillar(monkeypatch, block)
    columns = np.asfortranarray(block, dtype=float).T
    expected = [reference_orient_sign(column) for column in columns]
    assert loadings.tobytes() == np.column_stack([v for v, _ in expected]).tobytes()
    assert flips == tuple(flipped for _, flipped in expected)
    assert all(type(flipped) is bool for flipped in flips)  # the JSON writer needs bools
    return loadings, flips


class TestOrientSign:
    def test_negative_sum_flipped(self, monkeypatch):
        block = np.array([[-0.8, 0.6], [-0.6, 0.8]])
        loadings, flips = assert_oriented_like_reference(monkeypatch, block)
        assert flips == (True, False)
        assert loadings[:, 0].tolist() == [0.8, 0.6]

    def test_zero_sum_tiebreak(self, monkeypatch):
        block = np.array([[-0.70710678, 0.70710678], [0.70710678, -0.70710678]])
        loadings, flips = assert_oriented_like_reference(monkeypatch, block)
        assert flips == (True, False)
        assert (loadings[0] > 0).all()

    def test_zero_sum_with_leading_zeros(self, monkeypatch):
        block = np.array([
            [0.0, 0.0, -0.0, 0.0],
            [0.0, 0.5, -0.5, 0.0],
            [-0.5, -0.5, 0.5, 0.0],
            [0.5, 0.0, 0.0, 0.0],
        ])
        _, flips = assert_oriented_like_reference(monkeypatch, block)
        assert flips == (True, False, True, False)

    def test_random_blocks_match_reference(self, monkeypatch):
        rng = np.random.default_rng(67)
        for n in range(1, 9):
            for _ in range(10):
                assert_oriented_like_reference(monkeypatch, rng.normal(size=(n, n)))
                # Small integers give many zero sums, zero loadings and ties.
                assert_oriented_like_reference(monkeypatch, rng.integers(-1, 2, size=(n, n)))


class TestPcaPillar:
    def test_rank_one_pillar(self):
        base = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        columns = np.column_stack([base, 2.0 * base + 1.0, 0.5 * base - 3.0])
        stage, sub_index = pca_pillar(columns)
        assert stage.retained == 1
        assert stage.cumulative_variance == pytest.approx(1.0, abs=1e-10)
        # Sub-index is affine in the common underlying column.
        fit = np.polyfit(base, sub_index, 1)
        assert np.allclose(np.polyval(fit, base), sub_index, atol=1e-10)

    def test_two_uncorrelated_equal_variance_columns(self):
        x = np.array([1.0, 0.0, -1.0, 0.0])
        y = np.array([0.0, 1.0, 0.0, -1.0])
        stage, _ = pca_pillar(np.column_stack([x, y]))
        assert stage.retained == 2
        assert stage.variance_shares[0] == pytest.approx(0.5, abs=1e-12)
        assert stage.variance_shares[1] == pytest.approx(0.5, abs=1e-12)

    def test_variance_shares_sum_to_one(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            stage, _ = pca_pillar(rng.uniform(size=(9, int(rng.integers(2, 8)))))
            assert sum(stage.variance_shares) == pytest.approx(1.0, abs=1e-10)
            assert all(s >= 0 for s in stage.variance_shares)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(56)
        data = rng.uniform(size=(9, 5))
        ids = [f"c{i}" for i in range(5)]
        stage, sub_index = pca_pillar(data, column_ids=ids)
        perm = rng.permutation(5)
        stage_p, sub_index_p = pca_pillar(data[:, perm], column_ids=[ids[i] for i in perm])
        assert np.allclose(stage.eigenvalues, stage_p.eigenvalues, atol=1e-10)
        assert np.allclose(sub_index, sub_index_p, atol=1e-8)
        # Loadings are permuted consistently with the column order.
        inverse = np.argsort(perm)
        assert np.allclose(stage.loadings, stage_p.loadings[inverse], atol=1e-8)

    def test_region_permutation_equivariance(self):
        rng = np.random.default_rng(57)
        data = rng.uniform(size=(8, 4))
        perm = rng.permutation(8)
        _, sub_index = pca_pillar(data)
        _, sub_index_p = pca_pillar(data[perm])
        assert np.allclose(sub_index[perm], sub_index_p, atol=1e-10)

    def test_constant_column_dropped_with_warning(self):
        rng = np.random.default_rng(58)
        data = rng.uniform(size=(6, 3))
        data = np.column_stack([data, np.full(6, 0.5)])
        with pytest.warns(DegenerateColumnWarning):
            stage, _ = pca_pillar(data, column_ids=["a", "b", "c", "flat"])
        assert stage.dropped_columns == ("flat",)
        assert stage.column_ids == ("a", "b", "c")

    def test_all_constant_rejected(self):
        with pytest.raises(ConstantColumnError):
            pca_pillar(np.full((5, 2), 0.3))

    def test_cap_reached_below_threshold_flagged(self):
        rng = np.random.default_rng(59)
        # Many nearly independent columns: three factors stay below 80%.
        data = rng.normal(size=(40, 12))
        with pytest.warns(DegenerateColumnWarning):
            stage, _ = pca_pillar(data, cap=3)
        assert stage.retained == 3
        assert stage.cap_reached_below_threshold
        assert stage.cumulative_variance < 0.80

    def test_min_factors_floor(self):
        base = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        columns = np.column_stack([base, 2.0 * base + 1.0, 0.5 * base - 3.0])
        stage, sub_index = pca_pillar(columns, min_factors=2)
        assert stage.retained == 2
        # The second factor carries zero variance, hence zero weight.
        assert stage.factor_weights[1] == pytest.approx(0.0, abs=1e-12)
        fit = np.polyfit(base, sub_index, 1)
        assert np.allclose(np.polyval(fit, base), sub_index, atol=1e-10)


class TestPcaStage2:
    def test_four_identical_columns(self):
        col = np.array([0.1, 0.5, 0.2, 0.9, 0.4])
        stage, raw = pca_pillar(np.column_stack([col] * 4), cap=STAGE2_CAP)
        assert stage.retained == 1
        assert stage.cumulative_variance == pytest.approx(1.0, abs=1e-10)
        fit = np.polyfit(col, raw, 1)
        assert np.allclose(np.polyval(fit, col), raw, atol=1e-10)

    def test_cap_default_two(self):
        rng = np.random.default_rng(60)
        assert STAGE2_CAP == 2
        stage, _ = pca_pillar(rng.normal(size=(30, 4)), cap=STAGE2_CAP)
        assert stage.retained <= 2


class TestBundledPipeline:
    def test_stage1_fingerprints(self, results_all):
        _, audit = results_all
        for pillar, (expected_k, expected_cv) in FROZEN_STAGE1.items():
            stage = audit.pillar_stages[pillar]
            assert stage.retained == expected_k
            assert stage.cumulative_variance == pytest.approx(expected_cv, abs=1e-9)

    def test_stage1_reference_bands(self, results_all):
        _, audit = results_all
        reference = REFERENCE_VARIANCE_PROFILE["pillars"]
        for pillar, (expected_k, expected_cv) in reference.items():
            stage = audit.pillar_stages[pillar]
            assert stage.retained == expected_k
            assert stage.cumulative_variance == pytest.approx(expected_cv, abs=0.03)

    def test_stage2_frozen(self, results_all):
        _, audit = results_all
        k, cumvar, first_share = FROZEN_STAGE2
        assert audit.final_stage.retained == k
        assert audit.final_stage.cumulative_variance == pytest.approx(cumvar, abs=1e-9)
        assert audit.final_stage.variance_shares[0] == pytest.approx(first_share, abs=1e-9)

    def test_ranking_extremes(self, results_all):
        results, _ = results_all
        ranking = results[Method.PCA].ranking
        assert set(ranking[:2]) == {
            "Região Autónoma dos Açores",
            "Região Autónoma da Madeira",
        }
        assert set(ranking[-2:]) & {
            "Terras de Trás-os-Montes",
            "Beiras e Serra da Estrela",
        }

    def test_audit_notes_against_reference_profile(self, norm_matrix, manifest):
        _, audit = compute_pca(
            norm_matrix, manifest, reference_profile=REFERENCE_VARIANCE_PROFILE
        )
        notes = "\n".join(audit.notes)
        assert "Population: retained 2 factors" in notes
        assert "within tolerance" in notes
        # The final-stage variance concentration is documented as deviating.
        assert "final stage" in notes and "OUTSIDE" in notes

    def test_scores_match_loadings_times_centered_data(self, results_all):
        _, audit = results_all
        stage = audit.pillar_stages[Pillar.ECONOMY]
        assert stage.scores.shape == (len(REGIONS), stage.retained)
        assert stage.loadings.shape == (len(stage.column_ids), stage.retained)
        assert len(stage.sign_flips) == stage.retained
