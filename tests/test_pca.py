from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from indexforge import Direction, IndicatorMatrix, IndicatorSpec, Manifest, normalize_matrix, pca
from indexforge.errors import ConstantColumnError, NoConvergenceError, NotSymmetricError
from indexforge.model import PILLARS, Method, Pillar
from indexforge.normalize import DegenerateColumnWarning
from indexforge.pca import (
    REFERENCE_VARIANCE_PROFILE,
    STAGE2_CAP,
    compute_pca,
    eigen_symmetric,
    pca_pillar,
    write_pca_audit,
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


def factor_model_covariance(rng: np.random.Generator, columns: int, regions: int = 300):
    """Covariance of one wide pillar block: min-max normalized columns driven by
    a shared and a pillar factor, with signed loadings and noise."""
    shared = rng.normal(size=regions)
    factors = rng.normal(size=(regions, 2))
    factors[:, 0] = 0.6 * shared + 0.8 * factors[:, 0]
    loadings = rng.uniform(0.4, 1.0, size=(2, columns)) * np.array([[1.0], [0.5]])
    signs = np.where(rng.uniform(size=columns) < 0.2, -1.0, 1.0)
    data = factors @ loadings * signs + 0.5 * rng.normal(size=(regions, columns))
    data = (data - data.min(axis=0)) / (data.max(axis=0) - data.min(axis=0))
    centered = data - data.mean(axis=0)
    return (centered.T @ centered) / regions


def assert_eigen_properties(a: np.ndarray, tol: float = 1e-8) -> None:
    """Residual and trace of ``eigen_symmetric(a)`` within ``tol``, orthogonality within 1e-8."""
    n = a.shape[0]
    values, vectors = eigen_symmetric(a)
    for value, vector in zip(values, vectors.T):
        assert np.linalg.norm(a @ vector - value * vector) <= tol
    assert abs(values.sum() - np.trace(a)) <= tol
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
            a = random_symmetric(rng, n)
            # Near both ends of the float range, entries and norm stay finite.
            for scale in (1.0, 1e150, 1e-300, 1e-320):
                assert_bit_identical(scale * a)

    def test_diagonal(self):
        assert_bit_identical(np.diag([0.5, 3.0, -1.0, 2.0]))
        # No coupling to rotate: each zero keeps its sign through to the values.
        for matrix in ([[-0.0]], [[0.0]], [[-0.0, 0.0], [0.0, 2.0]], [[1.0, -0.0], [-0.0, -0.0]]):
            assert_bit_identical(matrix)

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

    @pytest.mark.parametrize("n", [49, 50])
    def test_wide_factor_model_covariance(self, n):
        # The pillar blocks of a 300 x 200 table, one of them less a constant column.
        assert_bit_identical(factor_model_covariance(np.random.default_rng(67 + n), n))

    def test_zero_and_negative_zero_couplings(self):
        # Two interleaved 25-column blocks: the cross-block couplings start as
        # -0.0 and stay zeros of either sign, so their rotations are skipped
        # mid-row, and a few in-block couplings start as exact zeros.
        rng = np.random.default_rng(69)
        a = np.full((50, 50), -0.0)
        odd, even = np.arange(1, 50, 2), np.arange(0, 50, 2)
        a[np.ix_(odd, odd)] = factor_model_covariance(rng, 25)
        a[np.ix_(even, even)] = factor_model_covariance(rng, 25)
        for i, j in [(0, 2), (1, 3), (10, 40), (21, 47)]:
            a[i, j] = a[j, i] = 0.0
        assert np.signbit(a[0, 1]) and a[0, 2] == 0.0
        assert_bit_identical(a)
        # Zeros of either sign on the diagonal, with nonzero couplings to rotate.
        assert_bit_identical([[-0.0, 1.0, 0.5], [1.0, 0.0, -2.0], [0.5, -2.0, -0.0]])
        a[np.diag_indices(50)] = np.tile([-0.0, 0.0], 25)
        assert_bit_identical(a)

    def test_back_to_back_calls(self):
        # Each call starts from its own buffers: a small solve between two wide
        # ones changes neither.
        rng = np.random.default_rng(70)
        for n in (50, 3, 50):
            assert_bit_identical(factor_model_covariance(rng, n))


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

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1.0, 1e200], [1e200, 1.0]], "matrix is too large: its Frobenius norm overflows"),
            # Each square is finite; their sum is not.
            ([[1e154, 1e154], [1e154, 1e154]], "matrix is too large: its Frobenius norm overflows"),
            ([[1.0, math.inf], [math.inf, 2.0]], "matrix holds a nan or inf"),
            ([[1.0, 0.5], [0.5, -math.inf]], "matrix holds a nan or inf"),
            (np.full((3, 3), math.nan), "matrix holds a nan or inf"),
            (np.zeros((0, 0)), "expected a nonempty square matrix, got shape (0, 0)"),
        ],
        ids=["norm-overflows", "squares-sum-overflows", "inf", "diagonal-inf", "all-nan", "empty"],
    )
    def test_non_finite_or_overflowing_input_rejected(self, matrix, message):
        # pyproject.toml makes a RuntimeWarning an error, so none may come first.
        with pytest.raises(NotSymmetricError) as exc_info:
            eigen_symmetric(matrix)
        assert str(exc_info.value) == message

    def test_no_convergence_raised(self, monkeypatch):
        monkeypatch.setattr(pca, "MAX_SWEEPS", 0)
        with pytest.raises(NoConvergenceError):
            eigen_symmetric([[1.0, 0.5], [0.5, 1.0]])

    def test_no_convergence_wide_reports_reference_off_norm(self, monkeypatch):
        a = factor_model_covariance(np.random.default_rng(71), 50)
        with pytest.raises(NoConvergenceError) as expected:
            reference_eigen_symmetric(a, max_sweeps=1)
        monkeypatch.setattr(pca, "MAX_SWEEPS", 1)
        with pytest.raises(NoConvergenceError) as got:
            eigen_symmetric(a)
        assert got.value.sweeps == 1
        assert got.value.off_norm == expected.value.off_norm > 0.0


@st.composite
def symmetric_matrices(draw) -> np.ndarray:
    """Symmetric n x n, n <= 6: zeros of both signs, subnormals, and magnitudes
    of either sign from 1e-300 up to a drawn power of ten no larger than 1e299,
    one pair of entries then replaced by a nan or an inf in a quarter of cases."""
    n = draw(st.integers(0, 6))
    top = draw(st.integers(-300, 299))
    entries = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-2.2e-308, 2.2e-308),
        st.builds(
            lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
            st.sampled_from([1.0, -1.0]),
            st.floats(1.0, 10.0, exclude_max=True),
            st.integers(-300, top),
        ),
    )
    size = n * (n + 1) // 2
    a = np.empty((n, n))
    upper = np.triu_indices(n)
    a[upper] = a[upper[::-1]] = draw(st.lists(entries, min_size=size, max_size=size))
    if n and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i, j] = a[j, i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(symmetric_matrices())
def test_eigensolver_solves_or_rejects_every_symmetric_matrix(a):
    """Each small symmetric matrix is solved, within a tolerance scaled by its
    norm, or rejected with a named error; no other exception and no
    RuntimeWarning (which pyproject.toml makes an error) gets out."""
    norm = math.hypot(*a.flat)  # exact up to rounding: inf or nan only for such entries
    try:
        assert_eigen_properties(a, tol=1e-8 * max(1.0, norm))
    except NotSymmetricError as exc:
        event(f"rejected: {exc}")
        # A nonempty matrix of finite entries and norm is always solved.
        assert a.size == 0 or not norm < 1e154
    except NoConvergenceError:
        event("no convergence")
    else:
        event("solved")


def reference_orient_sign(vector: np.ndarray) -> tuple[np.ndarray, bool]:
    """The per-vector sign rule ``pca_pillar`` applies to all retained columns at once.

    Flip so the loading sum is nonnegative. A sum within roundoff of zero,
    |sum| <= (loading count) * eps * sum(|loading|), falls back to making the
    first loading above that bound positive. Returns (vector, flipped).
    """
    total = float(vector.sum())
    bound = float(np.abs(vector).sum()) * (vector.size * math.ulp(1.0))
    if abs(total) <= bound:
        above = vector[np.abs(vector) > bound]
        flipped = bool(above.size) and bool(above[0] < 0)
    else:
        flipped = total < 0
    return (-vector if flipped else vector), flipped


def names(columns) -> list[str]:
    """One column id per column of ``columns``."""
    return [f"c{j}" for j in range(np.shape(columns)[1])]


def orient_through_pca_pillar(monkeypatch, block) -> tuple[np.ndarray, tuple[bool, ...]]:
    """``pca_pillar``'s loadings and sign flips when the solver returns ``block``.

    Every column is retained; the block is laid out as ``eigen_symmetric``
    lays out its vectors (columns contiguous).
    """
    vectors = np.asfortranarray(block, dtype=float)
    n = vectors.shape[0]
    monkeypatch.setattr(pca, "eigen_symmetric", lambda covariance: (np.ones(n), vectors))
    monkeypatch.setattr(pca, "PIPELINE_MIN_FACTORS", n)
    data = np.random.default_rng(0).uniform(size=(6, n))
    stage, _ = pca_pillar(data, names(data), cap=n)
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

    def test_roundoff_zero_sum_takes_the_tiebreak(self):
        # B repeats A and every pillar holds a benefit and a cost column at
        # 1, 1, 2, so the final stage's second factor sums to 0 exactly but to
        # 1.1e-16 in floating point. Its first loading decides the sign.
        specs = [
            IndicatorSpec(f"{p.value}-{d.value}", f"{p.value} {d.value}", p, d)
            for p in PILLARS
            for d in (Direction.BENEFIT, Direction.COST)
        ]
        manifest = Manifest(specs)
        values = np.tile([[1.0], [1.0], [2.0]], len(specs))
        matrix = IndicatorMatrix(("A", "B", "C"), manifest.ids, values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateColumnWarning)
            _, audit = compute_pca(normalize_matrix(matrix, manifest)[0], manifest)
        final = audit.final_stage
        assert 0 < abs(final.loadings[:, 1].sum()) < 1e-15
        assert final.sign_flips == (False, True)
        assert final.loadings[0, 1] > 0

    def test_random_roundoff_zero_sums_match_reference(self, monkeypatch):
        # Centered random columns sum to zero up to roundoff. The first loading
        # above the bound decides, so a tiny sum of the other sign does not.
        rng = np.random.default_rng(31)
        against_the_sum = 0
        for n in range(2, 9):
            for _ in range(10):
                block = rng.normal(size=(n, n))
                block -= block.mean(axis=0)
                assert_oriented_like_reference(monkeypatch, block)
                for column in block.T:
                    total = column.sum()
                    bound = np.abs(column).sum() * (n * math.ulp(1.0))
                    leading = column[np.abs(column) > bound][0]
                    against_the_sum += 0 < abs(total) <= bound and (total < 0) != (leading < 0)
        assert against_the_sum >= 20

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
        stage, sub_index = pca_pillar(columns, names(columns))
        # The first factor alone clears the threshold; the floor keeps a second
        # one, which carries zero variance, hence zero weight.
        assert stage.retained == pca.PIPELINE_MIN_FACTORS == 2
        assert stage.factor_weights[1] == pytest.approx(0.0, abs=1e-12)
        assert stage.cumulative_variance == pytest.approx(1.0, abs=1e-10)
        # Sub-index is affine in the common underlying column.
        fit = np.polyfit(base, sub_index, 1)
        assert np.allclose(np.polyval(fit, base), sub_index, atol=1e-10)

    def test_two_uncorrelated_equal_variance_columns(self):
        x = np.array([1.0, 0.0, -1.0, 0.0])
        y = np.array([0.0, 1.0, 0.0, -1.0])
        stage, _ = pca_pillar(np.column_stack([x, y]), ["x", "y"])
        assert stage.retained == 2
        assert stage.variance_shares[0] == pytest.approx(0.5, abs=1e-12)
        assert stage.variance_shares[1] == pytest.approx(0.5, abs=1e-12)

    # Some draws keep three factors below the variance threshold, with a warning.
    @pytest.mark.filterwarnings(
        "ignore:factor cap 3 reached below:indexforge.normalize.DegenerateColumnWarning"
    )
    def test_variance_shares_sum_to_one(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            data = rng.uniform(size=(9, int(rng.integers(2, 8))))
            stage, _ = pca_pillar(data, names(data))
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
        _, sub_index = pca_pillar(data, names(data))
        _, sub_index_p = pca_pillar(data[perm], names(data))
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
        with pytest.raises(ConstantColumnError) as exc_info:
            with pytest.warns(DegenerateColumnWarning, match="^constant columns dropped from PCA"):
                pca_pillar(np.full((5, 2), 0.3), column_ids=["x", "flat"])
        assert exc_info.value.column == "x, flat"
        assert str(exc_info.value) == "every column of the PCA stage is constant: x, flat"

    def test_cap_reached_below_threshold_flagged(self):
        rng = np.random.default_rng(59)
        # Many nearly independent columns: three factors stay below 80%.
        data = rng.normal(size=(40, 12))
        with pytest.warns(DegenerateColumnWarning):
            stage, _ = pca_pillar(data, names(data), cap=3)
        assert stage.retained == 3
        assert stage.cap_reached_below_threshold
        assert stage.cumulative_variance < 0.80

    def test_min_factors_floor(self, monkeypatch):
        """The floor is read from PIPELINE_MIN_FACTORS on every call; without
        one, the threshold alone keeps the single factor of a rank-one pillar.
        A floor above the column count keeps every factor."""
        base = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        columns = np.column_stack([base, 2.0 * base + 1.0, 0.5 * base - 3.0])
        for floor in (1, 3, 4):
            monkeypatch.setattr(pca, "PIPELINE_MIN_FACTORS", floor)
            stage, sub_index = pca_pillar(columns, names(columns))
            assert stage.retained == min(floor, 3)
            # Every factor after the first carries zero variance, hence zero weight.
            assert stage.factor_weights[1:] == pytest.approx([0.0] * (stage.retained - 1), abs=1e-12)
            fit = np.polyfit(base, sub_index, 1)
            assert np.allclose(np.polyval(fit, base), sub_index, atol=1e-10)


class TestPcaStage2:
    def test_four_identical_columns(self):
        col = np.array([0.1, 0.5, 0.2, 0.9, 0.4])
        stage, raw = pca_pillar(np.column_stack([col] * 4), ["a", "b", "c", "d"], cap=STAGE2_CAP)
        # One factor carries all the variance; the floor keeps a second, at weight 0.
        assert stage.retained == pca.PIPELINE_MIN_FACTORS == 2
        assert stage.factor_weights[1] == pytest.approx(0.0, abs=1e-12)
        assert stage.cumulative_variance == pytest.approx(1.0, abs=1e-10)
        fit = np.polyfit(col, raw, 1)
        assert np.allclose(np.polyval(fit, col), raw, atol=1e-10)

    def test_cap_default_two(self):
        rng = np.random.default_rng(60)
        assert STAGE2_CAP == 2
        with pytest.warns(DegenerateColumnWarning, match="^factor cap 2 reached below"):
            stage, _ = pca_pillar(rng.normal(size=(30, 4)), ["a", "b", "c", "d"], cap=STAGE2_CAP)
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

    def test_reference_profile_and_audit_are_read_only(self, results_all, tmp_path):
        """The profile annotates every later audit, and an audit is shared by its
        readers: writing any of their mappings raises. The writer still lays
        out the audit's parameters as a JSON object."""
        _, audit = results_all
        for mapping, key in [
            (REFERENCE_VARIANCE_PROFILE, "final"),
            (REFERENCE_VARIANCE_PROFILE["pillars"], Pillar.ECONOMY),
            (audit.parameters, "threshold"),
            (audit.pillar_stages, Pillar.ECONOMY),
        ]:
            with pytest.raises(TypeError):
                mapping[key] = None
        write_pca_audit(audit, tmp_path / "pca_audit.json")
        written = json.loads((tmp_path / "pca_audit.json").read_text(encoding="utf-8"))
        assert written["parameters"] == dict(audit.parameters)
        assert written["parameters"]["min_factors"] == 2

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
