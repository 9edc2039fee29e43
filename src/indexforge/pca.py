"""Two-stage principal-component aggregation and its eigensolver.

The eigendecomposition is done in-house with cyclic Jacobi rotations
(Golub & Van Loan, *Matrix Computations* §8.5), which handle the
near-singular covariance matrices of few observations without
factorization trouble. Row i of one n x 2n array holds row i of the matrix,
then column i of the rotation product. The matrix stays exactly symmetric,
so one elementwise pass over rows p and q also does the column update, with
the same IEEE operations as the per-element loop the tests keep as a
bit-for-bit reference. The pass is six ufunc calls: four products, c and s
times row p and s and c times row q, each element rounded once, then one
subtraction and one addition into the two rows. c and s are 0-d arrays and
every output buffer is passed positionally. The rotation reads a[p, p] and
a[q, q] from a list that mirrors the diagonal; the 2x2 block, the only code
that changes the diagonal, writes both. A sweep over k columns makes
k(k-1)/2 rotations: negligible on the bundled dataset (at most 7x7),
dominant on a wide table (50x50 pillar blocks for 200 indicators).
``eigen_symmetric`` returns plain arrays in the layout of
``numpy.linalg.eigh``: the eigenvalues (here in descending order) and the
eigenvectors as the columns of one read-only matrix. ``eigh`` is not used
because it flips some of the raw eigenvector signs ``pca_audit.json`` records.

Each PCA stage runs on the columns it is given: mean-centered covariance
PCA. The pillar columns arrive min-max normalized to [0, 1], which puts
them on a common scale, so the covariance spectrum is already comparable
across indicators; the four pillar sub-indexes feed the final stage in
their factor-score scale. Each stage keeps at least two factors, and joins
the retained ones into a single column by weighting each factor score with
its share of explained variance (renormalized over the retained set).

Sign convention: each retained eigenvector is flipped so its loading sum
is nonnegative (a sum within roundoff of zero, at most k * eps * sum of
|loading| for k loadings, makes the first loading above that bound
positive), all retained columns in one vectorized step. PCA signs are
arbitrary; fixing them keeps builds deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .aggregate import IndexResult
from .errors import ConstantColumnError, NoConvergenceError, NotSymmetricError
from .ingest import write_json
from .model import PILLARS, IndicatorMatrix, Manifest, Method, Pillar, Stage
from .normalize import DegenerateColumnWarning

#: Factor caps for the two stages of the bundled pipeline.
STAGE1_CAP = 3
STAGE2_CAP = 2

#: Cumulative explained-variance threshold for factor retention.
VARIANCE_THRESHOLD = 0.80

#: Retention floor of every PCA stage: keep at least two factors even when
#: the first one clears the variance threshold on its own, so a secondary
#: movement pattern is never discarded outright.
PIPELINE_MIN_FACTORS = 2

#: Full Jacobi sweeps before eigen_symmetric gives up with NoConvergenceError.
MAX_SWEEPS = 100


def eigen_symmetric(matrix) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a symmetric matrix via cyclic Jacobi rotations.

    Returns ``(values, vectors)``, both read-only: the eigenvalues in
    descending order, and the orthonormal eigenvectors of the accumulated
    rotation product as the matching columns of ``vectors`` (the layout
    ``numpy.linalg.eigh`` uses). Raises NotSymmetricError, before any
    arithmetic that could overflow, when the input is empty or not square,
    holds a nan or inf, has a Frobenius norm beyond the float range, or is
    not symmetric within loose tolerance; and NoConvergenceError if the
    off-diagonal mass has not vanished after MAX_SWEEPS full sweeps
    (quadratic convergence makes that effectively unreachable for
    well-posed inputs).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise NotSymmetricError(f"expected a nonempty square matrix, got shape {a.shape}")
    peak = float(np.abs(a).max())
    if not peak < math.inf:
        raise NotSymmetricError("matrix holds a nan or inf")
    # An overflow below ends in a rejection: an inf difference fails the
    # symmetry test, an inf norm the size test.
    with np.errstate(over="ignore"):
        if float(np.abs(a - a.T).max()) > 1e-12 * max(1.0, peak):
            raise NotSymmetricError("matrix is not symmetric within tolerance")
        a = (a + a.T) / 2.0
        frob = max(1.0, float(np.sqrt((a * a).sum())))
    if frob == math.inf:
        raise NotSymmetricError("matrix is too large: its Frobenius norm overflows")
    n = a.shape[0]
    stop = 1e-15 * frob
    # Row i holds row i of the matrix, then column i of the rotation product.
    rows = np.hstack([a, np.eye(n)])
    a = rows[:, :n]
    item = rows.item
    row, col, head = list(rows), list(a.T), list(a)
    diag = np.diag(a).tolist()  # only the 2x2 block below changes the diagonal
    c_, s_ = np.empty(()), np.empty(())  # c and s as 0-d operands
    cp, sp, sq, cq = np.empty((4, 2 * n))
    mul, sub, add, sqrt = np.multiply, np.subtract, np.add, math.sqrt

    def off_norm() -> float:
        off = a - np.diag(np.diag(a))
        return float(np.sqrt((off * off).sum()))

    converged = False
    for _ in range(MAX_SWEEPS):
        if off_norm() <= stop:
            converged = True
            break
        for p in range(n - 1):
            row_p = row[p]
            for q in range(p + 1, n):
                apq = item(p, q)
                if apq == 0.0:
                    continue
                app, aqq = diag[p], diag[q]
                # Smaller-angle rotation zeroing a[p, q].
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                c_[()], s_[()] = c, s
                row_q = row[q]
                # Each product is rounded once, as c * x and s * x, then combined.
                mul(c_, row_p, cp)
                mul(s_, row_p, sp)
                mul(s_, row_q, sq)
                mul(c_, row_q, cq)
                sub(cp, sq, row_p)
                add(sp, cq, row_q)
                # The 2x2 block, rounded as a column then a row update rounds it.
                row_p[p] = diag[p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
                row_q[q] = diag[q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
                row_q[p] = 0.0
                col[q][...] = head[q]  # the matrix stays exactly symmetric
            col[p][...] = head[p]  # column p is read again only after this loop
    else:
        converged = off_norm() <= stop
    if not converged:
        raise NoConvergenceError(MAX_SWEEPS, off_norm())

    eigenvalues = np.diag(a)
    order = np.argsort(-eigenvalues, kind="stable")
    # One norm per vector: a 2-D norm along an axis rounds differently.
    norms = np.array([np.linalg.norm(rows[i, n:]) for i in order])
    values = eigenvalues[order]
    vectors = (rows[order, n:] / norms[:, None]).T
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors


@dataclass(frozen=True)
class PcaStage:
    """Outcome of one PCA stage: spectrum, retained factors, factor scores."""

    column_ids: tuple[str, ...]
    eigenvalues: tuple[float, ...]
    variance_shares: tuple[float, ...]
    retained: int
    cumulative_variance: float
    loadings: np.ndarray            # columns x retained, sign-oriented
    scores: np.ndarray              # regions x retained
    factor_weights: tuple[float, ...]
    sign_flips: tuple[bool, ...]
    cap_reached_below_threshold: bool
    dropped_columns: tuple[str, ...] = field(default=())

    def combined(self) -> np.ndarray:
        """Variance-share weighted combination of the retained factor scores."""
        return self.scores @ np.array(self.factor_weights)


def pca_pillar(
    columns, column_ids: Sequence[str], cap: int = STAGE1_CAP
) -> tuple[PcaStage, np.ndarray]:
    """PCA-aggregate one pillar's normalized columns into a sub-index column.

    Retains the smallest factor count whose cumulative variance share
    reaches VARIANCE_THRESHOLD (but never fewer than PIPELINE_MIN_FACTORS),
    capped at ``cap``; reaching the cap below the threshold is flagged, not
    fatal. The sub-index is the variance-share weighted sum of the retained
    factor scores. Constant columns are dropped with a warning beforehand.
    """
    columns = np.asarray(columns, dtype=float)
    names = tuple(column_ids)

    keep = columns.max(axis=0) > columns.min(axis=0)
    dropped = tuple(name for name, varies in zip(names, keep) if not varies)
    if dropped:
        warnings.warn(
            f"constant columns dropped from PCA: {', '.join(dropped)}",
            DegenerateColumnWarning,
            stacklevel=2,
        )
    if not keep.any():
        raise ConstantColumnError(", ".join(names))
    columns = columns[:, keep]
    names = tuple(name for name, varies in zip(names, keep) if varies)

    centered = columns - columns.mean(axis=0)
    covariance = (centered.T @ centered) / columns.shape[0]
    eigenvalues, vectors = eigen_symmetric(covariance)

    # Covariance matrices are PSD; clip the tiny negative roundoff residues.
    shares = np.clip(eigenvalues, 0.0, None)
    shares = shares / shares.sum()
    cumulative = np.cumsum(shares)

    k = int(np.searchsorted(cumulative, VARIANCE_THRESHOLD - 1e-12) + 1)
    k = max(k, min(PIPELINE_MIN_FACTORS, len(eigenvalues)))
    cap_reached = k > cap and cumulative[cap - 1] < VARIANCE_THRESHOLD
    k = min(k, cap)
    if cap_reached:
        warnings.warn(
            f"factor cap {cap} reached below the {VARIANCE_THRESHOLD:.0%} variance threshold "
            f"(cumulative {cumulative[cap - 1]:.4f})",
            DegenerateColumnWarning,
            stacklevel=2,
        )

    # Orient each retained eigenvector so its loading sum is nonnegative. A sum
    # within roundoff of zero, |sum| <= (loading count) * eps * sum(|loading|),
    # falls back to a positive first loading above that bound.
    retained = vectors[:, :k].T  # one contiguous row per eigenvector
    # Each total is a 1-D sum; a 2-D reduction may add in another order.
    totals = np.array([vector.sum() for vector in retained])
    magnitudes = np.abs(retained)
    bound = magnitudes.sum(axis=1) * (retained.shape[1] * math.ulp(1.0))
    leading = retained[np.arange(k), (magnitudes > bound[:, None]).argmax(axis=1)]
    flips = np.where(np.abs(totals) <= bound, leading < 0, totals < 0)
    loadings = np.ascontiguousarray(np.where(flips[:, None], -retained, retained).T)
    scores = centered @ loadings
    retained_shares = shares[:k]
    weights = retained_shares / retained_shares.sum()

    loadings.flags.writeable = False
    scores.flags.writeable = False
    stage = PcaStage(
        column_ids=names,
        eigenvalues=tuple(eigenvalues.tolist()),
        variance_shares=tuple(shares.tolist()),
        retained=k,
        cumulative_variance=float(cumulative[k - 1]),
        loadings=loadings,
        scores=scores,
        factor_weights=tuple(weights.tolist()),
        sign_flips=tuple(flips.tolist()),
        cap_reached_below_threshold=bool(cap_reached),
        dropped_columns=dropped,
    )
    return stage, stage.combined()


@dataclass(frozen=True)
class PcaAudit:
    """Full trace of a two-stage PCA run, exportable as JSON; its mappings are read-only."""

    parameters: Mapping[str, object]
    pillar_stages: Mapping[Pillar, PcaStage]
    final_stage: PcaStage
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "parameters", MappingProxyType(dict(self.parameters)))
        object.__setattr__(self, "pillar_stages", MappingProxyType(dict(self.pillar_stages)))


#: Documented variance profile of the bundled dataset, used to annotate the
#: audit when the pipeline is run on it: per pillar (retained factors,
#: cumulative variance), and for the final stage (retained, cumulative,
#: first-factor share). Read-only at every level.
REFERENCE_VARIANCE_PROFILE: Mapping[str, object] = MappingProxyType({
    "pillars": MappingProxyType({
        Pillar.POPULATION: (2, 0.96),
        Pillar.SOCIAL_WELFARE: (2, 0.81),
        Pillar.ECONOMY: (3, 0.88),
        Pillar.ENVIRONMENT: (3, 0.84),
    }),
    "final": (2, 0.94, 0.80),
    "pillar_tolerance": 0.03,
    "final_tolerance": (0.03, 0.04),
})


def compute_pca(
    matrix: IndicatorMatrix,
    manifest: Manifest,
    *,
    reference_profile: Mapping[str, object] | None = None,
) -> tuple[IndexResult, PcaAudit]:
    """Two-stage PCA index over a normalized matrix.

    Stage one aggregates each pillar's columns into a sub-index; stage two
    aggregates the four sub-index columns into the raw index, which is then
    min-max rescaled and ranked. When ``reference_profile`` is given, the
    audit notes record how the measured retention counts and variances
    compare to it.
    """
    if matrix.stage is not Stage.NORMALIZED:
        raise ValueError("the PCA index is defined on a normalized matrix")

    pillar_stages: dict[Pillar, PcaStage] = {}
    sub_columns = []
    for pillar in PILLARS:
        ids = manifest.pillar_ids(pillar)
        stage, sub_index = pca_pillar(matrix.columns(ids), ids)
        pillar_stages[pillar] = stage
        sub_columns.append(sub_index)

    sub_matrix = np.column_stack(sub_columns)
    final_stage, raw_vector = pca_pillar(sub_matrix, [p.value for p in PILLARS], STAGE2_CAP)

    result = IndexResult(Method.PCA, matrix.regions, raw_vector)

    notes: list[str] = []
    if reference_profile is not None:
        notes.extend(_profile_notes(pillar_stages, final_stage, reference_profile))

    audit = PcaAudit(
        parameters={
            "basis": "covariance of mean-centered columns",
            "threshold": VARIANCE_THRESHOLD,
            "stage1_cap": STAGE1_CAP,
            "stage2_cap": STAGE2_CAP,
            "min_factors": PIPELINE_MIN_FACTORS,
            "score_convention": "centered data times unit eigenvector",
            "sign_convention": "loading sum nonnegative",
            "factor_weighting": "variance shares renormalized over retained factors",
        },
        pillar_stages=pillar_stages,
        final_stage=final_stage,
        notes=tuple(notes),
    )
    return result, audit


def _profile_notes(
    pillar_stages: Mapping[Pillar, PcaStage], final_stage: PcaStage, profile: Mapping
) -> list[str]:
    notes = []
    tol = profile["pillar_tolerance"]
    for pillar, (ref_k, ref_cv) in profile["pillars"].items():
        stage = pillar_stages[pillar]
        ok = stage.retained == ref_k and abs(stage.cumulative_variance - ref_cv) <= tol
        notes.append(
            f"{pillar.value}: retained {stage.retained} factors at cumulative variance "
            f"{stage.cumulative_variance:.4f} vs reference {ref_k} at {ref_cv:.2f} "
            f"({'within' if ok else 'OUTSIDE'} tolerance {tol})"
        )
    ref_k, ref_cv, ref_f1 = profile["final"]
    cv_tol, f1_tol = profile["final_tolerance"]
    f1 = final_stage.variance_shares[0]
    cv_ok = final_stage.retained == ref_k and abs(final_stage.cumulative_variance - ref_cv) <= cv_tol
    f1_ok = abs(f1 - ref_f1) <= f1_tol
    notes.append(
        f"final stage: retained {final_stage.retained} factors at cumulative variance "
        f"{final_stage.cumulative_variance:.4f} vs reference {ref_k} at {ref_cv:.2f} "
        f"({'within' if cv_ok else 'OUTSIDE'} tolerance {cv_tol}); first-factor share "
        f"{f1:.4f} vs reference {ref_f1:.2f} ({'within' if f1_ok else 'OUTSIDE'} tolerance {f1_tol})"
    )
    if not (cv_ok and f1_ok):
        notes.append(
            "final-stage variance concentration depends on the sub-index scale "
            "convention; rankings are the decisive check for this stage"
        )
    return notes


def _stage_payload(stage: PcaStage) -> dict:
    return {
        "columns": list(stage.column_ids),
        "eigenvalues": list(stage.eigenvalues),
        "variance_shares": list(stage.variance_shares),
        "retained": stage.retained,
        "cumulative_variance": stage.cumulative_variance,
        "loadings": [[float(v) for v in row] for row in stage.loadings],
        "factor_weights": list(stage.factor_weights),
        "sign_flips": list(stage.sign_flips),
        "cap_reached_below_threshold": stage.cap_reached_below_threshold,
        "dropped_constant_columns": list(stage.dropped_columns),
    }


def write_pca_audit(audit: PcaAudit, path: str | Path) -> None:
    """Write the PCA audit (eigenvalues, shares, loadings, flips, notes) as JSON."""
    payload = {
        "parameters": dict(audit.parameters),
        "pillar_stages": {
            pillar.value: _stage_payload(stage) for pillar, stage in audit.pillar_stages.items()
        },
        "final_stage": _stage_payload(audit.final_stage),
        "notes": list(audit.notes),
    }
    write_json(payload, path)
