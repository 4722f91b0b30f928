"""Multivariate canonical correlation analysis on coefficient matrices.

CCA runs QR + SVD on the centered matrices, which avoids forming and
inverting covariance blocks; a ridge joins the QR as extra rows, so it does
not square the condition number either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_COND_LIMIT = 1e10


@dataclass(frozen=True)
class CcaResult:
    """Canonical correlations, weights and variates for two views.

    correlations is nonincreasing in [0,1] of length min(r1, r2). Weight
    columns are scaled so each variate has unit sample variance and
    correlates nonnegatively with its partner; variate columns within a view
    are mutually uncorrelated. The largest-magnitude entry of each weights_1
    column is positive, so the signs do not depend on the order of the rows.
    """

    correlations: np.ndarray
    weights_1: np.ndarray
    weights_2: np.ndarray
    variates_1: np.ndarray
    variates_2: np.ndarray
    col_means_1: np.ndarray
    col_means_2: np.ndarray


def _as_matrix(C, name: str) -> np.ndarray:
    M = np.asarray(C, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def _dominant_signs(A: np.ndarray) -> np.ndarray:
    """Sign of the largest-magnitude entry of each column of A (the first
    such entry on a tie)."""
    return np.sign(A[np.abs(A).argmax(axis=0), np.arange(A.shape[1])])


def _canonical_frame(X1: np.ndarray, X2: np.ndarray, ridge: float = 0.0):
    """The two-view frame that cca and cvr share.

    Centers each view and QR-factors it, with sqrt(ridge) * I stacked below
    when ridge > 0, so that R_k^T R_k = X_kc^T X_kc + ridge * I and the top
    n rows of Q_k, X_kc R_k^-1, span the centered view X_kc. The R factors
    are then rejected, at every ridge, first when one is rank-deficient
    (ValidationError; at ridge 0 a view with fewer rows than columns has a
    wide R whose missing pivots count as zero), then when one is
    ill-conditioned (NumericalError), C1 before C2 in each case. Returns
    (m1, m2, Q1, Q2, R1, R2, M, U, sig, V): the column means, the top-n Q
    factors, the R factors, M = Q1^T Q2 and its thin SVD M = U diag(sig)
    V^T with deterministic signs (the dominant entry of each column of U is
    positive, and V flips with it so pair correlations stay nonnegative).
    """
    n = X1.shape[0]

    def factor(X):
        mean = X.mean(axis=0)
        Xc = X - mean
        if ridge > 0:
            Xc = np.vstack([Xc, np.sqrt(ridge) * np.eye(X.shape[1])])
        Q, R = np.linalg.qr(Xc)
        # a wide R has no pivot for its last columns: zeros, so that the
        # rank check rejects it exactly, not through a rounding-size pivot
        pivots = np.zeros(X.shape[1])
        pivots[:len(R)] = np.abs(np.diag(R))
        return mean, Q[:n], R, pivots

    m1, Q1, R1, d1 = factor(X1)
    m2, Q2, R2, d2 = factor(X2)
    diagonals = (("C1", d1), ("C2", d2))
    for name, d in diagonals:
        if d.min() <= d.max() * 1e-12:
            raise ValidationError(
                f"{name} is rank-deficient at ridge {ridge:g} (a column has no "
                "variance after centering, or there are fewer rows than "
                "columns); cca needs a larger ridge (e.g. 1e-8 * trace of its "
                "covariance)"
            )
    for name, d in diagonals:
        if d.max() / d.min() > _COND_LIMIT:
            raise NumericalError(
                f"{name} is ill-conditioned at ridge {ridge:g} (R condition "
                f"{d.max() / d.min():.2e}); cca needs a larger ridge"
            )
    M = Q1.T @ Q2
    U, sig, Vt = np.linalg.svd(M, full_matrices=False)
    flips = _dominant_signs(U)
    return m1, m2, Q1, Q2, R1, R2, M, U * flips, sig, Vt.T * flips


def cca(C1, C2, ridge: float = 0.0):
    """Canonical correlation analysis between two coefficient matrices.

    Centers both matrices, QR-factors them, and reads the canonical
    correlations off the singular values of Q1^T Q2 (_canonical_frame). A
    ridge adds ridge * I to each view's centered cross-product, and the rank
    and condition checks apply at every ridge. Weights are back-solved
    through the R factors. The number of pairs is min(r1, r2).
    """
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    if X1.shape[0] != X2.shape[0]:
        raise ValidationError(
            f"row counts differ: {X1.shape[0]} vs {X2.shape[0]}"
        )
    n = X1.shape[0]
    if n < 3:
        raise ValidationError(f"need n >= 3 paired rows, got {n}")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ValidationError(f"ridge must be a finite number >= 0, got {ridge}")

    m1, m2, _, _, R1, R2, _, U, sig, V = _canonical_frame(X1, X2, ridge)
    W1 = np.linalg.solve(R1, U) * np.sqrt(n - 1)
    W2 = np.linalg.solve(R2, V) * np.sqrt(n - 1)
    V1, V2 = (X1 - m1) @ W1, (X2 - m2) @ W2
    # exact unit sample variance even when a ridge perturbed the scaling
    sd1 = np.sqrt((V1 * V1).sum(axis=0) / (n - 1))
    sd2 = np.sqrt((V2 * V2).sum(axis=0) / (n - 1))
    sd1 = np.where(sd1 > 0, sd1, 1.0)
    sd2 = np.where(sd2 > 0, sd2, 1.0)
    W1, W2 = W1 / sd1, W2 / sd2
    V1, V2 = V1 / sd1, V2 / sd2
    # U's signs follow the QR of the rows in their given order; the dominant
    # entries of the weights do not
    flips = _dominant_signs(W1)
    W1, W2, V1, V2 = W1 * flips, W2 * flips, V1 * flips, V2 * flips

    return CcaResult(
        correlations=np.clip(sig, 0.0, 1.0),
        weights_1=W1,
        weights_2=W2,
        variates_1=V1,
        variates_2=V2,
        col_means_1=m1,
        col_means_2=m2,
    )
