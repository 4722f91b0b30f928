"""Multivariate canonical correlation analysis on coefficient matrices.

The primary route is QR + SVD on the centered matrices, which avoids forming
and inverting covariance blocks. cca_oracle solves the classical generalized
eigenproblem on explicit covariance blocks and exists as an independent
cross-check.
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
    are mutually uncorrelated.
    """

    correlations: np.ndarray
    weights_1: np.ndarray
    weights_2: np.ndarray
    variates_1: np.ndarray
    variates_2: np.ndarray
    regularization_used: float
    col_means_1: np.ndarray
    col_means_2: np.ndarray


def _as_matrix(C, name: str) -> np.ndarray:
    rows = getattr(C, "rows", C)
    M = np.asarray(rows, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def _check_r_factor(R: np.ndarray, ridge: float, name: str):
    if ridge > 0.0:
        return
    d = np.abs(np.diag(R))
    if d.min() <= d.max() * 1e-12:
        raise NumericalError(
            f"{name} is numerically rank-deficient; supply ridge > 0 "
            "(e.g. 1e-8 * trace of its covariance)"
        )
    if d.max() / d.min() > _COND_LIMIT:
        raise NumericalError(
            f"{name} is ill-conditioned (R condition {d.max() / d.min():.2e}); "
            "supply ridge > 0"
        )


def _canonical_svd(M: np.ndarray):
    """Thin SVD M = U diag(sig) V^T with deterministic signs: the dominant
    entry of each left vector is positive, and its right vector flips with
    it so pair correlations stay nonnegative. Returns (U, sig, V)."""
    U, sig, Vt = np.linalg.svd(M, full_matrices=False)
    flips = np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])
    return U * flips, sig, Vt.T * flips


def cca(C1, C2, ridge: float = 0.0):
    """Canonical correlation analysis between two coefficient matrices.

    Centers both matrices, takes thin QR factors, and reads the canonical
    correlations off the singular values of Q1^T Q2. Weights are back-solved
    through the (optionally ridge-stabilized) R factors. The number of pairs
    is min(r1, r2).
    """
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    if X1.shape[0] != X2.shape[0]:
        raise ValidationError(
            f"row counts differ: {X1.shape[0]} vs {X2.shape[0]}"
        )
    n = X1.shape[0]
    if n < 3:
        raise ValidationError(f"need n >= 3 paired rows, got {n}")
    if ridge < 0:
        raise ValidationError("ridge must be nonnegative")

    m1, m2 = X1.mean(axis=0), X2.mean(axis=0)
    X1c, X2c = X1 - m1, X2 - m2
    Q1, R1 = np.linalg.qr(X1c)
    Q2, R2 = np.linalg.qr(X2c)
    _check_r_factor(R1, ridge, "C1")
    _check_r_factor(R2, ridge, "C2")

    if ridge == 0.0:
        M = Q1.T @ Q2
        S1, S2 = R1, R2
    else:
        S1 = np.linalg.cholesky(R1.T @ R1 + ridge * np.eye(R1.shape[1])).T
        S2 = np.linalg.cholesky(R2.T @ R2 + ridge * np.eye(R2.shape[1])).T
        cross = X1c.T @ X2c
        M = np.linalg.solve(S1.T, np.linalg.solve(S2.T, cross.T).T)

    U, sig, V = _canonical_svd(M)
    W1 = np.linalg.solve(S1, U) * np.sqrt(n - 1)
    W2 = np.linalg.solve(S2, V) * np.sqrt(n - 1)
    V1, V2 = X1c @ W1, X2c @ W2
    # exact unit sample variance even when a ridge perturbed the scaling
    sd1 = np.sqrt((V1 * V1).sum(axis=0) / (n - 1))
    sd2 = np.sqrt((V2 * V2).sum(axis=0) / (n - 1))
    sd1 = np.where(sd1 > 0, sd1, 1.0)
    sd2 = np.where(sd2 > 0, sd2, 1.0)
    W1, W2 = W1 / sd1, W2 / sd2
    V1, V2 = V1 / sd1, V2 / sd2

    return CcaResult(
        correlations=np.clip(sig, 0.0, 1.0),
        weights_1=W1,
        weights_2=W2,
        variates_1=V1,
        variates_2=V2,
        regularization_used=ridge,
        col_means_1=m1,
        col_means_2=m2,
    )


def cca_oracle(C1, C2) -> np.ndarray:
    """Correlations from the generalized eigenproblem on covariance blocks.

    Forms S11^-1 S12 S22^-1 S21 explicitly; the square roots of its
    eigenvalues are the canonical correlations. Independent verification
    path for cca(); not meant for ill-conditioned inputs.
    """
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    n = X1.shape[0]
    X1c = X1 - X1.mean(axis=0)
    X2c = X2 - X2.mean(axis=0)
    S11 = X1c.T @ X1c / (n - 1)
    S22 = X2c.T @ X2c / (n - 1)
    S12 = X1c.T @ X2c / (n - 1)
    A = np.linalg.solve(S11, S12) @ np.linalg.solve(S22, S12.T)
    ev = np.linalg.eigvals(A)
    rho = np.sqrt(np.clip(ev.real, 0.0, 1.0))
    rho.sort()
    m = min(X1.shape[1], X2.shape[1])
    return rho[::-1][:m]
