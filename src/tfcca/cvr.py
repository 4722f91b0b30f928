"""Canonical variate regression: joint estimation of canonical weights and
regression coefficients, with eta tuned by repeated-split cross-validation.

The objective trades the Frobenius mismatch of the two variate matrices
(weight eta) against the squared regression residuals of both views
(weight 1 - eta), subject to per-view orthonormal variates. It is solved by
block-coordinate descent where each variate-matrix update is an orthogonal
Procrustes step inside the column space of its coefficient matrix, and the
regression parameters are refit by least squares on the stacked variates.
Every block update is an exact minimizer, so the objective is nonincreasing.
The descent starts at classical CCA, read off the canonical SVD of the two
views' own QR factors, so no separate CCA runs per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cca import _as_matrix, _canonical_svd, _check_r_factor
from .errors import ValidationError

# block-coordinate descent stops once the objective falls by no more than
# CVR_TOL relative, or after CVR_MAX_ITER sweeps
CVR_TOL = 1e-6
CVR_MAX_ITER = 500


@dataclass(frozen=True)
class CvrResult:
    weights_1: np.ndarray
    weights_2: np.ndarray
    alpha: float
    beta: np.ndarray
    eta: float
    objective_trace: tuple
    converged: bool
    col_means_1: np.ndarray
    col_means_2: np.ndarray


@dataclass(frozen=True)
class CvTrace:
    """Cross-validation summary: mean held-out MSE per eta value."""

    eta_grid: tuple
    mse_by_eta: tuple
    chosen_eta: float


def _qr_checked(X: np.ndarray, name: str):
    Q, R = np.linalg.qr(X)
    d = np.abs(np.diag(R))
    if d.min() <= d.max() * 1e-12:
        raise ValidationError(
            f"{name} is rank-deficient (a column has no variance after centering)"
        )
    return Q, R


def _polar(M: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt


def _ols(V1: np.ndarray, V2: np.ndarray, y: np.ndarray):
    n, d = V1.shape
    design = np.empty((2 * n, d + 1))
    design[:, 0] = 1.0
    design[:n, 1:] = V1
    design[n:, 1:] = V2
    target = np.concatenate([y, y])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(coef[0]), coef[1:]


def cvr_fit(C1, C2, y, d: int, eta: float) -> CvrResult:
    """Fit canonical variate regression for a fixed eta in [0, 1].

    Both coefficient matrices are centered internally (the intercept absorbs
    the means) and the orthonormality constraint W^T C^T C W = I_d applies to
    the centered matrices. The descent starts at the classical CCA solution,
    the leading d singular vectors of Q1^T Q2 from the centered matrices' own
    QR factors, and runs until the objective stops falling (CVR_TOL, at most
    CVR_MAX_ITER sweeps). At eta = 1 the solution reduces to classical CCA;
    at eta = 0 it is least-squares regression on constrained variates.
    """
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    y = np.asarray(y, dtype=float)
    n = X1.shape[0]
    if X2.shape[0] != n or y.shape != (n,):
        raise ValidationError("C1, C2 and y must have aligned rows")
    if not (0.0 <= eta <= 1.0):
        raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("y contains non-finite values")
    if d < 1 or d > min(X1.shape[1], X2.shape[1]):
        raise ValidationError(
            f"d={d} infeasible for coefficient ranks {X1.shape[1]}, {X2.shape[1]}"
        )

    m1, m2 = X1.mean(axis=0), X2.mean(axis=0)
    X1c, X2c = X1 - m1, X2 - m2
    Q1, R1 = _qr_checked(X1c, "C1")
    Q2, R2 = _qr_checked(X2c, "C2")
    if n < 3:
        raise ValidationError(f"need n >= 3 paired rows, got {n}")
    _check_r_factor(R1, 0.0, "C1")
    _check_r_factor(R2, 0.0, "C2")

    # warm start at the classical CCA solution in orthonormal variates
    # (unit Euclidean columns rather than unit sample variance)
    U, _, V = _canonical_svd(Q1.T @ Q2)
    Z1, Z2 = U[:, :d], V[:, :d]
    V1, V2 = Q1 @ Z1, Q2 @ Z2
    alpha, beta = _ols(V1, V2, y)

    def objective(V1, V2, alpha, beta):
        fit = 0.0
        for V in (V1, V2):
            resid = y - alpha - V @ beta
            fit += float(resid @ resid)
        gap = V1 - V2
        return eta * float((gap * gap).sum()) + (1 - eta) * fit

    trace = [objective(V1, V2, alpha, beta)]
    converged = False
    for _ in range(CVR_MAX_ITER):
        ytil = (y - alpha)[:, None]
        Z1 = _polar(Q1.T @ (eta * V2 + (1 - eta) * ytil * beta[None, :]))
        V1 = Q1 @ Z1
        Z2 = _polar(Q2.T @ (eta * V1 + (1 - eta) * ytil * beta[None, :]))
        V2 = Q2 @ Z2
        alpha, beta = _ols(V1, V2, y)
        trace.append(objective(V1, V2, alpha, beta))
        if abs(trace[-2] - trace[-1]) <= CVR_TOL * max(1.0, abs(trace[-2])):
            converged = True
            break

    if eta == 1.0:
        # rotate the converged pair onto the canonical axes so column j of
        # each view carries the j-th canonical correlation; this can only
        # decrease the eta-term and the regression term has zero weight
        U, _, Vt = np.linalg.svd(V1.T @ V2)
        Z1, Z2 = Z1 @ U, Z2 @ Vt.T
        V1, V2 = Q1 @ Z1, Q2 @ Z2
        alpha, beta = _ols(V1, V2, y)
        trace.append(objective(V1, V2, alpha, beta))

    W1 = np.linalg.solve(R1, Z1)
    W2 = np.linalg.solve(R2, Z2)
    return CvrResult(
        weights_1=W1,
        weights_2=W2,
        alpha=alpha,
        beta=beta,
        eta=eta,
        objective_trace=tuple(trace),
        converged=converged,
        col_means_1=m1,
        col_means_2=m2,
    )


def cvr_predict(result: CvrResult, C1, C2) -> np.ndarray:
    """Predict the response as alpha + mean of the two views' variate fits."""
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    V1 = (X1 - result.col_means_1) @ result.weights_1
    V2 = (X2 - result.col_means_2) @ result.weights_2
    return result.alpha + 0.5 * (V1 + V2) @ result.beta


DEFAULT_ETA_GRID = tuple(np.round(np.arange(0.0, 1.01, 0.1), 10))


def cvr_cross_validate(
    C1,
    C2,
    y,
    d: int,
    eta_grid=DEFAULT_ETA_GRID,
    split: float = 0.8,
    repeats: int = 100,
    rng_seed: int = 0,
):
    """Tune eta by repeated random splits.

    Each repeat draws a fresh train/test split (per-repeat RNG stream derived
    from rng_seed and the repeat index), fits every eta on the training part,
    and scores held-out MSE; the per-repeat winner is the minimum-MSE eta with
    ties broken toward larger eta. The concordance index is computed on the
    held-out negated predictions (shorter survival = higher risk).

    Returns (CvTrace, details) where details carries per-repeat chosen etas,
    MSEs, C-indices, mean/sd aggregates and held-out predictions.
    """
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    y = np.asarray(y, dtype=float)
    n = X1.shape[0]
    eta_grid = tuple(float(e) for e in eta_grid)
    if not (0.0 < split < 1.0):
        raise ValidationError("split must be a fraction in (0, 1)")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    n_train = int(round(split * n))
    if n_train < 3 or n - n_train < 1:
        raise ValidationError(f"split {split} leaves too few rows (n={n})")

    mse_matrix = np.empty((repeats, len(eta_grid)))
    rep_eta = np.empty(repeats)
    rep_mse = np.empty(repeats)
    rep_cindex = np.empty(repeats)
    predictions = []
    for rep in range(repeats):
        rng = np.random.default_rng([rng_seed, rep])
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        best_eta, best_mse, best_pred = None, np.inf, None
        for j, eta in enumerate(eta_grid):
            fit = cvr_fit(X1[tr], X2[tr], y[tr], d, eta)
            pred = cvr_predict(fit, X1[te], X2[te])
            mse = float(np.mean((y[te] - pred) ** 2))
            mse_matrix[rep, j] = mse
            if mse < best_mse or (mse == best_mse and eta > best_eta):
                best_eta, best_mse, best_pred = eta, mse, pred
        rep_eta[rep] = best_eta
        rep_mse[rep] = best_mse
        rep_cindex[rep] = concordance_index(-best_pred, y[te])
        predictions.append((te, best_pred))

    mse_by_eta = mse_matrix.mean(axis=0)
    floor = mse_by_eta.min()
    chosen = max(e for e, m in zip(eta_grid, mse_by_eta) if m <= floor)
    trace = CvTrace(eta_grid, tuple(mse_by_eta), float(chosen))
    details = {
        "repeat_eta": rep_eta,
        "repeat_mse": rep_mse,
        "repeat_cindex": rep_cindex,
        "mse_mean": float(rep_mse.mean()),
        "mse_sd": float(rep_mse.std(ddof=1)) if repeats > 1 else 0.0,
        "cindex_mean": float(rep_cindex.mean()),
        "cindex_sd": float(rep_cindex.std(ddof=1)) if repeats > 1 else 0.0,
        "predictions": predictions,
        "mse_sd_by_eta": tuple(
            mse_matrix.std(axis=0, ddof=1) if repeats > 1 else np.zeros(len(eta_grid))
        ),
    }
    return trace, details


def concordance_index(risk, time) -> float:
    """Fraction of comparable pairs whose risk ordering matches survival.

    A pair (i, j) is comparable when time_i < time_j; it scores 1 when
    risk_i > risk_j and 0.5 on risk ties. No censoring is supported.
    """
    r = np.asarray(risk, dtype=float)
    t = np.asarray(time, dtype=float)
    if r.shape != t.shape or r.ndim != 1 or r.size < 2:
        raise ValidationError("risk and time must be equal-length vectors (n >= 2)")
    num = 0.0
    den = 0
    chunk = 512
    for i0 in range(0, r.size, chunk):
        i1 = min(i0 + chunk, r.size)
        comparable = t[i0:i1, None] < t[None, :]
        den += int(comparable.sum())
        ri = r[i0:i1, None]
        num += float((comparable & (ri > r[None, :])).sum())
        num += 0.5 * float((comparable & (ri == r[None, :])).sum())
    if den == 0:
        raise ValidationError("no comparable pairs: all survival times tied")
    return num / den
