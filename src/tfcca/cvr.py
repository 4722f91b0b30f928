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

The descent works on sufficient statistics, never on n-length arrays. With
the centered views factored as Q1 R1 and Q2 R2, every variate matrix it
visits is V_k = Q_k Z_k for an r_k x d matrix Z_k, and the training rows
enter only through M = Q1^T Q2, g_k = Q_k^T y, sum(y) and y^T y. Three
identities make each sweep exact algebra on r x d matrices:

- Q1^T V2 = M Z2 and Q2^T V1 = M^T Z1, the Procrustes targets;
- V_k^T V_k = Z_k^T Z_k, the Gram blocks of the least-squares fit;
- 1^T Q_k = 0 after centering, so in the (d+1) x (d+1) normal equations the
  intercept decouples to mean(y), and the objective has a closed form.

One private solver, _descend, runs the descent for a stack of such problems
on a leading axis; each sweep updates only the problems still active, that
is, not yet converged (the pattern of shape.register_batch). cvr_fit is a
stack of one. cvr_cross_validate centers and factors each split's training
rows once and stacks every (split, eta) problem, so its cost is one QR pair
per split plus a descent whose size does not depend on n.

The splits come from the standard library's Mersenne Twister, one stream
per repeat keyed by the string "rng_seed,repeat" (_split_permutations).
Python keeps random.Random's random() sequence stable across releases, so a
seed draws the same splits whatever the numpy version, and cvr never loads
numpy.random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cca import _as_matrix, _canonical_frame, _dominant_signs
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
    """Cross-validation record, under the cvr report's key names: the
    held-out MSE per eta (mean and sd over repeats) and the chosen eta; per
    repeat the winning eta, its MSE and C-index (NaN when its held-out
    responses all tie); the fits that reached CVR_MAX_ITER sweeps without
    meeting CVR_TOL; and the mean and sd over repeats of the winners' MSE
    and of the C-indices that are not NaN."""

    eta_grid: tuple
    mse_by_eta: tuple
    mse_sd_by_eta: tuple
    chosen_eta: float
    repeat_eta: np.ndarray
    repeat_mse: np.ndarray
    repeat_cindex: np.ndarray
    unconverged_fits: int
    mse_mean: float
    mse_sd: float
    cindex_mean: float
    cindex_sd: float


def _check_inputs(X1, X2, y, d: int, etas):
    """The checks a fit makes before any work, in the order it makes them."""
    n = X1.shape[0]
    if X2.shape[0] != n or y.shape != (n,):
        raise ValidationError("C1, C2 and y must have aligned rows")
    for eta in etas:
        if not (0.0 <= eta <= 1.0):
            raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("y contains non-finite values")
    if d < 1 or d > min(X1.shape[1], X2.shape[1]):
        raise ValidationError(
            f"d={d} infeasible for coefficient ranks {X1.shape[1]}, {X2.shape[1]}"
        )


def _statistics(X1, X2, y, d: int):
    """Center, QR-factor and check both views as cca does (_canonical_frame).
    Returns (m1, m2, R1, R2, stats), where stats is what the descent needs:
    (M, Q1^T y, Q2^T y, sum(y), y^T y, Z1, Z2), with Z1 and Z2 the classical
    CCA start, the leading d canonical singular vectors of M (orthonormal
    variates: unit Euclidean columns, not unit variance)."""
    m1, m2, Q1, Q2, R1, R2, M, U, _, V = _canonical_frame(X1, X2)
    return m1, m2, R1, R2, (M, Q1.T @ y, Q2.T @ y, y.sum(), y @ y, U[:, :d], V[:, :d])


def _t(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def _polar(A: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    return U @ Vt


def _ols(Z1, Z2, g1, g2, y_sum, n):
    """Least squares of [y; y] on [1, V1; 1, V2]. With 1^T V_k = 0 the normal
    equations are block diagonal: alpha = mean(y), and beta solves the d x d
    block (Z1^T Z1 + Z2^T Z2) beta = Z1^T g1 + Z2^T g2."""
    gram = _t(Z1) @ Z1 + _t(Z2) @ Z2
    rhs = _t(Z1) @ g1[..., None] + _t(Z2) @ g2[..., None]
    return y_sum / n, np.linalg.solve(gram, rhs)[..., 0]


def _objective(Z1, Z2, M, g1, g2, alpha, beta, y_sum, y_sq, n, eta):
    """eta ||V1 - V2||^2 + (1 - eta) sum_k ||y - alpha - V_k beta||^2 in
    closed form, one value per problem."""
    gap = ((Z1 * Z1).sum(axis=(1, 2)) + (Z2 * Z2).sum(axis=(1, 2))
           - 2.0 * (Z1 * (M @ Z2)).sum(axis=(1, 2)))
    y_alpha_sq = y_sq - 2.0 * alpha * y_sum + n * alpha * alpha  # ||y - alpha||^2
    fit = 0.0
    for Z, g in ((Z1, g1), (Z2, g2)):
        u = (Z @ beta[..., None])[..., 0]  # V_k beta = Q_k u
        fit = fit + y_alpha_sq - 2.0 * (g * u).sum(axis=1) + (u * u).sum(axis=1)
    return eta * gap + (1.0 - eta) * fit


def _descend(M, g1, g2, y_sum, y_sq, Z1, Z2, n, eta):
    """Block-coordinate descent for P stacked problems sharing n rows.

    M (P, r1, r2), g1 (P, r1), g2 (P, r2), y_sum and y_sq (P,) are each
    problem's statistics, Z1 (P, r1, d) and Z2 (P, r2, d) its start and eta
    (P,) its trade-off (see _statistics). Each sweep updates only the active
    problems; a problem leaves the active set once its objective falls by no
    more than CVR_TOL relative. Returns (Z1, Z2, alpha, beta, traces,
    converged), with one objective trace list per problem.
    """
    P, d = Z1.shape[0], Z1.shape[2]
    Z1, Z2 = Z1.copy(), Z2.copy()
    alpha, beta = np.empty(P), np.empty((P, d))
    traces = [[] for _ in range(P)]

    def refit(a):
        # least squares for problems a, then their objective onto the traces
        alpha[a], beta[a] = _ols(Z1[a], Z2[a], g1[a], g2[a], y_sum[a], n)
        f = _objective(Z1[a], Z2[a], M[a], g1[a], g2[a], alpha[a], beta[a],
                       y_sum[a], y_sq[a], n, eta[a])
        for p, v in zip(a.tolist(), f.tolist()):
            traces[p].append(v)
        return f

    active = np.arange(P)
    f = refit(active)
    converged = np.zeros(P, dtype=bool)
    for _ in range(CVR_MAX_ITER):
        if active.size == 0:
            break
        a = active
        e = eta[a, None, None]
        reg = (1.0 - e) * beta[a, None, :]
        Z1[a] = _polar(e * (M[a] @ Z2[a]) + g1[a, :, None] * reg)
        Z2[a] = _polar(e * (_t(M[a]) @ Z1[a]) + g2[a, :, None] * reg)
        prev, f[a] = f[a], refit(a)
        done = np.abs(prev - f[a]) <= CVR_TOL * np.maximum(1.0, np.abs(prev))
        converged[a[done]] = True
        active = a[~done]
    return Z1, Z2, alpha, beta, traces, converged


def cvr_fit(C1, C2, y, d: int, eta: float) -> CvrResult:
    """Fit canonical variate regression for a fixed eta in [0, 1].

    Both coefficient matrices are centered internally (the intercept absorbs
    the means) and the orthonormality constraint W^T C^T C W = I_d applies to
    the centered matrices. The centered matrices are QR-factored once, and
    the descent runs on their sufficient statistics M = Q1^T Q2, Q_k^T y,
    sum(y) and y^T y (see the module docstring) as a stack of one problem.
    It starts at the classical CCA solution, the leading d singular vectors
    of M, and runs until the objective stops falling (CVR_TOL, at most
    CVR_MAX_ITER sweeps). At eta = 1 the solution reduces to classical CCA;
    at eta = 0 it is least-squares regression on constrained variates.
    The largest-magnitude entry of each weights_1 column is positive, and
    weights_2 and beta flip with it, so the signs do not depend on the order
    of the rows (the descent's start, like cca's SVD, does).
    """
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    y = np.asarray(y, dtype=float)
    _check_inputs(X1, X2, y, d, (eta,))
    n = X1.shape[0]
    if n < 3:
        raise ValidationError(f"need n >= 3 paired rows, got {n}")
    m1, m2, R1, R2, stats = _statistics(X1, X2, y, d)
    Z1, Z2, alpha, beta, traces, converged = _descend(
        *(np.asarray(s)[None] for s in stats), n, np.array([float(eta)])
    )
    W1 = np.linalg.solve(R1, Z1[0])
    flips = _dominant_signs(W1)
    return CvrResult(
        weights_1=W1 * flips,
        weights_2=np.linalg.solve(R2, Z2[0]) * flips,
        alpha=float(alpha[0]),
        beta=beta[0] * flips,
        eta=eta,
        objective_trace=tuple(traces[0]),
        converged=bool(converged[0]),
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


def _split_permutations(n: int, repeats: int, rng_seed: int) -> np.ndarray:
    """One row per repeat: the order of n keys drawn by
    random.Random(f"{rng_seed},{rep}").random(), stable-sorted. The streams
    are independent, so the first k rows do not depend on repeats."""
    perms = np.empty((repeats, n), dtype=np.intp)
    for rep in range(repeats):
        draw = random.Random(f"{rng_seed},{rep}").random
        perms[rep] = np.argsort([draw() for _ in range(n)], kind="stable")
    return perms


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

    Each repeat draws a fresh train/test split, fits every eta on the
    training part and scores held-out MSE; the per-repeat winner is the
    minimum-MSE eta with ties broken toward larger eta. The concordance
    index is computed on the held-out negated predictions (shorter survival
    = higher risk). A repeat whose held-out responses all tie has no
    comparable pair: its C-index is NaN and left out of cindex_mean and
    cindex_sd, while its MSE and eta count. Only when no repeat has a
    comparable pair is the input rejected, before any descent.

    Repeat rep's rows are ordered by n keys from the standard library's
    Mersenne Twister, random.Random(f"{rng_seed},{rep}").random(), sorted
    stably; the first round(split * n) rows train and the rest are held out
    (_split_permutations).

    Every check cvr_fit makes runs before any descent: the row, eta, y and d
    checks once, then split by split, in split order, the rank and
    R-condition checks on its training rows. Each split's training rows are
    centered and QR-factored once; what is kept is its sufficient statistics
    (M = Q1^T Q2, Q_k^T y, sum(y), y^T y), the canonical SVD start, and its
    held-out rows centered by the training means and carried into the R^-1
    frame, where a fit's held-out variates are (X_k - m_k) R_k^-1 Z_k. All
    repeats x len(eta_grid) descents then run as one stack with an active
    mask, and each repeat is scored from its own small matrices.

    Returns one CvTrace.
    """
    X1, X2 = _as_matrix(C1, "C1"), _as_matrix(C2, "C2")
    y = np.asarray(y, dtype=float)
    n = X1.shape[0]
    eta_grid = tuple(float(e) for e in eta_grid)
    if not (0.0 < split < 1.0):
        raise ValidationError("split must be a fraction in (0, 1)")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    if rng_seed < 0:
        raise ValidationError(f"rng_seed must be >= 0, got {rng_seed}")
    if not eta_grid:
        raise ValidationError("eta_grid must list at least one value")
    n_train = int(round(split * n))
    if n_train < 3 or n - n_train < 1:
        raise ValidationError(f"split {split} leaves too few rows (n={n})")
    _check_inputs(X1, X2, y, d, eta_grid)

    stats, held_out = [], []
    for perm in _split_permutations(n, repeats, rng_seed):
        tr, te = perm[:n_train], perm[n_train:]
        m1, m2, R1, R2, split_stats = _statistics(X1[tr], X2[tr], y[tr], d)
        stats.append(split_stats)
        T1 = np.linalg.solve(R1.T, (X1[te] - m1).T).T
        T2 = np.linalg.solve(R2.T, (X2[te] - m2).T).T
        held_out.append((te, T1, T2))
    # held-out responses that all tie form no comparable pair, so that
    # repeat has no C-index
    scored = np.array([np.ptp(y[te]) > 0 for te, _, _ in held_out])
    if not scored.any():
        raise ValidationError(
            "no comparable pairs: the held-out survival times tie in every split"
        )

    # problem rep * E + j is split rep at eta_grid[j]
    E = len(eta_grid)
    Z1, Z2, alpha, beta, _, converged = _descend(
        *(np.repeat(np.array(col), E, axis=0) for col in zip(*stats)),
        n_train, np.tile(eta_grid, repeats),
    )
    u1, u2 = Z1 @ beta[..., None], Z2 @ beta[..., None]

    mse_matrix = np.empty((repeats, E))
    rep_eta = np.empty(repeats)
    rep_mse = np.empty(repeats)
    rep_cindex = np.full(repeats, np.nan)
    for rep, (te, T1, T2) in enumerate(held_out):
        rows = slice(rep * E, (rep + 1) * E)
        pred = alpha[rows, None] + 0.5 * (T1 @ u1[rows] + T2 @ u2[rows])[..., 0]
        mse = np.mean((y[te] - pred) ** 2, axis=1)
        mse_matrix[rep] = mse
        best = min(range(E), key=lambda j: (mse[j], -eta_grid[j]))
        rep_eta[rep] = eta_grid[best]
        rep_mse[rep] = mse[best]
        if scored[rep]:
            rep_cindex[rep] = concordance_index(-pred[best], y[te])

    mse_by_eta = mse_matrix.mean(axis=0)
    floor = mse_by_eta.min()
    ddof = min(repeats - 1, 1)  # sample sd; the sd of one repeat is 0
    return CvTrace(
        eta_grid=eta_grid,
        mse_by_eta=tuple(mse_by_eta),
        mse_sd_by_eta=tuple(mse_matrix.std(axis=0, ddof=ddof)),
        chosen_eta=float(max(e for e, m in zip(eta_grid, mse_by_eta) if m <= floor)),
        repeat_eta=rep_eta,
        repeat_mse=rep_mse,
        repeat_cindex=rep_cindex,
        unconverged_fits=int(np.count_nonzero(~converged)),
        mse_mean=float(rep_mse.mean()),
        mse_sd=float(rep_mse.std(ddof=ddof)),
        cindex_mean=float(rep_cindex[scored].mean()),
        cindex_sd=float(rep_cindex[scored].std(ddof=min(scored.sum() - 1, 1))),
    )


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
