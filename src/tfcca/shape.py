"""Elastic shape analysis of closed planar curves.

Curves are represented by square-root velocity functions q = db/dt / sqrt|db/dt|,
which land on the unit sphere after length normalization and on the pre-shape
set C = {q : integral q|q| dt = 0} after a Newton projection. Registration
alternates rotation (Procrustes) and reparameterization (dynamic programming
over monotone lattice paths plus a cyclic seed search) until its cost stops
decreasing, and the shape distance is the arc length between registered
representatives.

The DP core is vectorized across curves and seed offsets so that Karcher
mean iterations over large samples stay affordable: every seed reads its
segment costs through a window view of one column-wrapped copy of each cost
table, and each lattice row keeps a running minimum over the slopes instead
of materializing and reducing a per-slope candidate array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, ValidationError
from .numerics import (
    DiscreteFunction,
    Grid,
    derivative,
    inner_product,
    norm,
    trapezoid_weights,
)
from .sphere import SpherePoint, TangentVector, exp_map, tangent_at
from .sphere import _log_rows, _remove_component

CLOSURE_TOL = 1e-4
# registration stops for a curve once a round lowers its cost by no more
# than this fraction of the previous round's cost
REGISTRATION_RTOL = 1e-3
# cap on the rigid-search/DP alternation rounds
REGISTRATION_ROUNDS = 8
# residual cyclic offsets the DP tries on each side of a rigid candidate
DP_WINDOW = 2
# coprime lattice steps with 1 <= p,s <= 4; non-coprime slopes decompose
# into repeated coprime steps of identical total cost
SLOPES = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1),
          (2, 3), (3, 2), (3, 4), (4, 3))
_BIG = 1e30
# curves per DP pass: bounds the (n, DP_CHUNK, S, n) row and choice arrays
DP_CHUNK = 16


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True, eq=False)
class Curve:
    """Closed planar curve: plane-valued periodic samples with
    beta[0] == beta[-1]."""

    beta: DiscreteFunction

    def __post_init__(self):
        b = self.beta
        if not b.is_planar or not b.periodic:
            raise ValidationError("a Curve must be plane-valued and periodic")
        gap = np.abs(b.values[0] - b.values[-1]).max()
        scale = np.abs(b.values).max() + 1e-12
        if gap > 1e-6 * scale:
            raise ValidationError(
                f"curve is not closed: endpoint gap {gap:.3g}"
            )

    @property
    def grid(self) -> Grid:
        return self.beta.grid


@dataclass(frozen=True, eq=False)
class Srvf:
    """Unit-norm SRVF satisfying the closure condition within closure_tol."""

    q: SpherePoint
    closure_tol: float = CLOSURE_TOL

    def __post_init__(self):
        f = self.q.f
        if not f.is_planar or not f.periodic:
            raise ValidationError("an Srvf must be plane-valued and periodic")
        res = closure_residual(f.values, f.grid)
        if np.abs(res).max() > self.closure_tol:
            raise ValidationError(
                f"closure residual {np.abs(res).max():.3g} exceeds "
                f"{self.closure_tol:.3g}"
            )

    @property
    def grid(self) -> Grid:
        return self.q.grid

    @property
    def residual(self) -> np.ndarray:
        return closure_residual(self.q.f.values, self.q.f.grid)


@dataclass(frozen=True)
class Registration:
    """Optimal rotation and reparameterization of one SRVF onto another.

    warp is the unwrapped circle warp (cyclic offset included), strictly
    increasing with winding number one. round_costs records the DP cost at
    the end of each alternation round actually run, so its length is the
    number of rounds used.
    """

    rotation: np.ndarray
    warp: DiscreteFunction
    cost: float
    round_costs: tuple = field(default=())


# ---------------------------------------------------------------------------
# closure condition

def closure_residual(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Componentwise integral q_j(t) |q(t)| dt, zero for closed curves."""
    speed = np.linalg.norm(values, axis=1)
    w = trapezoid_weights(grid.n_points)
    return (w * speed) @ values


def _constraint_gradients(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the closure functionals: |q| e_j + q_j q / |q|."""
    speed = np.linalg.norm(values, axis=1)
    safe = np.where(speed > 1e-14, speed, 1.0)
    unit = np.where(speed[:, None] > 1e-14, values / safe[:, None], 0.0)
    g1 = np.stack([speed, np.zeros_like(speed)], axis=1) + values[:, :1] * unit
    g2 = np.stack([np.zeros_like(speed), speed], axis=1) + values[:, 1:2] * unit
    return g1, g2


def project_to_preshape(
    q: SpherePoint,
    closure_tol: float = CLOSURE_TOL,
    max_iter: int = 50,
    max_residual: float = 0.5,
) -> Srvf:
    """Newton-project a sphere point onto the closure set.

    Repeatedly removes the residual along the two constraint gradients and
    renormalizes, until the componentwise residual drops below closure_tol.
    """
    grid = q.f.grid
    vals = q.f.values.copy()
    w = trapezoid_weights(grid.n_points)
    res = closure_residual(vals, grid)
    if np.linalg.norm(res) >= max_residual:
        raise ValidationError(
            f"closure residual {np.linalg.norm(res):.3g} outside the "
            f"projection basin ({max_residual:.3g})"
        )
    for _ in range(max_iter):
        if np.abs(res).max() <= closure_tol:
            point = SpherePoint(DiscreteFunction(grid, vals, periodic=True))
            return Srvf(point, closure_tol)
        g1, g2 = _constraint_gradients(vals)
        J = np.empty((2, 2))
        J[0, 0] = (w * (g1 * g1).sum(axis=1)).sum()
        J[0, 1] = J[1, 0] = (w * (g1 * g2).sum(axis=1)).sum()
        J[1, 1] = (w * (g2 * g2).sum(axis=1)).sum()
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular constraint system in projection")
        vals = vals + delta[0] * g1 + delta[1] * g2
        nrm = np.sqrt((w * (vals * vals).sum(axis=1)).sum())
        vals /= nrm
        res = closure_residual(vals, grid)
    raise ConvergenceError(
        f"pre-shape projection stalled at residual {np.abs(res).max():.3g}"
    )


# ---------------------------------------------------------------------------
# SRVF transform

def srvf(c: Curve, closure_tol: float = CLOSURE_TOL) -> Srvf:
    """SRVF of a closed curve: velocity over root speed, unit norm, closed."""
    vel = derivative(c.beta)
    speed = np.linalg.norm(vel.values, axis=1)
    if speed.max() < 1e-12:
        raise ValidationError("degenerate curve: zero velocity everywhere")
    root = np.sqrt(np.where(speed > 1e-14, speed, 1.0))
    qv = np.where(speed[:, None] > 1e-14, vel.values / root[:, None], 0.0)
    point = SpherePoint(DiscreteFunction(c.grid, qv, periodic=True))
    return project_to_preshape(point, closure_tol)


def srvf_inverse(q, closure_tol: float = CLOSURE_TOL) -> Curve:
    """Integrate q|q| back into a centered closed curve.

    Raises if the accumulated closure gap exceeds 10 * closure_tol; smaller
    gaps are distributed linearly so the output closes exactly.
    """
    point = q.q if isinstance(q, Srvf) else q
    vals = point.f.values
    grid = point.f.grid
    speed = np.linalg.norm(vals, axis=1)
    integrand = vals * speed[:, None]
    h = grid.spacing
    beta = np.zeros_like(vals)
    beta[1:] = np.cumsum(0.5 * h * (integrand[1:] + integrand[:-1]), axis=0)
    gap = beta[-1] - beta[0]
    if np.linalg.norm(gap) > 10 * closure_tol:
        raise ValidationError(
            f"closure gap {np.linalg.norm(gap):.3g} exceeds {10 * closure_tol:.3g}"
        )
    beta = beta - grid.points[:, None] * gap
    beta[-1] = beta[0]
    w = trapezoid_weights(grid.n_points)
    beta = beta - (w @ beta)
    return Curve(DiscreteFunction(grid, beta, periodic=True))


def curve_from_points(points, grid: Grid | None = None) -> Curve:
    """Resample a polygon (k x 2 vertices) by arc length onto the grid."""
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("curve points must be numbers") from None
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValidationError("need a (k, 2) array with k >= 3 vertices")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("curve points contain non-finite values")
    if np.abs(pts[0] - pts[-1]).max() > 1e-12:
        pts = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = seg.sum()
    if total <= 0:
        raise ValidationError("degenerate curve: zero length")
    s = np.concatenate([[0.0], np.cumsum(seg)]) / total
    grid = grid or Grid(pts.shape[0])
    vals = np.stack(
        [np.interp(grid.points, s, pts[:, 0]), np.interp(grid.points, s, pts[:, 1])],
        axis=1,
    )
    vals[-1] = vals[0]
    return Curve(DiscreteFunction(grid, vals, periodic=True))


# ---------------------------------------------------------------------------
# rotation

def optimal_rotation(q1: Srvf, q2: Srvf) -> np.ndarray:
    """Procrustes rotation maximizing <q1, O q2>.

    A = integral q1 q2^T dt; with SVD A = U S V^T the optimizer is
    U diag(1, det(UV^T)) V^T, always a proper rotation.
    """
    v1 = q1.q.f.values if isinstance(q1, Srvf) else q1
    v2 = q2.q.f.values if isinstance(q2, Srvf) else q2
    if v1.shape != v2.shape:
        raise ValidationError("SRVFs must share a grid")
    w = trapezoid_weights(v1.shape[0])
    A = (v1 * w[:, None]).T @ v2
    U, _, Vt = np.linalg.svd(A)
    D = np.diag([1.0, float(np.linalg.det(U @ Vt))])
    return U @ D @ Vt


# ---------------------------------------------------------------------------
# dynamic programming alignment

def _rigid_scores(q1_vals: np.ndarray, q2_stack: np.ndarray):
    """Joint seed/rotation search: for every cyclic grid offset of every q2,
    the rotation-optimal inner product with q1 and the optimizing angle.

    Uses FFT circular correlation, so all m offsets cost O(B m log m).
    Returns (scores, angles), each (B, m).
    """
    m = q1_vals.shape[0] - 1
    h = 1.0 / m
    a = q1_vals[:m]
    b = q2_stack[:, :m]
    fa = np.fft.rfft(a, axis=0)  # (F, 2)
    fb = np.fft.rfft(b, axis=1)  # (B, F, 2)
    A = np.empty((b.shape[0], m, 2, 2))
    for x in range(2):
        for y in range(2):
            A[:, :, x, y] = h * np.fft.irfft(
                np.conj(fa[:, x])[None, :] * fb[:, :, y], n=m, axis=1
            )
    angles = np.arctan2(A[..., 1, 0] - A[..., 0, 1], A[..., 0, 0] + A[..., 1, 1])
    scores = np.hypot(A[..., 0, 0] + A[..., 1, 1], A[..., 1, 0] - A[..., 0, 1])
    return scores, angles


def _segment_cost_tables(q1_vals, q2_chunk, nq1):
    """Per-slope local segment costs cost[b, a, u]: the trapezoidal integral
    of |q1 - (q2 o gamma) sqrt(gamma')|^2 over the segment starting at row a
    and circle position u, for each lattice slope.

    Sample positions along a (p, s) segment sit at rational offsets k*s/p
    from u; they split into an integer column roll plus a fixed interpolation
    fraction, so everything reduces to a handful of pre-rolled coarse
    cross-correlation tables.
    """
    Bc, n, _ = q2_chunk.shape
    m = n - 1
    h = 1.0 / m
    q2d = q2_chunk[:, :m]
    CG = np.einsum("td,bud->btu", q1_vals, q2d).astype(np.float32)  # (Bc, n, m)
    NQ = (q2d * q2d).sum(axis=2)  # (Bc, m)
    D2 = (q2d * q2d[:, (np.arange(m) + 1) % m]).sum(axis=2)  # <q2[u], q2[u+1]>

    max_roll = max((k * s) // p for p, s in SLOPES for k in range(p + 1)) + 1
    cols = [(np.arange(m) + c) % m for c in range(max_roll + 1)]
    CGr = [CG[:, :, c] for c in cols]
    NQr = [NQ[:, c] for c in cols]
    D2r = [D2[:, c] for c in cols]

    tables = []
    tmp = np.empty((Bc, n - 1, m), dtype=np.float32)
    for p, s in SLOPES:
        r = s / p
        sq = np.sqrt(r)
        # the only term that varies over all of (b, a, u) is the cross
        # correlation; the q1 and q2 speed terms reduce to 1-D marginals
        acc = np.zeros((Bc, n - p, m), dtype=np.float32)
        a1 = np.zeros(n - p)  # sum_k w_k |q1[a+k]|^2
        a2 = np.zeros((Bc, m))  # sum_k w_k |q2 at the k-th sample|^2
        for k in range(p + 1):
            wk = (0.5 if k in (0, p) else 1.0) * h
            of, fr = (k * s) // p, (k * s % p) / p
            scale = -2.0 * sq * wk
            view = tmp[:, : n - p, :]
            np.multiply(CGr[of][:, k : k + n - p], np.float32(scale * (1 - fr)), out=view)
            acc += view
            if fr != 0.0:
                np.multiply(CGr[of + 1][:, k : k + n - p], np.float32(scale * fr), out=view)
                acc += view
            a1 += wk * nq1[k : k + n - p]
            if fr == 0.0:
                a2 += (wk * r) * NQr[of]
            else:
                a2 += (wk * r) * (
                    (1 - fr) ** 2 * NQr[of]
                    + 2 * fr * (1 - fr) * D2r[of]
                    + fr * fr * NQr[of + 1]
                )
        acc += a1[None, :, None].astype(np.float32)
        acc += a2[:, None, :].astype(np.float32)
        tables.append(acc)
    return tables


def _dp_align_batch(q1_vals: np.ndarray, q2_stack: np.ndarray, offsets: np.ndarray):
    """Best monotone lattice warp of each q2 onto q1 over cyclic seeds.

    q1_vals: (n, 2); q2_stack: (B, n, 2); offsets: (S,) integer grid offsets
    shared by the whole batch. Returns (gammas (B, n) including the seed
    offset, costs (B,)).

    Seed sigma reads cost[b, a, (j + offsets[sigma]) mod m] at column j
    through a window view of one column-wrapped copy of each table (the view
    itself for consecutive offsets, a copy for spread ones). Each lattice
    row keeps a running minimum over SLOPES in order and takes a candidate,
    and its slope, only when strictly smaller: ties keep the first slope,
    and unreachable nodes keep _BIG and choice -1.
    """
    B, n, _ = q2_stack.shape
    m = n - 1
    h = 1.0 / m
    offsets = np.asarray(offsets, dtype=int)
    S = offsets.size
    lo = int(offsets.min())
    span = int(offsets.max()) - lo
    wrap_cols = (lo + np.arange(span + n)) % m
    seeds = offsets - lo
    contiguous = np.array_equal(seeds, np.arange(span + 1))

    gammas = np.empty((B, n))
    costs = np.empty(B)
    nq1 = (q1_vals * q1_vals).sum(axis=1)  # (n,)
    arange_n = np.arange(n)

    for b0 in range(0, B, DP_CHUNK):
        b1 = min(b0 + DP_CHUNK, B)
        Bc = b1 - b0
        # seeded[si][b, a, sig, j] = cost[b, a, (j + offsets[sig]) mod m]
        seeded = []
        for tab in _segment_cost_tables(q1_vals, q2_stack[b0:b1], nq1):
            win = sliding_window_view(tab[:, :, wrap_cols], n, axis=2)
            seeded.append(win if contiguous else win[:, :, seeds])

        rows = np.full((n, Bc, S, n), _BIG, dtype=np.float32)
        rows[0, :, :, 0] = 0.0
        choice = np.full((n, Bc, S, n), -1, dtype=np.int8)
        cand = np.empty((Bc, S, n), dtype=np.float32)
        less = np.empty((Bc, S, n), dtype=bool)
        for i in range(1, n):
            for si, (p, s) in enumerate(SLOPES):
                if p > i:
                    continue
                c, lt, row = cand[:, :, s:], less[:, :, s:], rows[i, :, :, s:]
                np.add(rows[i - p, :, :, : n - s], seeded[si][:, i - p, :, : n - s],
                       out=c)
                np.less(c, row, out=lt)
                np.copyto(row, c, where=lt)
                np.copyto(choice[i, :, :, s:], np.int8(si), where=lt)

        end = rows[n - 1, :, :, n - 1]  # (Bc, S)
        sbest = end.argmin(axis=1)
        for b in range(Bc):
            sb = int(sbest[b])
            i, j = n - 1, n - 1
            inodes, jnodes = [i], [j]
            while i > 0:
                si = int(choice[i, b, sb, j])
                if si < 0:
                    raise ConvergenceError("DP backtrack hit an unreachable node")
                p, s = SLOPES[si]
                i -= p
                j -= s
                inodes.append(i)
                jnodes.append(j)
            inodes.reverse()
            jnodes.reverse()
            gam = np.interp(arange_n, inodes, jnodes) * h
            off = int(offsets[sb])
            gammas[b0 + b] = gam + off * h
            costs[b0 + b] = float(end[b, sb])
    return gammas, costs


_SMOOTH_WIDTHS = (3, 5, 9, 13)


def _smoothed_warp(gamma: np.ndarray, grid: Grid, width: int) -> np.ndarray:
    """Circular moving average of the warp's deviation from the identity.

    Preserves the winding number exactly; the caller must re-check
    monotonicity.
    """
    t = grid.points
    m = grid.n_points - 1
    dev = (gamma - t)[:m]
    ext = np.concatenate([dev[-width:], dev, dev[:width]])
    sm = np.convolve(ext, np.full(width, 1.0 / width), mode="same")[
        width : width + m
    ]
    return np.concatenate([sm, sm[:1]]) + t


def _warp_action_vals(q_vals: np.ndarray, gamma: np.ndarray, grid: Grid) -> np.ndarray:
    """(q, gamma) = q(gamma(t)) sqrt(gamma'(t)) for a circle warp.

    gamma is unwrapped with winding one, so its derivative is periodic; the
    seam uses the wrapped central difference to keep the output's endpoints
    identified exactly.
    """
    pos = np.mod(gamma, 1.0)
    t = grid.points
    warped = np.stack(
        [np.interp(pos, t, q_vals[:, 0]), np.interp(pos, t, q_vals[:, 1])], axis=1
    )
    h = grid.spacing
    gd = np.empty_like(gamma)
    gd[1:-1] = (gamma[2:] - gamma[:-2]) / (2 * h)
    gd[0] = gd[-1] = (gamma[1] - gamma[-2] + 1.0) / (2 * h)
    warped *= np.sqrt(np.maximum(gd, 0.0))[:, None]
    warped[-1] = warped[0]
    return warped


def _compose_warps(outer: np.ndarray, inner: np.ndarray, grid: Grid) -> np.ndarray:
    """(outer o inner)(t) for unwrapped degree-1 circle warps."""
    whole = np.floor(inner)
    frac = inner - whole
    vals = np.interp(frac, grid.points, outer)
    return vals + whole


def optimal_warp(q1: Srvf, q2: Srvf):
    """Minimize |q1 - (q2 o gamma) sqrt(gamma')|^2 over circle warps by DP
    alone: no rotation search, no smoothing.

    Dynamic programming over monotone lattice paths on the SRVFs' own grid,
    repeated exhaustively for evenly spaced cyclic start offsets of q2 (one
    per ten grid cells). This is the plain reference that register improves
    on. Returns (warp including the start offset, cost).
    """
    v1, v2 = q1.q.f.values, q2.q.f.values
    if v1.shape != v2.shape:
        raise ValidationError("SRVFs must share a grid")
    grid = q1.q.f.grid
    m = grid.n_points - 1
    starts = np.linspace(0.0, m, max(1, m // 10), endpoint=False)
    offs = np.unique(np.floor(starts).astype(int))
    gam, cost = _dp_align_batch(v1, v2[None], offs)
    return DiscreteFunction(grid, gam[0]), float(cost[0])


# ---------------------------------------------------------------------------
# registration, distance, mean

def _local_maxima_offsets(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k circular local peaks of each score row (basin centers)."""
    B, m = scores.shape
    left = np.roll(scores, 1, axis=1)
    right = np.roll(scores, -1, axis=1)
    is_peak = (scores > left) & (scores >= right)
    out = np.zeros((B, k), dtype=int)
    for b in range(B):
        peaks = np.flatnonzero(is_peak[b])
        if peaks.size == 0:
            peaks = np.array([int(scores[b].argmax())])
        order = peaks[np.argsort(-scores[b][peaks], kind="stable")]
        chosen = list(order[:k])
        while len(chosen) < k:
            chosen.append(chosen[-1])
        out[b] = chosen
    return out


def _apply_rigid(cur: np.ndarray, pick: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Cyclic integer roll and rotation of each SRVF in a batch (exact)."""
    B, n, _ = cur.shape
    m = n - 1
    out = np.empty_like(cur)
    for b in range(B):
        rolled = np.roll(cur[b, :m], -pick[b], axis=0)
        out[b, :m] = rolled
        out[b, m] = rolled[0]
    O = np.empty((B, 2, 2))
    c, s = np.cos(theta), np.sin(theta)
    O[:, 0, 0] = c
    O[:, 0, 1] = -s
    O[:, 1, 0] = s
    O[:, 1, 1] = c
    return np.einsum("bxy,bty->btx", O, out), O


def register_batch(
    q1: Srvf,
    qs: list,
    rounds: int = REGISTRATION_ROUNDS,
    rigid_candidates: int = 3,
):
    """Register every SRVF in qs onto q1; returns [(Registration, Srvf)].

    Each round starts with an exhaustive rigid search (every cyclic offset
    scored with its own Procrustes rotation; applied exactly as an integer
    roll plus rotation), followed by dynamic programming over a window of
    +-DP_WINDOW residual offsets. In the first round the top
    rigid_candidates score basins are all pushed through the DP and the
    cheapest wins, since near-symmetric shapes can make the rigid score
    prefer the wrong basin. The composed transforms are applied to the
    originals in one pass and re-projected to the pre-shape set.

    Rounds alternate until the round cost stops decreasing: a curve stops
    after the first round that lowers its cost by no more than
    REGISTRATION_RTOL of the previous round's cost, and only the curves
    still improving get another round. rounds caps the alternation. Each
    curve's result is the same whichever curves share its batch.
    """
    grid = q1.q.f.grid
    n = grid.n_points
    h = grid.spacing
    t = grid.points
    v1 = q1.q.f.values
    stack = np.stack([q.q.f.values for q in qs])
    B = stack.shape[0]
    window = np.arange(-DP_WINDOW, DP_WINDOW + 1)

    O_tot = np.broadcast_to(np.eye(2), (B, 2, 2)).copy()
    gamma_tot = np.broadcast_to(t, (B, n)).copy()
    cur = stack.copy()
    round_costs = np.empty((rounds, B))
    used = np.zeros(B, dtype=int)
    active = np.arange(B)
    for rnd in range(rounds):
        if active.size == 0:
            break
        A = active.size
        arange_a = np.arange(A)
        scores, angles = _rigid_scores(v1, cur[active])
        k = max(1, rigid_candidates) if rnd == 0 else 1
        if k > 1:
            cands = _local_maxima_offsets(scores, k)
        else:
            cands = scores.argmax(axis=1)[:, None]

        # push every rigid candidate through the DP; cheapest final cost wins
        flat_pick = cands.reshape(-1)
        flat_theta = angles[np.repeat(arange_a, k), flat_pick]
        flat_cur = np.repeat(cur[active], k, axis=0)
        flat_cur, flat_O = _apply_rigid(flat_cur, flat_pick, flat_theta)
        gam, cost = _dp_align_batch(v1, flat_cur, window)
        best = cost.reshape(A, k).argmin(axis=1)
        sel = arange_a * k + best
        pick = flat_pick[sel]
        O_tot[active] = np.einsum("bxy,byz->bxz", flat_O[sel], O_tot[active])
        gam = gam[sel]
        # a squared norm; float32 rounding in the DP can leave it just below
        # zero, which would read as a decrease at every round
        cost = np.maximum(cost.reshape(A, k)[arange_a, best], 0.0)
        round_costs[rnd, active] = cost
        used[active] = rnd + 1

        gam_total_round = gam + (pick * h)[:, None]  # roll folded into the warp
        for a, b in enumerate(active):
            gamma_tot[b] = _compose_warps(gamma_tot[b], gam_total_round[a], grid)
            # roll and rotation already applied; only the DP warp remains
            cur[b] = _warp_action_vals(flat_cur[sel[a]], gam[a], grid)
        if rnd > 0:
            # a curve leaves once its round cost stops decreasing
            prev = round_costs[rnd - 1, active]
            active = active[prev - cost > REGISTRATION_RTOL * prev]

    out = []
    w = trapezoid_weights(n)
    for b in range(B):
        rotated = np.einsum("xy,ty->tx", O_tot[b], stack[b])

        def raw_cost(gamma):
            vals = _warp_action_vals(rotated, gamma, grid)
            diff = v1 - vals
            return float((w * (diff * diff).sum(axis=1)).sum()), vals

        # safeguarded smoothing of the composed warp: the lattice slope set
        # quantizes sqrt(gamma'), so the DP output oscillates around the
        # smooth optimum; keep a smoothed version only when it helps
        best_gamma = gamma_tot[b]
        best_cost, best_vals = raw_cost(best_gamma)
        for width in _SMOOTH_WIDTHS:
            cand = _smoothed_warp(gamma_tot[b], grid, width)
            if np.any(np.diff(cand) < 0):
                continue
            cost_c, vals_c = raw_cost(cand)
            if cost_c < best_cost:
                best_gamma, best_cost, best_vals = cand, cost_c, vals_c

        point = SpherePoint(DiscreteFunction(grid, best_vals, periodic=True))
        star = project_to_preshape(point)
        diff = v1 - star.q.f.values
        final_cost = float((w * (diff * diff).sum(axis=1)).sum())
        reg = Registration(
            rotation=O_tot[b],
            warp=DiscreteFunction(grid, best_gamma),
            cost=final_cost,
            round_costs=tuple(round_costs[: used[b], b]),
        )
        out.append((reg, star))
    return out


def register(q1: Srvf, q2: Srvf, rounds: int = REGISTRATION_ROUNDS):
    """Register q2 onto q1; returns (Registration, registered q2).

    Alternates rigid search (three first-round candidates) and DP until the
    round cost stops decreasing (relative tolerance REGISTRATION_RTOL), for
    at most `rounds` rounds; see register_batch.
    """
    return register_batch(q1, [q2], rounds=rounds)[0]


def _aligned_distance(q1: Srvf, q2: Srvf) -> float:
    _, star = register(q1, q2)
    ip = np.clip(inner_product(q1.q.f, star.q.f), -1.0, 1.0)
    return float(np.arccos(ip))


def shape_distance(q1: Srvf, q2: Srvf) -> float:
    """Geodesic shape distance, symmetrized over the two DP directions.

    Each direction registers until the round cost stops decreasing (see
    register).
    """
    return min(_aligned_distance(q1, q2), _aligned_distance(q2, q1))


def preshape_normal_basis(mean: Srvf):
    """Orthonormal basis (phi1, phi2) of the closure-constraint directions
    inside the sphere tangent space at the mean."""
    vals = mean.q.f.values
    grid = mean.q.f.grid
    g1, g2 = _constraint_gradients(vals)

    def fn(a):
        return DiscreteFunction(grid, a, periodic=True)

    base = mean.q.f
    p1 = fn(g1) - inner_product(fn(g1), base) * base
    p1 = p1 * (1.0 / norm(p1))
    p2 = fn(g2) - inner_product(fn(g2), base) * base - inner_product(fn(g2), p1) * p1
    p2 = p2 * (1.0 / norm(p2))
    return p1, p2


def _preshape_tangents(mean: Srvf, stars) -> np.ndarray:
    """Log maps at the mean of registered SRVFs, with the two
    closure-constraint components removed: an (n, M, 2) array."""
    base = mean.q.f
    w = trapezoid_weights(base.grid.n_points)
    V = _log_rows(base.values, np.stack([s.q.f.values for s in stars]), w)
    for phi in preshape_normal_basis(mean):
        V = _remove_component(V, phi.values, w)
    return V


def project_Pi(q, mean: Srvf):
    """Project SRVF(s) onto the pre-shape tangent space at the mean.

    Three steps: register to the mean, inverse-exponential map at the mean,
    then removal of the two closure-constraint components. Accepts a single
    Srvf or a list; returns TangentVector(s) accordingly. Registration tries
    two first-round rigid candidates and runs per curve until its round cost
    stops decreasing (see register_batch).
    """
    single = isinstance(q, Srvf)
    qs = [q] if single else list(q)
    regs = register_batch(mean, qs, rigid_candidates=2)
    rows = _preshape_tangents(mean, [star for _, star in regs])
    out = [tangent_at(mean.q, v) for v in rows]
    return out[0] if single else out


def shape_karcher_mean(
    qs: list,
    tol: float = 1e-4,
    max_iter: int = 30,
    step: float = 1.0,
    stagnation_rtol: float = 2e-3,
    return_info: bool = False,
):
    """Karcher mean shape: registration + tangent averaging fixed point.

    Each iteration registers every curve to the current mean (one round, one
    rigid candidate), averages the constraint-projected log maps, and steps
    along the exponential map, re-projecting to the pre-shape set. The step is halved when an update
    would increase the registered variance, so the variance trace is
    non-increasing by construction. Stops on a small mean tangent, an
    iteration cap, or when the variance improves by less than
    stagnation_rtol of its value (registration granularity limit).
    """
    if not qs:
        raise ValidationError("shape_karcher_mean needs at least one SRVF")
    mean = qs[0]
    if len(qs) == 1:
        if return_info:
            return mean, {"iterations": 0, "variance_trace": (0.0,),
                          "gradient_norm": 0.0, "converged": True}
        return mean

    def registered_variance(candidate):
        regs = register_batch(candidate, qs, rounds=1, rigid_candidates=1)
        dists = [
            np.arccos(np.clip(inner_product(candidate.q.f, star.q.f), -1, 1))
            for _, star in regs
        ]
        return float(np.mean(np.square(dists))), regs

    V, regs = registered_variance(mean)
    trace = [V]
    gnorm = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rows = _preshape_tangents(mean, [star for _, star in regs])
        direction = tangent_at(mean.q, rows.mean(axis=0))
        gnorm = direction.length
        if gnorm <= tol:
            converged = True
            break
        s = step
        cand = V_cand = regs_cand = None
        while s >= step / 2:
            point = exp_map(mean.q, TangentVector(mean.q, direction.v * s))
            cand = project_to_preshape(point)
            V_cand, regs_cand = registered_variance(cand)
            if V_cand <= V + 1e-12:
                break
            s /= 2
        if V_cand is None or V_cand > V + 1e-12:
            break  # stagnated: registration noise dominates
        improvement = V - V_cand
        mean, V, regs = cand, V_cand, regs_cand
        trace.append(V)
        if improvement <= stagnation_rtol * max(V, 1e-12):
            converged = True
            break
    if return_info:
        return mean, {
            "iterations": iterations,
            "variance_trace": tuple(trace),
            "gradient_norm": gnorm,
            "converged": converged,
        }
    return mean


def shape_tangent_coordinates(curves: list) -> tuple[Srvf, list]:
    """Map closed curves into the pre-shape tangent space at their Karcher
    mean: SRVF of every curve, shape_karcher_mean, then project_Pi.

    The shape counterpart of density.pdf_tangent_coordinates; returns
    (mean, tangents).
    """
    qs = [srvf(c) for c in curves]
    mean = shape_karcher_mean(qs)
    return mean, project_Pi(qs, mean)


def shape_variate_direction(
    mean: Srvf, basis, weights, epsilons, closure_tol: float = CLOSURE_TOL
) -> list:
    """Closed curves along a basis direction through the mean shape.

    For each step size, follows the sphere exponential map, projects back to
    the pre-shape set numerically, and integrates the SRVF into a curve.
    """
    direction = basis.direction(np.asarray(weights, dtype=float))
    out = []
    for eps in epsilons:
        point = exp_map(mean.q, TangentVector(mean.q, direction.v * float(eps)))
        # visualization may start far from the constraint set; let the
        # Newton projection run from wherever the exponential map lands
        closed = project_to_preshape(
            point, closure_tol=closure_tol, max_residual=np.inf
        )
        out.append(srvf_inverse(closed, closure_tol))
    return out
