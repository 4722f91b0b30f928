"""Elastic shape analysis of closed planar curves.

Curves are represented by square-root velocity functions q = db/dt / sqrt|db/dt|,
which land on the unit sphere after length normalization and on the pre-shape
set C = {q : integral q|q| dt = 0} after a Newton projection. Registration
alternates rotation (Procrustes) and reparameterization (dynamic programming
over monotone lattice paths plus a cyclic seed search) until its cost stops
decreasing, and the shape distance is the arc length between registered
representatives.

The DP core is vectorized across curves and seed offsets, and it searches
only a band of the lattice: the nodes within DP_BAND = 4 cells of the
diagonal, held in band coordinates (row i, diagonal k = j - i). After rigid
alignment the paths stay close to the diagonal (on grid 200, within 2 cells
in Karcher passes and within 5 in project_Pi). Every seed reads its band as
a slice of one cost table, and each lattice row is one stacked update over
all slopes. Only the last five rows are kept, so of the DP state only the
int8 choices grow with n; the float32 cost tables are the largest array of
a pass. A curve whose optimal path touches the band edge is redone with the
band doubled, up to the full lattice; optimal_warp is the case of a band as
wide as the grid. The banded result equals the full-lattice DP whenever the
full optimum lies inside the final band.

After the DP, registration runs on stacked (B, n[, 2]) arrays, and
_preshape_rows is the one Newton projection: a row leaves its active set
once closed, so it gets the bits it would get alone. Every integral is
numerics._integrate_rows, so the same holds for every row map here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError
from .numerics import (
    DiscreteFunction,
    Grid,
    _integrate_rows,
    _interp_rows,
    _ip_rows,
    derivative,
)
from .sphere import KarcherMeanResult, SpherePoint, Tangents
from .sphere import _angle_rows, _geodesic_rows, _log_rows, _remove_component
from .sphere import _sphere_rows, geodesic_distance, tangent_at

# pre-shape projection: closure residual an Srvf may keep, Newton step cap
CLOSURE_TOL = 1e-4
PRESHAPE_MAX_ITER = 50
# shape Karcher mean: see shape_karcher_mean
KARCHER_TOL = 1e-4
KARCHER_MAX_ITER = 30
KARCHER_STAGNATION_RTOL = 2e-3
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
# half-width |j - i| of the lattice band the DP starts from; a curve whose
# path touches the band edge is redone with the band doubled
DP_BAND = 4
# lattice cells (rows x band width x seeds x curves) per DP pass. It bounds
# the int8 choices, the only DP state that grows with n (the rows are a ring
# of five). The float32 cost tables, the largest array of a pass (about 18
# times the choices at band 4 and 5 seeds), are not bounded by it
DP_CELLS = 1 << 20


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
    """Unit-norm SRVF satisfying the closure condition within CLOSURE_TOL."""

    q: SpherePoint

    def __post_init__(self):
        f = self.q.f
        if not f.is_planar or not f.periodic:
            raise ValidationError("an Srvf must be plane-valued and periodic")
        res = closure_residual(f.values)
        if np.abs(res).max() > CLOSURE_TOL:
            raise ValidationError(
                f"closure residual {np.abs(res).max():.3g} exceeds {CLOSURE_TOL:.3g}"
            )

    @property
    def grid(self) -> Grid:
        return self.q.grid

    @property
    def residual(self) -> np.ndarray:
        return closure_residual(self.q.f.values)


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

def closure_residual(values: np.ndarray) -> np.ndarray:
    """Componentwise integral q_j(t) |q(t)| dt of (..., n, 2) samples."""
    speed = np.linalg.norm(values, axis=-1)
    return _integrate_rows(np.swapaxes(values * speed[..., None], -1, -2))


def _constraint_gradients(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the closure functionals: |q| e_j + q_j q / |q|."""
    speed = np.linalg.norm(values, axis=-1)
    safe = np.where(speed > 1e-14, speed, 1.0)
    unit = np.where(speed[..., None] > 1e-14, values / safe[..., None], 0.0)
    g1 = np.stack([speed, np.zeros_like(speed)], axis=-1) + values[..., :1] * unit
    g2 = np.stack([np.zeros_like(speed), speed], axis=-1) + values[..., 1:] * unit
    return g1, g2


def _preshape_rows(vals, max_residual: float = 0.5) -> np.ndarray:
    """Newton-project the unit-norm rows of a (B, n, 2) stack onto the closure
    set. Rows must start with a residual norm below max_residual; each step
    removes the residual along the two constraint gradients and renormalizes
    the rows still active."""
    vals = vals.copy()
    res = closure_residual(vals)
    res_norm = np.sqrt((res[:, None, :] @ res[:, :, None])[:, 0, 0])
    if np.any(res_norm >= max_residual):
        raise ValidationError(
            f"closure residual {res_norm.max():.3g} outside the "
            f"projection basin ({max_residual:.3g})"
        )
    active = np.arange(len(vals))
    for _ in range(PRESHAPE_MAX_ITER):
        active = active[~(np.abs(res[active]).max(axis=1) <= CLOSURE_TOL)]
        if active.size == 0:
            return vals
        v = vals[active]
        g = np.stack(_constraint_gradients(v), axis=1)  # (A, 2, n, 2)
        J = _integrate_rows((g[:, :, None] * g[:, None]).sum(axis=-1))
        try:
            delta = np.linalg.solve(J, -res[active][..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular constraint system in projection")
        v = v + delta[:, 0, None, None] * g[:, 0] + delta[:, 1, None, None] * g[:, 1]
        v /= np.sqrt(_integrate_rows((v * v).sum(axis=-1)))[:, None, None]
        vals[active] = v
        res[active] = closure_residual(v)
    raise ConvergenceError(
        f"pre-shape projection stalled at residual {np.abs(res[active]).max():.3g}"
    )


def _srvfs(vals: np.ndarray, grid: Grid) -> list:
    """Srvf of every row of a projected (B, n, 2) stack."""
    return [Srvf(SpherePoint(DiscreteFunction(grid, v, periodic=True))) for v in vals]


def project_to_preshape(q: SpherePoint) -> Srvf:
    """Newton-project a sphere point onto the closure set: _preshape_rows of one row."""
    return _srvfs(_preshape_rows(q.f.values[None]), q.grid)[0]


# ---------------------------------------------------------------------------
# SRVF transform

def srvf(c: Curve) -> Srvf:
    """SRVF of a closed curve: velocity over root speed, unit norm, closed."""
    vel = derivative(c.beta)
    speed = np.linalg.norm(vel.values, axis=1)
    if speed.max() < 1e-12:
        raise ValidationError("degenerate curve: zero velocity everywhere")
    root = np.sqrt(np.where(speed > 1e-14, speed, 1.0))
    qv = np.where(speed[:, None] > 1e-14, vel.values / root[:, None], 0.0)
    point = SpherePoint(DiscreteFunction(c.grid, qv, periodic=True))
    return project_to_preshape(point)


def srvf_inverse(q) -> Curve:
    """Integrate q|q| back into a centered closed curve.

    Raises if the accumulated closure gap exceeds 10 * CLOSURE_TOL; smaller
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
    if np.linalg.norm(gap) > 10 * CLOSURE_TOL:
        raise ValidationError(
            f"closure gap {np.linalg.norm(gap):.3g} exceeds {10 * CLOSURE_TOL:.3g}"
        )
    beta = beta - grid.points[:, None] * gap
    beta[-1] = beta[0]
    beta = beta - _integrate_rows(beta.T)
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
# dynamic programming alignment

def _rigid_scores(q1_vals: np.ndarray, q2_stack: np.ndarray):
    """Joint seed/rotation search: for every cyclic grid offset of every q2,
    the rotation-optimal inner product with q1 and the optimizing angle.

    Uses FFT circular correlation, so all m offsets cost O(B m log m).
    Returns (scores, angles), each (B, m).
    """
    m = q1_vals.shape[0] - 1
    return _spectral_rigid_scores(np.fft.rfft(q1_vals[:m], axis=0),
                                  np.fft.rfft(q2_stack[:, :m], axis=1), m)


def _spectral_rigid_scores(fa: np.ndarray, fb: np.ndarray, m: int):
    """_rigid_scores from the rfft over the m distinct samples of q1, an
    (F, 2) array, and of every q2, a (B, F, 2) array."""
    h = 1.0 / m
    A = np.empty((fb.shape[0], m, 2, 2))
    for x in range(2):
        for y in range(2):
            A[:, :, x, y] = h * np.fft.irfft(
                np.conj(fa[:, x])[None, :] * fb[:, :, y], n=m, axis=1
            )
    angles = np.arctan2(A[..., 1, 0] - A[..., 0, 1], A[..., 0, 0] + A[..., 1, 1])
    scores = np.hypot(A[..., 0, 0] + A[..., 1, 1], A[..., 1, 0] - A[..., 0, 1])
    return scores, angles


def _band_cost_tables(q1_vals, q2_chunk, nq1, first, width):
    """Per-slope local segment costs in band coordinates, a (len(SLOPES), n,
    width, Bc) float32 array: entry [si, a, c, b] is the trapezoidal integral
    of |q1 - (q2_b o gamma) sqrt(gamma')|^2 over the slope-si segment that
    starts at row a and circle position u = (a + first + c) mod m, that is on
    diagonal first + c. Rows a >= n - p of slope (p, s) stay zero: only row
    0 of a slope with p >= n is ever read, by a predecessor above row 0.

    Sample k of a (p, s) segment sits at circle position u + k*s/p: an
    integer column offset plus a fixed interpolation fraction. Read along the
    diagonals of the coarse cross correlation <q1[t], q2[u]>, that offset is
    a fixed column shift of one diagonal-sheared copy, so every term is a
    slice of that copy, and only the `width` diagonals the band needs are
    ever formed.
    """
    Bc, n, _ = q2_chunk.shape
    m = n - 1
    h = 1.0 / m
    q2d = q2_chunk[:, :m]
    NQ = (q2d * q2d).sum(axis=2).T  # (m, Bc)
    D2 = (q2d * q2d[:, (np.arange(m) + 1) % m]).sum(axis=2).T  # <q2[u], q2[u+1]>

    max_roll = max((k * s) // p for p, s in SLOPES for k in range(p + 1)) + 1
    cols = [(np.arange(m) + c) % m for c in range(max_roll + 1)]
    NQr = [NQ[c] for c in cols]
    D2r = [D2[c] for c in cols]

    # sheared[t, e, b] = <q1[t], q2_b[u]> at u = (t + first - back + e) mod m:
    # sample k, at column offset of, of the segment from (a, a + first + c)
    # reads sheared[a + k, c + of - k + back]. Each q2 component is gathered
    # from its own (m, Bc) plane and multiplied in place; the float64 sum is
    # cast to float32 once, and the float64 staging is freed before the tables
    back = max(p for p, _ in SLOPES)
    rows = np.arange(n)[:, None]
    at = (rows + first - back + np.arange(width + back + max_roll)) % m  # (n, E)
    prod = q2d[:, :, 0].T[at]  # (n, E, Bc)
    prod *= q1_vals[:, 0, None, None]
    term = q2d[:, :, 1].T[at]
    term *= q1_vals[:, 1, None, None]
    prod += term
    del term
    sheared = prod.astype(np.float32)
    del prod
    circle = (rows + first + np.arange(width)) % m  # (n, width) positions u

    tables = np.zeros((len(SLOPES), n, width, Bc), dtype=np.float32)
    tmp = np.empty((n - 1, width, Bc), dtype=np.float32)
    for si, (p, s) in enumerate(SLOPES):
        r = s / p
        sq = np.sqrt(r)
        # the only term that varies over all of (a, c, b) is the cross
        # correlation; the q1 and q2 speed terms reduce to 1-D marginals
        acc = tables[si, : n - p]
        a1 = np.zeros(n - p)  # sum_k w_k |q1[a+k]|^2
        a2 = np.zeros((m, Bc))  # sum_k w_k |q2 at the k-th sample|^2
        view = tmp[: n - p]
        for k in range(p + 1):
            wk = (0.5 if k in (0, p) else 1.0) * h
            of, fr = (k * s) // p, (k * s % p) / p
            scale = -2.0 * sq * wk
            e = of - k + back
            np.multiply(sheared[k : k + n - p, e : e + width],
                        np.float32(scale * (1 - fr)), out=view)
            acc += view
            if fr != 0.0:
                np.multiply(sheared[k : k + n - p, e + 1 : e + 1 + width],
                            np.float32(scale * fr), out=view)
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
        acc += a1[:, None, None].astype(np.float32)
        # a cast commutes with a gather, so a2 is cast on its (m, Bc) layout
        np.take(a2.astype(np.float32), circle[: n - p], axis=0, out=view)
        acc += view
    return tables


def _dp_band_pass(q1_vals, q2_chunk, offsets, band):
    """One DP pass of a chunk of curves inside the band |j - i| <= band.

    Returns (gammas (Bc, n) including the seed offset, costs (Bc,), edge
    (Bc,) bool: the winning seed's path touches |j - i| = band).
    """
    Bc, n, _ = q2_chunk.shape
    m = n - 1
    h = 1.0 / m
    S = offsets.size
    lo = int(offsets.min())
    span = int(offsets.max()) - lo
    W = 2 * band + 1  # band column kk holds k = j - i = kk - band
    pad = max(abs(s - p) for p, s in SLOPES)  # farthest diagonal step
    top = max(p for p, _ in SLOPES)  # rows above row 0 that stay unreachable
    Wp = W + 2 * pad
    # table column c holds diagonal lo - band - pad + c, so seed sig reads a
    # predecessor in band column kk from column pad + kk + offsets[sig] - lo
    D = Wp + span
    tables = _band_cost_tables(q1_vals, q2_chunk, (q1_vals * q1_vals).sum(axis=1),
                               lo - band - pad, D)
    P = np.array([p for p, _ in SLOPES])
    step = np.array([s - p for p, s in SLOPES])  # change of k along each slope
    # ring[i % R, pad + kk, sig, b]: best cost to node (i, i + kk - band).
    # A row reads back at most top rows, so R = top + 1 slots hold every row
    # still read; the pad columns stay _BIG, and so do the slots of the rows
    # above row 0 until row i overwrites row i - R
    R = top + 1
    ring = np.full((R, Wp, S, Bc), _BIG, dtype=np.float32)
    ring[0, pad + band] = 0.0
    choice = np.full((n, W, S, Bc), -1, dtype=np.int8)
    # flat positions of every slope's predecessor in ring, by the slot of
    # row i, and of its segment in tables (plus the table row); a slope
    # longer than i reads a row above row 0 and table row 0, so its
    # candidate stays _BIG
    pred = pad + np.arange(W) - step[:, None]  # (NS, W) predecessor columns
    ring_at = ((np.arange(R)[:, None] - P) % R)[:, :, None] * Wp + pred  # (R, NS, W)
    tab_at = ((np.arange(len(SLOPES)) * n * D)[:, None, None] + pred[:, :, None]
              + (offsets - lo))
    tab_row = np.maximum(np.arange(n)[:, None] - P, 0)[:, :, None, None] * D
    flat_ring = ring.reshape(-1, S * Bc)
    flat_tables = tables.reshape(-1, Bc)
    # the first slope attaining the minimum has the largest rank over ties
    rank = np.arange(len(SLOPES), 0, -1, dtype=np.int8)[:, None, None, None]
    for i in range(1, n):
        cand = np.take(flat_ring, ring_at[i % R], axis=0).reshape(-1, W, S, Bc)
        cand += np.take(flat_tables, tab_at + tab_row[i], axis=0)
        best = cand.min(axis=0)
        ring[i % R, pad : pad + W] = best
        first = len(SLOPES) - (np.equal(cand, best) * rank).max(axis=0)
        np.copyto(choice[i], first, where=best < _BIG)

    end = ring[m % R, pad + band]  # (S, Bc)
    sbest = end.argmin(axis=0)
    gammas = np.empty((Bc, n))
    costs = np.empty(Bc)
    edge = np.zeros(Bc, dtype=bool)
    for b in range(Bc):
        sb = int(sbest[b])
        path = choice[:, :, sb, b].tolist()
        i, kk = m, band
        inodes, knodes = [i], [kk]
        while i > 0:
            si = path[i][kk]
            if si < 0:
                raise ConvergenceError("DP backtrack hit an unreachable node")
            p, s = SLOPES[si]
            i -= p
            kk -= s - p
            inodes.append(i)
            knodes.append(kk)
        edge[b] = min(knodes) == 0 or max(knodes) == W - 1
        jnodes = [i + kk - band for i, kk in zip(inodes, knodes)]
        inodes.reverse()
        jnodes.reverse()
        gammas[b] = np.interp(np.arange(n), inodes, jnodes) * h + int(offsets[sb]) * h
        costs[b] = float(end[sb, b])
    return gammas, costs, edge & (band < m)


def _dp_align_batch(q1_vals: np.ndarray, q2_stack: np.ndarray, offsets: np.ndarray,
                    band: int = DP_BAND):
    """Best monotone lattice warp of each q2 onto q1 over cyclic seeds.

    q1_vals: (n, 2); q2_stack: (B, n, 2); offsets: (S,) integer grid offsets
    shared by the whole batch. Returns (gammas (B, n) including the seed
    offset, costs (B,)).

    Only lattice nodes (i, j) with |k| <= band, k = j - i, are evaluated, and
    the cost tables, rows and choices are held in band coordinates (i, k).
    Seed sigma reads cost[b, a, (j + offsets[sigma]) mod m], which is
    diagonal k + offsets[sigma] of row a, so every seed's band is a slice at
    a fixed offset of one table. Each lattice row takes one stacked update
    over all SLOPES: a gather of the predecessors, an add, the minimum over
    slopes and the first slope attaining it (the same rule as a strict `<`
    over SLOPES in order). Unreachable nodes keep _BIG and choice -1.

    The band starts at `band` cells (DP_BAND = 4, which holds the 2-cell
    paths of Karcher passes; the up to 5-cell paths of project_Pi take one
    redo). A curve whose winning path touches |k| = band is redone with the
    band doubled, up to the full lattice at band >= m, which is what
    optimal_warp asks for. The start band changes only the work: the result
    equals the full-lattice DP whenever the full optimum lies inside the
    final band. It is not guaranteed otherwise: a full optimum outside the
    band goes unseen when the band's own best path stays off its edge.

    Memory: a row reads back at most four rows, so a pass keeps five rows in
    a ring, and of its DP state only the int8 choices scale with n; DP_CELLS
    bounds them. The float32 cost tables are the largest array of a pass and
    are not bounded by DP_CELLS.
    """
    B, n, _ = q2_stack.shape
    m = n - 1
    offsets = np.asarray(offsets, dtype=int)
    gammas = np.empty((B, n))
    costs = np.empty(B)
    todo = np.arange(B)
    band = min(band, m)
    while todo.size:
        # curves per pass: bounds the (n, 2 band + 1, S, chunk) int8 choices,
        # the only DP state that grows with n; the cost tables are larger
        chunk = max(1, DP_CELLS // (n * (2 * band + 1) * offsets.size))
        redo = []
        for c0 in range(0, todo.size, chunk):
            idx = todo[c0 : c0 + chunk]
            gammas[idx], costs[idx], edge = _dp_band_pass(
                q1_vals, q2_stack[idx], offsets, band)
            redo.append(idx[edge])
        todo = np.concatenate(redo)
        band = min(2 * band, m)
    return gammas, costs


_SMOOTH_WIDTHS = (3, 5, 9, 13)


def _smoothed_warp(gamma: np.ndarray, grid: Grid, width: int) -> np.ndarray:
    """Circular moving average of each (B, n) warp's deviation from the
    identity. Preserves the winding number exactly; the caller must re-check
    monotonicity. The cyclically padded rows are laid end to end for one
    np.convolve, so every kept window, which lies inside one row, gets the
    arithmetic of a per-row np.convolve (a sum of shifted slices does not)."""
    t = grid.points
    m = grid.n_points - 1
    dev = (gamma - t)[:, :m]
    # width samples on each side, read round the circle (width may exceed m)
    ext = dev[:, np.arange(-width, m + width) % m]
    flat = np.convolve(np.concatenate([ext.ravel(), np.zeros(width - 1)]),
                       np.full(width, 1.0 / width), mode="valid")
    # one output per padded sample; the window centred on padded sample
    # width + i starts at width - width // 2 + i
    start = width - width // 2
    sm = flat.reshape(len(gamma), -1)[:, start : start + m]
    return np.concatenate([sm, sm[:, :1]], axis=1) + t


def _warp_action_vals(q_vals: np.ndarray, gamma: np.ndarray, grid: Grid) -> np.ndarray:
    """(q, gamma) = q(gamma(t)) sqrt(gamma'(t)) for (..., n, 2) q_vals and
    (..., n) circle warps gamma, leading axes broadcast.

    gamma is unwrapped with winding one, so its derivative is periodic; the
    seam uses the wrapped central difference to keep the output's endpoints
    identified exactly.
    """
    warped = _interp_rows(np.mod(gamma, 1.0), grid.points, q_vals)
    h = grid.spacing
    gd = np.empty_like(gamma)
    gd[..., 1:-1] = (gamma[..., 2:] - gamma[..., :-2]) / (2 * h)
    gd[..., 0] = gd[..., -1] = (gamma[..., 1] - gamma[..., -2] + 1.0) / (2 * h)
    warped *= np.sqrt(np.maximum(gd, 0.0))[..., None]
    warped[..., -1, :] = warped[..., 0, :]
    return warped


def _chain_warps(outer: np.ndarray, inner: np.ndarray, grid: Grid) -> np.ndarray:
    """(outer o inner)(t) for (B, n) unwrapped degree-1 circle warps."""
    whole = np.floor(inner)
    return _interp_rows(inner - whole, grid.points, outer) + whole


def optimal_warp(q1: Srvf, q2: Srvf):
    """Minimize |q1 - (q2 o gamma) sqrt(gamma')|^2 over circle warps by DP
    alone: no rotation search, no smoothing.

    Dynamic programming over monotone lattice paths on the SRVFs' own grid,
    repeated exhaustively for evenly spaced cyclic start offsets of q2 (one
    per ten grid cells). It is the DP of register with the band as wide as
    the grid, so every lattice node is evaluated. This is the plain
    reference that register improves on. Returns (warp including the start
    offset, cost).
    """
    v1, v2 = q1.q.f.values, q2.q.f.values
    if v1.shape != v2.shape:
        raise ValidationError("SRVFs must share a grid")
    grid = q1.q.f.grid
    m = grid.n_points - 1
    starts = np.linspace(0.0, m, max(1, m // 10), endpoint=False)
    offs = np.unique(np.floor(starts).astype(int))
    gam, cost = _dp_align_batch(v1, v2[None], offs, band=m)
    return DiscreteFunction(grid, gam[0]), float(cost[0])


# ---------------------------------------------------------------------------
# registration, distance, mean

def _local_maxima_offsets(scores: np.ndarray, k: int) -> np.ndarray:
    """The k highest circular local peaks of each (B, m) score row (basin
    centers), best first, as a (B, k) array. A peak is above its left
    neighbour and not below its right one; a row with no peak (a constant
    one) takes its argmax, equal scores go to the lower offset, and a row
    with fewer than k peaks repeats its last."""
    rows = np.arange(len(scores))
    is_peak = (scores > np.roll(scores, 1, axis=1)) & (scores >= np.roll(scores, -1, axis=1))
    flat = ~is_peak.any(axis=1)
    is_peak[flat, scores[flat].argmax(axis=1)] = True
    masked = np.where(is_peak, scores, -np.inf)
    out = np.zeros((len(scores), k), dtype=int)
    for j in range(k):
        pick = masked.argmax(axis=1)
        out[:, j] = np.where(masked[rows, pick] > -np.inf, pick, out[:, j - 1])
        masked[rows, pick] = -np.inf
    return out


def _apply_rigid(cur: np.ndarray, pick: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Cyclic integer roll and rotation of each SRVF in a batch (exact)."""
    B, n, _ = cur.shape
    # sample t of curve b reads sample (t + pick[b]) mod m, so the closing
    # sample repeats the new first one
    out = cur[np.arange(B)[:, None], (np.arange(n) + pick[:, None]) % (n - 1)]
    O = np.empty((B, 2, 2))
    c, s = np.cos(theta), np.sin(theta)
    O[:, 0, 0] = c
    O[:, 0, 1] = -s
    O[:, 1, 0] = s
    O[:, 1, 1] = c
    return np.einsum("bxy,bty->btx", O, out), O


def _rigid_align(v1: np.ndarray, stack: np.ndarray, k: int):
    """The k best rigid alignments onto v1 of each SRVF of a (B, n, 2) stack:
    the top k basins of its rigid scores (see _local_maxima_offsets), each
    applied exactly as an integer roll plus rotation. Returns the aligned
    (B * k, n, 2) stack, whose row b * k + j is candidate j of curve b, with
    the (B * k,) offsets and (B * k, 2, 2) rotations."""
    scores, angles = _rigid_scores(v1, stack)
    pick = _local_maxima_offsets(scores, k).reshape(-1)
    theta = angles[np.repeat(np.arange(len(stack)), k), pick]
    aligned, O = _apply_rigid(np.repeat(stack, k, axis=0), pick, theta)
    return aligned, pick, O


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
    v1 = q1.q.f.values
    stack = np.stack([q.q.f.values for q in qs])
    B = stack.shape[0]
    window = np.arange(-DP_WINDOW, DP_WINDOW + 1)

    O_tot = np.broadcast_to(np.eye(2), (B, 2, 2)).copy()
    gamma_tot = np.broadcast_to(grid.points, (B, n)).copy()
    cur = stack.copy()
    round_costs = np.empty((rounds, B))
    used = np.zeros(B, dtype=int)
    active = np.arange(B)
    for rnd in range(rounds):
        if active.size == 0:
            break
        A = active.size
        arange_a = np.arange(A)
        k = max(1, rigid_candidates) if rnd == 0 else 1
        # push every rigid candidate through the DP; cheapest final cost wins
        flat_cur, flat_pick, flat_O = _rigid_align(v1, cur[active], k)
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

        # the roll is folded into the composed warp; cur already has the
        # roll and rotation applied, so only the DP warp acts on it
        gamma_tot[active] = _chain_warps(gamma_tot[active], gam + (pick * h)[:, None],
                                           grid)
        cur[active] = _warp_action_vals(flat_cur[sel], gam, grid)
        if rnd > 0:
            # a curve leaves once its round cost stops decreasing
            prev = round_costs[rnd - 1, active]
            active = active[prev - cost > REGISTRATION_RTOL * prev]

    # safeguarded smoothing: the lattice slope set quantizes sqrt(gamma'), so
    # the DP warp oscillates around the smooth optimum; each curve keeps the
    # first of its raw warp and monotone smoothings with the lowest cost
    rotated = np.einsum("bxy,bty->btx", O_tot, stack)
    warps = np.stack([gamma_tot] + [_smoothed_warp(gamma_tot, grid, width)
                                    for width in _SMOOTH_WIDTHS])  # (C, B, n)
    vals = _warp_action_vals(rotated[None], warps, grid)
    diff = v1 - vals
    costs = _integrate_rows((diff * diff).sum(axis=-1))
    costs[1:][(np.diff(warps[1:], axis=-1) < 0).any(axis=-1)] = np.inf
    pick = costs.argmin(axis=0)
    stars = _preshape_rows(_sphere_rows(vals[pick, np.arange(B)]))
    diff = v1 - stars
    final_costs = _integrate_rows((diff * diff).sum(axis=-1))
    regs = [Registration(O_tot[b], DiscreteFunction(grid, warps[pick[b], b]),
                         float(final_costs[b]), tuple(round_costs[: used[b], b]))
            for b in range(B)]
    return list(zip(regs, _srvfs(stars, grid)))


def register(q1: Srvf, q2: Srvf):
    """Register q2 onto q1; returns (Registration, registered q2).

    Alternates rigid search (three first-round candidates) and DP until the
    round cost stops decreasing (relative tolerance REGISTRATION_RTOL), for
    at most REGISTRATION_ROUNDS rounds; see register_batch.
    """
    return register_batch(q1, [q2])[0]


def _aligned_distance(q1: Srvf, q2: Srvf) -> float:
    _, star = register(q1, q2)
    return geodesic_distance(q1.q, star.q)


def shape_distance(q1: Srvf, q2: Srvf) -> float:
    """Geodesic shape distance, symmetrized over the two DP directions.

    Each direction registers until the round cost stops decreasing (see
    register).
    """
    return min(_aligned_distance(q1, q2), _aligned_distance(q2, q1))


def _preshape_normals(p: np.ndarray) -> np.ndarray:
    """Orthonormal closure-constraint directions inside the sphere tangent
    space at the (n, 2) samples p, as a (2, n, 2) array: each constraint
    gradient loses its component along p, and the second then loses its
    component along the first, taken against the raw gradient (classical
    Gram-Schmidt)."""
    g = np.stack(_constraint_gradients(p))
    phi = _remove_component(g, p)
    phi[0] *= 1.0 / np.sqrt(max(_ip_rows(phi[:1], phi[0])[0], 0.0))
    phi[1] -= _ip_rows(g[1:], phi[0])[0] * phi[0]
    phi[1] *= 1.0 / np.sqrt(max(_ip_rows(phi[1:], phi[1])[0], 0.0))
    return phi


def _preshape_tangents(p: np.ndarray, stars: np.ndarray) -> np.ndarray:
    """Log maps at the (n, 2) mean samples p of registered SRVF samples
    stacked as (B, n, 2), with the two closure-constraint components removed:
    a (B, n, 2) array."""
    V = _log_rows(p, stars)
    for phi in _preshape_normals(p):
        V = _remove_component(V, phi)
    return V


def project_Pi(qs: list, mean: Srvf) -> Tangents:
    """Project SRVFs onto the pre-shape tangent space at the mean.

    Three steps: register to the mean, inverse-exponential map at the mean,
    then removal of the two closure-constraint components. Returns one
    Tangents block with a row per SRVF. Registration tries two first-round
    rigid candidates and runs per curve until its round cost stops
    decreasing (see register_batch).
    """
    regs = register_batch(mean, qs, rigid_candidates=2)
    V = _preshape_tangents(mean.q.f.values, np.stack([s.q.f.values for _, s in regs]))
    return Tangents(mean.q, V)


def _medoid(stack: np.ndarray) -> int:
    """Row of a (B, n, 2) SRVF stack with the largest sum of best-offset
    rigid scores against every row, itself included.

    Each sum is a math.fsum, so it does not depend on the order of the rows,
    and the rfft of the stack is taken once for all B * B scores. An exact
    tie goes to the first tied row.
    """
    m = stack.shape[1] - 1
    spectra = np.fft.rfft(stack[:, :m], axis=1)
    totals = [math.fsum(_spectral_rigid_scores(f, spectra, m)[0].max(axis=1))
              for f in spectra]
    return int(np.argmax(totals))


def shape_karcher_mean(qs: list) -> KarcherMeanResult:
    """Karcher mean shape: registration + tangent averaging fixed point.

    The start does not depend on the order of qs: every SRVF is aligned
    rigidly (best cyclic offset and rotation) to the medoid (see _medoid),
    and their extrinsic mean is projected onto the pre-shape set. Each
    iteration registers every curve to the current mean (one round, one
    rigid candidate), averages the constraint-projected log maps, and steps
    along the exponential map, re-projecting to the pre-shape set. It takes
    the full mean log map, or half of it when the full step would increase
    the registered variance, so the variance trace is non-increasing by
    construction; when both steps increase it, the mean stops. Stops on a
    mean tangent of at most KARCHER_TOL, after KARCHER_MAX_ITER iterations,
    or when the variance improves by no more than KARCHER_STAGNATION_RTOL of
    its value. The result's mean is an Srvf.
    """
    if not qs:
        raise ValidationError("shape_karcher_mean needs at least one SRVF")
    if len(qs) == 1:
        return KarcherMeanResult(qs[0], 0, 0.0, True, (0.0,))
    stack = np.stack([q.q.f.values for q in qs])
    aligned, _, _ = _rigid_align(stack[_medoid(stack)], stack, 1)
    mean = project_to_preshape(
        SpherePoint(DiscreteFunction(qs[0].grid, aligned.mean(axis=0), periodic=True)))

    def registered_variance(candidate):
        regs = register_batch(candidate, qs, rounds=1, rigid_candidates=1)
        stars = np.stack([star.q.f.values for _, star in regs])
        d = _angle_rows(candidate.q.f.values, stars)[2]
        return float(np.mean(np.square(d))), stars

    V, stars = registered_variance(mean)
    trace = [V]
    gnorm = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, KARCHER_MAX_ITER + 1):
        rows = _preshape_tangents(mean.q.f.values, stars)
        direction = tangent_at(mean.q, rows.mean(axis=0))
        gnorm = direction.length
        if gnorm <= KARCHER_TOL:
            converged = True
            break
        for point in _geodesic_rows(direction, (1.0, 0.5)):  # full step, then half
            cand = _srvfs(_preshape_rows(point[None]), mean.q.grid)[0]
            V_cand, stars_cand = registered_variance(cand)
            if V_cand <= V + 1e-12:
                break
        else:
            break  # stagnated: registration noise dominates
        improvement = V - V_cand
        mean, V, stars = cand, V_cand, stars_cand
        trace.append(V)
        if improvement <= KARCHER_STAGNATION_RTOL * max(V, 1e-12):
            converged = True
            break
    return KarcherMeanResult(mean, iterations, gnorm, converged, tuple(trace))


def shape_tangent_coordinates(curves: list) -> tuple[Srvf, Tangents]:
    """Map closed curves into the pre-shape tangent space at their Karcher
    mean: SRVF of every curve, shape_karcher_mean, then project_Pi.

    The shape counterpart of density.pdf_tangent_coordinates; returns
    (mean, tangents) with one Tangents row per curve.
    """
    qs = [srvf(c) for c in curves]
    mean = shape_karcher_mean(qs).mean
    return mean, project_Pi(qs, mean)


def shape_variate_direction(basis, weights, epsilons) -> list:
    """Closed curves along a basis direction through the basis's base point,
    the mean shape.

    Follows the sphere exponential map for each step size, projects all the
    points to the pre-shape set at once, and integrates each SRVF. A step
    with |eps| |v| >= pi raises GeodesicOverflowError.
    """
    rows = _geodesic_rows(basis.direction(weights), epsilons)
    # visualization may start far from the constraint set; let the Newton
    # projection run from wherever the exponential map lands
    closed = _preshape_rows(rows, max_residual=np.inf)
    return [srvf_inverse(q) for q in _srvfs(closed, basis.base.grid)]
