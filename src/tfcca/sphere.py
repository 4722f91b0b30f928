"""Geometry of the unit Hilbert sphere in L2([0,1]).

All quantities are available in closed form. With c = <p, q> and
r = q - c p, the geodesic distance is d = atan2(|r|, c), the exponential
map is exp_p(v) = cos(|v|) p + sin(|v|) v/|v|, and its inverse is
log_p(q) = (d / |r|) r. The atan2 form resolves d at both ends, where
arccos(c) loses every distance below about 1.5e-8. The Karcher mean is
computed by gradient descent on the variance functional using these maps.
The log map and transport run on stacked (n, M) or (n, M, 2) sample
arrays, one row per function; log_map and parallel_transport are one-row
calls of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AntipodeError, ValidationError
from .numerics import DiscreteFunction, inner_product, norm, trapezoid_weights
from .numerics import _check_compatible

ANTIPODE_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Unit-norm function on the sphere; renormalized on construction."""

    f: DiscreteFunction

    def __post_init__(self):
        n = norm(self.f)
        if n < 1e-12:
            raise ValidationError("cannot project the zero function to the sphere")
        if abs(n - 1.0) > 1e-12:
            object.__setattr__(self, "f", self.f * (1.0 / n))

    @property
    def grid(self):
        return self.f.grid


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Function v attached to a base sphere point, with <v, base> = 0."""

    base: SpherePoint
    v: DiscreteFunction

    def __post_init__(self):
        ip = inner_product(self.v, self.base.f)
        if abs(ip) > 1e-6:
            raise ValidationError(
                f"tangent vector not orthogonal to base (<v,p> = {ip:.3g})"
            )

    @property
    def length(self) -> float:
        return norm(self.v)


@dataclass(frozen=True)
class KarcherMeanResult:
    mean: SpherePoint
    iterations: int
    final_gradient_norm: float
    converged: bool
    variance_trace: tuple = field(default=())


def geodesic_distance(p1: SpherePoint, p2: SpherePoint) -> float:
    """Great-circle distance atan2(|p2 - c p1|, c) with c = <p1, p2>, in
    [0, pi]."""
    _check_compatible(p1.f, p2.f)
    w = trapezoid_weights(p1.grid.n_points)
    return float(_angle_rows(p1.f.values, p2.f.values[None], w)[2][0])


def exp_map(base: SpherePoint, v: TangentVector) -> SpherePoint:
    """Follow the geodesic from base with initial velocity v for unit time."""
    if v.base is not base and norm(v.base.f - base.f) > 1e-8:
        raise ValidationError("tangent vector is attached to a different base point")
    L = v.length
    if L == 0.0:
        return base
    vals = np.cos(L) * base.f.values + (np.sin(L) / L) * v.v.values
    return SpherePoint(DiscreteFunction(base.f.grid, vals, base.f.periodic))


def _ip_rows(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Inner products under weights w of the rows of X with y (or its rows)."""
    prod = X * y
    if prod.ndim == 3:
        prod = prod.sum(axis=2)
    return prod @ w


def _per_row(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Shape a length-n vector to scale the rows of X."""
    return a.reshape((-1,) + (1,) * (X.ndim - 1))


def _remove_component(V: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of V minus their components along the unit-norm function e."""
    return V - _per_row(_ip_rows(V, e, w), V) * e


def _angle_rows(base_vals: np.ndarray, X: np.ndarray, w: np.ndarray):
    """For each row x of X and the base samples p: the part r = x - <x, p> p
    orthogonal to p, its norm s and the angle d = atan2(s, <x, p>)."""
    c = _ip_rows(X, base_vals, w)
    R = X - _per_row(c, X) * base_vals
    s = np.sqrt(_ip_rows(R, R, w))
    return R, s, np.arctan2(s, c)


def _log_rows(base_vals: np.ndarray, X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log_p(x) = (d / s) r for each row x of X (see _angle_rows), with p the
    samples base_vals and w the quadrature weights; quadrature-level drift
    along p is removed, and a row near the antipode raises AntipodeError."""
    R, s, d = _angle_rows(base_vals, X, w)
    if d.max() >= np.pi - ANTIPODE_MARGIN:
        raise AntipodeError(f"antipode: d(base, target) = {d.max():.8f} >= pi - 1e-6")
    R *= _per_row(np.divide(d, s, out=np.zeros_like(d), where=s > 0), X)
    return _remove_component(R, base_vals, w)


def log_map(base: SpherePoint, target: SpherePoint) -> TangentVector:
    """Inverse exponential map; undefined near the antipode of base.

    A one-row call of the batched log map behind karcher_mean and the
    density and shape tangent coordinates.
    """
    f = base.f
    _check_compatible(f, target.f)
    vals = _log_rows(f.values, target.f.values[None], trapezoid_weights(f.grid.n_points))
    return TangentVector(base, f.with_values(vals[0]))


def tangent_at(base: SpherePoint, values: np.ndarray) -> TangentVector:
    """Build a tangent vector at base, projecting out any base component."""
    w = base.f.with_values(np.asarray(values, dtype=float))
    drift = inner_product(w, base.f)
    return TangentVector(base, w.with_values(w.values - drift * base.f.values))


def karcher_mean(
    points: list,
    step: float = 0.5,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> KarcherMeanResult:
    """Karcher (Frechet) mean on the sphere by tangent-space averaging.

    Iterates p <- exp_p(step * mean_i log_p(p_i)) from the renormalized
    extrinsic average until the gradient norm drops below tol, taking all
    log maps in one call on the stacked samples. Non-convergence is flagged
    in the result rather than raised.
    """
    if not points:
        raise ValidationError("karcher_mean needs at least one point")
    if len(points) == 1:
        return KarcherMeanResult(points[0], 0, 0.0, True, (0.0,))

    proto = points[0].f
    stack = np.stack([p.f.values for p in points])
    w = trapezoid_weights(proto.grid.n_points)
    mean = SpherePoint(DiscreteFunction(proto.grid, stack.mean(axis=0), proto.periodic))

    variance_trace = []
    grad_norm = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        logs = _log_rows(mean.f.values, stack, w)
        variance_trace.append(float(np.mean(np.maximum(_ip_rows(logs, logs, w), 0.0))))
        direction = tangent_at(mean, logs.mean(axis=0))
        grad_norm = direction.length
        if grad_norm <= tol:
            return KarcherMeanResult(
                mean, iterations, grad_norm, True, tuple(variance_trace)
            )
        mean = exp_map(mean, TangentVector(mean, direction.v * step))
    return KarcherMeanResult(mean, iterations, grad_norm, False, tuple(variance_trace))


def _transport_rows(
    V: np.ndarray, source: SpherePoint, target: SpherePoint
) -> np.ndarray:
    """Transport each row v of V along the geodesic from source to target by
        v - (<u, v> / d^2) (u + log_target(source)),   u = log_source(target),
    with u, log_target(source) and d computed once for all rows.
    """
    d = geodesic_distance(source, target)
    if d < 1e-12:
        return V
    if d >= np.pi - ANTIPODE_MARGIN:
        raise AntipodeError("cannot transport to the antipode")
    w = trapezoid_weights(target.f.grid.n_points)
    p, q = source.f.values, target.f.values
    u = _log_rows(p, q[None], w)[0]
    u_back = _log_rows(q, p[None], w)[0]
    V = V - _per_row(_ip_rows(V, u, w) / (d * d), V) * (u + u_back)
    return _remove_component(V, q, w)


def parallel_transport(
    v: TangentVector, source: SpherePoint, target: SpherePoint
) -> TangentVector:
    """Transport v along the geodesic from source to target, preserving
    norms and pairwise inner products; a one-row call of the batched map."""
    _check_compatible(source.f, v.v)
    vals = _transport_rows(v.v.values[None], source, target)[0]
    return TangentVector(target, target.f.with_values(vals))
