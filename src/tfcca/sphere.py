"""Geometry of the unit Hilbert sphere in L2([0,1]).

All quantities are available in closed form. With c = <p, q> and
r = q - c p, the geodesic distance is d = atan2(|r|, c), the exponential
map is exp_p(v) = cos(|v|) p + sin(|v|) v/|v|, and its inverse is
log_p(q) = (d / |r|) r. The atan2 form resolves d at both ends, where
arccos(c) loses every distance below about 1.5e-8. The Karcher mean is
computed by gradient descent on the variance functional using these maps.
The exponential and log maps, tangent projection and transport run on
stacked (n, M) or (n, M, 2) sample arrays, one row per function, and
exp_map, log_map, tangent_at and parallel_transport are one-row calls of
them; Tangents holds such a stack. Every inner product is numerics._ip_rows,
so each row of a stacked map gets exactly the bits of its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AntipodeError, GeodesicOverflowError, ValidationError
from .numerics import DiscreteFunction, Grid, norm
from .numerics import _check_compatible, _freeze, _ip_rows

ANTIPODE_MARGIN = 1e-6
# karcher_mean: the iterations run before it gives up unconverged
KARCHER_MAX_ITER = 100


def _check_orthogonal(V: np.ndarray, p: np.ndarray):
    """The tangent rule: every row v of V has |<v, p>| <= 1e-6 against the
    base samples p."""
    ip = np.abs(_ip_rows(V, p)).max(initial=0)
    if ip > 1e-6:
        raise ValidationError(
            f"tangent vectors not orthogonal to base (|<v,p>| = {ip:.3g})"
        )


def _check_attached(base: SpherePoint, other: SpherePoint):
    """The base-point rule: tangents attached to other may be used at base
    when other is base or lies within 1e-8 of it in L2."""
    if other is not base and norm(other.f - base.f) > 1e-8:
        raise ValidationError("tangent vectors are attached to a different base point")


def _unit_factors(norms):
    """Factors that put functions of these L2 norms on the sphere; zero is rejected."""
    if np.any(norms < 1e-12):
        raise ValidationError("cannot project the zero function to the sphere")
    return np.where(np.abs(norms - 1.0) > 1e-12, 1.0 / norms, 1.0)


def _sphere_rows(X: np.ndarray) -> np.ndarray:
    """Put every row of a fresh (B, M) or (B, M, 2) stack on the sphere, in
    place, by SpherePoint's rule (_unit_factors of the row norms)."""
    X *= _per_row(_unit_factors(np.sqrt(np.maximum(_ip_rows(X, X), 0.0))), X)
    return X


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Unit-norm function on the sphere; renormalized on construction."""

    f: DiscreteFunction

    def __post_init__(self):
        factor = float(_unit_factors(norm(self.f)))
        if factor != 1.0:
            object.__setattr__(self, "f", self.f * factor)

    @property
    def grid(self):
        return self.f.grid


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Function v attached to a base sphere point, with <v, base> = 0."""

    base: SpherePoint
    v: DiscreteFunction

    def __post_init__(self):
        _check_compatible(self.v, self.base.f)
        _check_orthogonal(self.v.values[None], self.base.f.values)

    @property
    def length(self) -> float:
        return norm(self.v)


@dataclass(frozen=True, eq=False)
class Tangents:
    """n tangent vectors at one base point, the (n, M) or (n, M, 2) rows of
    values, checked once for shape, finiteness and the tangent rule that
    TangentVector applies too (_check_orthogonal); values is stored as a
    read-only copy."""

    base: SpherePoint
    values: np.ndarray

    def __post_init__(self):
        f = self.base.f
        V = _freeze(np.array(self.values, dtype=float))
        if V.shape[1:] != f.values.shape:
            raise ValidationError(
                f"tangent rows {V.shape[1:]} do not match the base {f.values.shape}"
            )
        if not np.all(np.isfinite(V)):
            raise ValidationError("tangent vectors contain non-finite entries")
        _check_orthogonal(V, f.values)
        object.__setattr__(self, "values", V)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i) -> TangentVector:
        """Row i as a TangentVector at base."""
        return TangentVector(self.base, self.base.f.with_values(self.values[i]))


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
    return float(_angle_rows(p1.f.values, p2.f.values[None])[2][0])


def _exp_rows(p: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp_p(v) = cos(|v|) p + (sin|v| / |v|) v for each row v of V, with p
    the base samples, put on the sphere by _sphere_rows; a zero row gives p
    exactly. Each row gets the bits of its one-row call."""
    L = np.sqrt(np.maximum(_ip_rows(V, V), 0.0))
    sinc = np.divide(np.sin(L), L, out=np.zeros_like(L), where=L > 0)
    X = _per_row(np.cos(L), V) * p + _per_row(sinc, V) * V
    X[L == 0] = p
    return _sphere_rows(X)


def exp_map(base: SpherePoint, v: TangentVector) -> SpherePoint:
    """Follow the geodesic from base with initial velocity v for unit time;
    a one-row call of the batched exponential map."""
    _check_attached(base, v.base)
    if v.length == 0.0:
        return base
    f = base.f
    return SpherePoint(f.with_values(_exp_rows(f.values, v.v.values[None])[0]))


def _geodesic_rows(v: TangentVector, epsilons) -> np.ndarray:
    """exp_p(eps v) for each step size eps, with p the base of v, one row per
    step. A step of length |eps| |v| >= pi would reach the antipode of p or
    run past it, so it raises GeodesicOverflowError."""
    eps = np.asarray(epsilons, dtype=float)
    reach = np.abs(eps).max(initial=0.0) * v.length
    if reach >= np.pi:
        raise GeodesicOverflowError(f"geodesic overflow: |eps|*|v| = {reach:.4f} >= pi")
    return _exp_rows(v.base.f.values, _per_row(eps, v.v.values[None]) * v.v.values)


def _per_row(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Shape a length-n vector to scale the rows of X."""
    return a.reshape((-1,) + (1,) * (X.ndim - 1))


def _remove_component(V: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Rows of V minus their components along the unit-norm function e."""
    return V - _per_row(_ip_rows(V, e), V) * e


def _angle_rows(base_vals: np.ndarray, X: np.ndarray):
    """For each row x of X and the base samples p: the part r = x - <x, p> p
    orthogonal to p, its norm s and the angle d = atan2(s, <x, p>)."""
    c = _ip_rows(X, base_vals)
    R = X - _per_row(c, X) * base_vals
    s = np.sqrt(_ip_rows(R, R))
    return R, s, np.arctan2(s, c)


def _log_rows(base_vals: np.ndarray, X: np.ndarray) -> np.ndarray:
    """log_p(x) = (d / s) r for each row x of X (see _angle_rows), with p the
    samples base_vals; quadrature-level drift along p is removed, and a row
    near the antipode raises AntipodeError. Each row gets the bits of its
    one-row call."""
    R, s, d = _angle_rows(base_vals, X)
    if d.max() >= np.pi - ANTIPODE_MARGIN:
        raise AntipodeError(f"antipode: d(base, target) = {d.max():.8f} >= pi - 1e-6")
    R *= _per_row(np.divide(d, s, out=np.zeros_like(d), where=s > 0), X)
    return _remove_component(R, base_vals)


def log_map(base: SpherePoint, target: SpherePoint) -> TangentVector:
    """Inverse exponential map; undefined near the antipode of base.

    A one-row call of the batched log map behind karcher_mean and the
    density and shape tangent coordinates, which gives every row of a stack
    the bits this call gives it.
    """
    f = base.f
    _check_compatible(f, target.f)
    vals = _log_rows(f.values, target.f.values[None])
    return TangentVector(base, f.with_values(vals[0]))


def tangent_at(base: SpherePoint, values: np.ndarray) -> TangentVector:
    """Build a tangent vector at base, projecting out any base component;
    a one-row call of the batched projection."""
    f = base.f
    V = _remove_component(f.with_values(values).values[None], f.values)
    return TangentVector(base, f.with_values(V[0]))


def karcher_mean(stack: np.ndarray, grid: Grid, tol: float = 1e-6) -> KarcherMeanResult:
    """Karcher (Frechet) mean on the sphere by tangent-space averaging.

    stack holds the (n, M) samples on grid of n unit-norm functions, one
    row each. Iterates p <- exp_p(mean_i log_p(p_i)), the full gradient step
    (Afsari, Tron & Vidal, SIAM J. Control Optim. 2013), from the
    renormalized extrinsic average until the gradient norm drops below tol,
    taking all log maps in one call on the stack. Non-convergence after
    KARCHER_MAX_ITER iterations is flagged in the result rather than raised.
    """
    if len(stack) == 0:
        raise ValidationError("karcher_mean needs at least one point")
    mean = SpherePoint(DiscreteFunction(grid, stack.mean(axis=0)))
    if len(stack) == 1:
        return KarcherMeanResult(mean, 0, 0.0, True, (0.0,))

    variance_trace = []
    grad_norm = np.inf
    iterations = 0
    for iterations in range(1, KARCHER_MAX_ITER + 1):
        logs = _log_rows(mean.f.values, stack)
        variance_trace.append(float(np.mean(np.maximum(_ip_rows(logs, logs), 0.0))))
        direction = tangent_at(mean, logs.mean(axis=0))
        grad_norm = direction.length
        if grad_norm <= tol:
            return KarcherMeanResult(
                mean, iterations, grad_norm, True, tuple(variance_trace)
            )
        mean = exp_map(mean, direction)
    return KarcherMeanResult(mean, iterations, grad_norm, False, tuple(variance_trace))


def _transport_rows(
    V: np.ndarray, source: SpherePoint, target: SpherePoint
) -> np.ndarray:
    """Transport each row v of V along the geodesic from source p to target q by
        v - <u, v> (tan(d/2) / d) (p + q),   u = log_p(q),
    with u and d computed once for all rows: v - (<u, v> / d^2) (u + log_q(p))
    without that form's O(d^2) cancellation of two logs, which fails near d = 0.
    """
    d = geodesic_distance(source, target)
    if d < 1e-12:
        return V
    if d >= np.pi - ANTIPODE_MARGIN:
        raise AntipodeError("cannot transport to the antipode")
    p, q = source.f.values, target.f.values
    u = _log_rows(p, q[None])[0]
    V = V - _per_row(_ip_rows(V, u) * (np.tan(d / 2) / d), V) * (p + q)
    return _remove_component(V, q)


def parallel_transport(
    v: TangentVector, source: SpherePoint, target: SpherePoint
) -> TangentVector:
    """Transport v along the geodesic from source to target, preserving
    norms and pairwise inner products; a one-row call of the batched map."""
    _check_compatible(source.f, v.v)
    vals = _transport_rows(v.v.values[None], source, target)[0]
    return TangentVector(target, target.f.with_values(vals))
