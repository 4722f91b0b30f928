"""Uniform-grid function arithmetic on [0,1]: quadrature, differentiation
and row-wise linear interpolation.

All functions are sampled on the closed uniform grid t_k = k/(n-1). Closed
(circle-domain) functions carry periodic=True and store the identified
endpoint twice, so values[0] == values[-1] by convention. Grid points and
trapezoid weights are built once per size, read-only. _integrate_rows is the
one quadrature of sampled rows: every L2 inner product, norm and integral
goes through it, and each row of a stack gets the bits of its own one-row
integral; _ip_rows is the one L2 inner product built on it. _interp_rows is
np.interp, bit for bit, on every row of a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError

DEFAULT_PDF_GRID = 1000
DEFAULT_CURVE_GRID = 200
_WEIGHTS = {}  # trapezoid weights by grid size


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0,1] with n_points samples, spacing 1/(n_points-1);
    grids of one size are equal."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValidationError(f"grid needs >= 3 points, got {self.n_points}")
        object.__setattr__(self, "_points", np.linspace(0.0, 1.0, self.n_points))
        self._points.flags.writeable = False

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return self._points


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Scalar or plane-valued function sampled on a Grid.

    values has shape (n,) for scalar functions or (n, 2) for planar ones.
    Instances are immutable; all operations return new objects.
    """

    grid: Grid
    values: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        # a copy: the caller's array stays writeable and shares nothing
        v = np.array(self.values, dtype=float)
        if v.ndim not in (1, 2) or (v.ndim == 2 and v.shape[1] != 2):
            raise ValidationError(f"values must be (n,) or (n,2), got {v.shape}")
        if v.shape[0] != self.grid.n_points:
            raise ValidationError(
                f"values length {v.shape[0]} != grid size {self.grid.n_points}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("values contain non-finite entries")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def is_planar(self) -> bool:
        return self.values.ndim == 2

    @property
    def dimension(self) -> str:
        return "planar" if self.is_planar else "scalar"

    def with_values(self, values: np.ndarray) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, values, self.periodic)

    # Pointwise arithmetic keeps the grid and periodicity of the left operand.
    def __add__(self, other):
        _check_compatible(self, other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        _check_compatible(self, other)
        return self.with_values(self.values - other.values)

    def __mul__(self, scalar):
        return self.with_values(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_values(-self.values)


def _check_compatible(a: DiscreteFunction, b: DiscreteFunction):
    if not isinstance(b, DiscreteFunction):
        raise GridMismatchError(f"expected DiscreteFunction, got {type(b).__name__}")
    if a.grid != b.grid:
        raise GridMismatchError(
            f"grid mismatch: {a.grid.n_points} vs {b.grid.n_points} points"
        )
    if a.is_planar != b.is_planar:
        raise GridMismatchError(f"dimension mismatch: {a.dimension} vs {b.dimension}")


def trapezoid_weights(n: int) -> np.ndarray:
    """Uniform trapezoidal-rule weights on [0,1], built once per n, read-only."""
    if n not in _WEIGHTS:
        h = 1.0 / (n - 1)
        w = _WEIGHTS[n] = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        w.flags.writeable = False
    return _WEIGHTS[n]


def _integrate_rows(F: np.ndarray) -> np.ndarray:
    """Trapezoid integral over [0,1] of each row along the last axis of F;
    every row gets the bits of its own w @ f, whatever the leading axes."""
    return (F[..., None, :] @ trapezoid_weights(F.shape[-1]))[..., 0]


def _ip_rows(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L2 inner products of the rows of X with y (or its rows); the integrand
    of planar rows is the pointwise Euclidean inner product of the 2-vectors."""
    prod = X * y
    if prod.ndim == 3:
        prod = prod.sum(axis=2)
    return _integrate_rows(prod)


def inner_product(a: DiscreteFunction, b: DiscreteFunction) -> float:
    """L2 inner product over [0,1] by trapezoidal quadrature; a one-row call
    of _ip_rows."""
    _check_compatible(a, b)
    return float(_ip_rows(a.values[None], b.values)[0])


def norm(a: DiscreteFunction) -> float:
    """L2 norm, sqrt(inner_product(a, a))."""
    return float(np.sqrt(max(inner_product(a, a), 0.0)))


def derivative(a: DiscreteFunction) -> DiscreteFunction:
    """Differentiate by central differences.

    Interior points use the symmetric stencil. Periodic functions wrap
    (values[-1] identifies with values[0]); open-domain functions fall back
    to one-sided differences at the endpoints.
    """
    v = a.values
    h = a.grid.spacing
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    if a.periodic:
        # values[-2] is the sample preceding the identified endpoint
        d[0] = (v[1] - v[-2]) / (2 * h)
        d[-1] = d[0]
    else:
        d[0] = (v[1] - v[0]) / h
        d[-1] = (v[-1] - v[-2]) / h
    return a.with_values(d)


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[r], xp, fp[r]) for every row r, bit for bit (its formula,
    node and end values; slopes must not overflow): x (..., k), xp (n,)
    increasing, fp (..., n) or planar (..., n, 2)."""
    axis = x.ndim - 1
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    x0, x1 = xp[j], xp[j + 1]
    if fp.ndim > x.ndim:  # planar samples
        j, x, x0, x1 = (a[..., None] for a in (j, x, x0, x1))
    f0, f1 = np.take_along_axis(fp, j, axis), np.take_along_axis(fp, j + 1, axis)
    out = (f1 - f0) / (x1 - x0) * (x - x0) + f0
    np.copyto(out, f0, where=x <= x0)
    np.copyto(out, f1, where=x >= x1)
    return out
