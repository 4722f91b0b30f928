"""Probability densities on [0,1] and their sphere representation.

A PDF maps to the positive orthant of the unit sphere through the pointwise
square root; the geodesic distance between two such square roots is the
Fisher-Rao distance between the densities. This module covers estimation and
validation of PDFs, the square-root transform and its inverse, tangent
projection at the Karcher mean, and reconstruction of canonical variate
directions as densities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSampleError,
    DensityNormalizationWarning,
    GeodesicOverflowError,
    ValidationError,
)
from .numerics import DEFAULT_PDF_GRID, DiscreteFunction, Grid, trapezoid_weights
from .sphere import SpherePoint, TangentVector, exp_map, karcher_mean, log_map

# Integral drift up to this is renormalized with a warning; beyond is an error.
MAX_INTEGRAL_DRIFT = 1e-3
_SILENT_DRIFT = 1e-6


@dataclass(frozen=True, eq=False)
class Pdf:
    """Nonnegative function on [0,1] integrating to one (trapezoidal rule).

    Small drift of the integral (up to 1e-3) is corrected by renormalization,
    with a DensityNormalizationWarning when it exceeds quadrature noise.
    Larger drift raises, since it usually indicates an ingestion bug.
    """

    f: DiscreteFunction

    def __post_init__(self):
        if self.f.is_planar or self.f.periodic:
            raise ValidationError("a Pdf must be scalar-valued on the open domain")
        v = self.f.values
        if v.min() < 0:
            if v.min() < -1e-12:
                raise ValidationError(f"density has negative values (min {v.min():.3g})")
            v = np.maximum(v, 0.0)
        total = float(trapezoid_weights(self.f.grid.n_points) @ v)
        if total <= 0:
            raise ValidationError("density integrates to zero")
        drift = abs(total - 1.0)
        if drift > MAX_INTEGRAL_DRIFT:
            raise ValidationError(
                f"density integral {total:.6g} is too far from 1 to renormalize"
            )
        if drift > _SILENT_DRIFT:
            warnings.warn(
                f"density integral {total:.6g} renormalized to 1",
                DensityNormalizationWarning,
                stacklevel=2,
            )
        if drift > 0:
            object.__setattr__(self, "f", self.f.with_values(v / total))

    @classmethod
    def from_unnormalized(cls, values, grid: Grid) -> "Pdf":
        """Rescale arbitrary nonnegative values into a density."""
        v = np.asarray(values, dtype=float)
        if v.min() < 0:
            raise ValidationError("density values must be nonnegative")
        total = float(trapezoid_weights(grid.n_points) @ v)
        if total <= 0:
            raise ValidationError("cannot normalize a zero function")
        return cls(DiscreteFunction(grid, v / total))

    @property
    def grid(self) -> Grid:
        return self.f.grid


@dataclass(frozen=True, eq=False)
class Srt:
    """Square root of a density: a sphere point in the positive orthant."""

    p: SpherePoint

    def __post_init__(self):
        if self.p.f.values.min() < -1e-8:
            raise ValidationError("square-root transform left the positive orthant")

    @property
    def grid(self) -> Grid:
        return self.p.grid


def srt(f: Pdf) -> Srt:
    """Pointwise square root, landing on the unit sphere."""
    return Srt(SpherePoint(f.f.with_values(np.sqrt(f.f.values))))


def srt_inverse(psi) -> Pdf:
    """Square a sphere point back into a density (accepts Srt or SpherePoint)."""
    point = psi.p if isinstance(psi, Srt) else psi
    return Pdf.from_unnormalized(point.f.values ** 2, point.f.grid)


def estimate_pdf(
    samples,
    bins: int = 50,
    floor: float = 1e-4,
    grid: Grid | None = None,
    value_range: tuple | None = None,
) -> Pdf:
    """Histogram density estimate of scalar samples.

    Samples are min-max rescaled to [0,1] (or mapped through an explicit
    value_range, e.g. a dataset-wide one), binned into `bins` equal bins,
    floored, normalized and evaluated on the working grid as a step function.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("estimate_pdf needs a flat list of >= 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples contain non-finite values")
    if bins < 1:
        raise ValidationError("bins must be positive")
    if floor < 0:
        raise ValidationError("floor must be nonnegative")
    lo, hi = value_range if value_range is not None else (x.min(), x.max())
    if hi <= lo:
        raise DegenerateSampleError("degenerate sample: all values identical")
    u = (x - lo) / (hi - lo)
    counts, _ = np.histogram(u, bins=bins, range=(0.0, 1.0))
    heights = counts / (x.size / bins) + floor  # density units on [0,1]
    grid = grid or Grid(DEFAULT_PDF_GRID)
    idx = np.minimum((grid.points * bins).astype(int), bins - 1)
    return Pdf.from_unnormalized(heights[idx], grid)


def pdf_tangent_coordinates(
    pdfs: list,
    karcher_kwargs: dict | None = None,
) -> tuple[Srt, list]:
    """Map densities into the tangent space at their Karcher mean.

    Applies the square-root transform to every density, computes the Karcher
    mean of the resulting sphere points, and returns the inverse-exponential
    images at that mean.
    """
    if len(pdfs) < 2:
        raise ValidationError("need >= 2 densities")
    psis = [srt(f) for f in pdfs]
    mean = Srt(karcher_mean([s.p for s in psis], **(karcher_kwargs or {})).mean)
    tangents = [log_map(mean.p, s.p) for s in psis]
    return mean, tangents


def pdf_variate_direction(mean: Srt, basis, weights, epsilons) -> list:
    """Densities along the geodesic through the mean in a basis direction.

    The direction is v = sum_i e_i w_i; for each step size eps the point
    exp_mean(eps * v) is squared back into a density.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (basis.rank,):
        raise ValidationError(
            f"weights length {weights.shape} != basis rank {basis.rank}"
        )
    vals = sum(
        w * e.v.values for w, e in zip(weights, basis.eigenfunctions)
    )
    direction = TangentVector(mean.p, mean.p.f.with_values(vals))
    L = direction.length
    out = []
    for eps in epsilons:
        if abs(eps) * L >= np.pi:
            raise GeodesicOverflowError(
                f"geodesic overflow: |eps|*|v| = {abs(eps) * L:.4f} >= pi"
            )
        point = exp_map(mean.p, TangentVector(mean.p, direction.v * float(eps)))
        out.append(srt_inverse(point))
    return out
