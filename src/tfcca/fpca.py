"""Tangent-space functional PCA and the three tangent-space layouts.

The rows of a sphere.Tangents block become a sample matrix X (planar
functions listed x then y, circle-domain functions keeping one copy of the
identified endpoint) with matching trapezoidal weights w. It is decomposed
by one route whichever of the sample count and the grid size is larger:
the R factor of a QR of X sqrt(w), then the SVD of R, so the left singular
vectors of X are never formed. Eigenfunctions are stored with unit L2
norm, so coefficients, a read-only (n, r) array, and reconstruction use the
geometry's quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cca import _dominant_signs
from .density import Pdf, pdf_tangent_coordinates
from .errors import RankError, ValidationError
from .numerics import _freeze, trapezoid_weights
from .shape import Curve, shape_tangent_coordinates
from .sphere import SpherePoint, TangentVector, Tangents
from .sphere import _check_attached, _remove_component, _transport_rows

PDF_EXPLAINED_DEFAULT = 0.95
SHAPE_EXPLAINED_DEFAULT = 0.80


@dataclass(frozen=True)
class FpcBasis:
    """Orthonormal eigenfunctions at a Karcher mean, variance-ordered, one
    Tangents row each."""

    base: SpherePoint
    eigenfunctions: Tangents
    eigenvalues: np.ndarray
    rank: int
    explained_fraction: float
    total_variance: float

    def direction(self, weights) -> TangentVector:
        """Tangent vector sum_i e_i w_i for a weight vector of length rank."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.rank,):
            raise ValidationError(f"weights shape {w.shape} != ({self.rank},)")
        vals = sum(wi * e for wi, e in zip(w, self.eigenfunctions.values))
        return TangentVector(self.base, self.base.f.with_values(vals))


def _check_explained(explained):
    if explained is not None and not 0 < explained <= 1:
        raise ValidationError(f"explained must lie in (0, 1], got {explained}")


def _samples(f0, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample matrix X, one row per function of the stack X sampled like the
    DiscreteFunction f0, and quadrature weights w such that (X * w) @ Y.T
    holds the L2 inner products.

    A circle's identified endpoint is kept once and carries both end
    weights; a planar function lists its x samples, then its y samples.
    """
    w = trapezoid_weights(f0.grid.n_points)
    if f0.periodic:
        X = X[:, :-1]
        w = np.append(w[0] + w[-1], w[1:-1])
    if f0.is_planar:
        X = X.transpose(0, 2, 1).reshape(len(X), -1)
        w = np.tile(w, 2)
    return X, w


def fit_fpca(tangents, rank: int | None = None, explained: float | None = None):
    """Eigen-decompose the sample covariance of a block of tangent vectors.

    Exactly one of rank and explained is given: a fixed rank, or the
    smallest rank whose eigenvalues explain at least `explained` of the
    total variance (it must lie in (0, 1]). Solved from the R factor of the
    weighted sample matrix X sqrt(w) = Q R and the thin SVD R = U S V^T
    (Chan's R-SVD, as cca._canonical_frame does): R has the singular values
    and right singular vectors of X sqrt(w), without squaring its condition
    number as X^T W X would, and the n-row left factor QU is never built.
    The eigenvalues are s^2 / (n - 1) and the eigenfunctions V / sqrt(w),
    which come out exactly L2-orthonormal. Sign convention: the
    largest-magnitude entry of each eigenfunction is positive.
    """
    if len(tangents) < 2:
        raise ValidationError("fpca needs >= 2 tangent vectors")
    if (rank is None) == (explained is None):
        raise ValidationError("specify exactly one of rank and explained")
    _check_explained(explained)

    base = tangents.base
    X, w = _samples(base.f, tangents.values)
    n = X.shape[0]
    root_w = np.sqrt(w)
    R = np.linalg.qr(X * root_w, mode="r")
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    mu = s * s / (n - 1)
    total = float(mu.sum())
    n_pos = int(np.sum(mu > mu[0] * 1e-12))
    if n_pos == 0:
        raise ValidationError("all tangent vectors are zero; nothing to decompose")
    mu = mu[:n_pos]

    if rank is not None:
        if rank < 1 or rank > n - 1:
            raise RankError(f"rank {rank} infeasible for sample size {n}")
        if rank > n_pos:
            raise RankError(f"rank {rank} exceeds the data rank {n_pos}")
    else:
        frac = np.cumsum(mu) / total
        rank = int(np.searchsorted(frac, explained - 1e-12) + 1)
        rank = min(rank, n_pos)

    # L2-orthonormal eigenfunctions of the covariance operator, with
    # deterministic signs, reshaped back to function samples
    E = Vt[:rank] / root_w
    E *= _dominant_signs(E.T)[:, None]
    if base.f.is_planar:
        E = E.reshape(rank, 2, -1).transpose(0, 2, 1)
    if base.f.periodic:
        E = np.concatenate([E, E[:, :1]], axis=1)

    lams = mu[:rank].copy()
    lams.flags.writeable = False
    return FpcBasis(
        base=base,
        eigenfunctions=Tangents(base, _remove_component(E, base.f.values)),
        eigenvalues=lams,
        rank=rank,
        explained_fraction=float(mu[:rank].sum() / total),
        total_variance=total,
    )


def coefficients(basis: FpcBasis, tangents: Tangents) -> np.ndarray:
    """Project tangent vectors on the basis: c_ij = <delta_i, e_j>, as a
    read-only (n, r) array."""
    base = basis.base
    _check_attached(base, tangents.base)
    X, w = _samples(base.f, tangents.values)
    E, _ = _samples(base.f, basis.eigenfunctions.values)
    return _freeze((X * w) @ E.T)


@dataclass(frozen=True)
class TangentModeResult:
    """Everything the CCA/CVR stage and visualization need from one layout;
    variate directions start at each basis's base point."""

    mode: str
    c1: np.ndarray
    c2: np.ndarray
    basis_1: FpcBasis
    basis_2: FpcBasis
    tangents_1: Tangents
    tangents_2: Tangents


def _kind_of(obj) -> str:
    if isinstance(obj, Pdf):
        return "pdf"
    if isinstance(obj, Curve):
        return "curve"
    raise ValidationError(f"expected Pdf or Curve, got {type(obj).__name__}")


def _group_tangents(group, kind) -> Tangents:
    coordinates = pdf_tangent_coordinates if kind == "pdf" else shape_tangent_coordinates
    return coordinates(group)[1]


def tangent_mode_pipeline(
    group_a,
    group_b,
    mode: str = "separate",
    rank: int | None = None,
    explained: float | None = None,
) -> TangentModeResult:
    """Turn two paired groups of densities or curves into coefficient matrices.

    Each group enters its tangent space through pdf_tangent_coordinates or
    shape_tangent_coordinates. rank and explained pick the FPCA truncation
    (see fit_fpca); with neither, densities keep 95% and curves 80% of the
    variance.

    mode:
      separate  - per-group Karcher means and eigenbases;
      pooled    - one mean and one joint eigenbasis from the union;
      transport - per-group means, group A tangents parallel-transported to
                  group B's mean, joint eigenbasis on the combined set.
    pooled/transport require both groups to hold the same object kind.
    """
    if mode not in ("separate", "pooled", "transport"):
        raise ValidationError(f"unknown tangent mode {mode!r}")
    _check_explained(explained)
    if len(group_a) != len(group_b):
        raise ValidationError(
            f"paired groups must have equal sizes ({len(group_a)} vs {len(group_b)})"
        )
    kind_a, kind_b = _kind_of(group_a[0]), _kind_of(group_b[0])
    if kind_a != kind_b and mode != "separate":
        raise ValidationError(
            "pooled/transport modes need both groups to be the same kind; "
            "use mode='separate' for mixed densities and curves"
        )

    def _fit(tangents, kind):
        if rank is None and explained is None:
            default = PDF_EXPLAINED_DEFAULT if kind == "pdf" else SHAPE_EXPLAINED_DEFAULT
            return fit_fpca(tangents, explained=default)
        return fit_fpca(tangents, rank=rank, explained=explained)

    if mode == "pooled":
        pooled = _group_tangents(list(group_a) + list(group_b), kind_a)
        halves = np.split(pooled.values, [len(group_a)])
        tan_1, tan_2 = (Tangents(pooled.base, V) for V in halves)
    else:
        tan_1 = _group_tangents(group_a, kind_a)
        tan_2 = _group_tangents(group_b, kind_b)
    if mode == "transport":
        tan_1 = Tangents(tan_2.base, _transport_rows(tan_1.values, tan_1.base, tan_2.base))
    if mode == "separate":
        basis_1, basis_2 = _fit(tan_1, kind_a), _fit(tan_2, kind_b)
    else:
        joint = np.concatenate([tan_1.values, tan_2.values])
        basis_1 = basis_2 = _fit(Tangents(tan_2.base, joint), kind_a)
    return TangentModeResult(
        mode, coefficients(basis_1, tan_1), coefficients(basis_2, tan_2),
        basis_1, basis_2, tan_1, tan_2,
    )
