"""Tangent-space functional PCA and the three tangent-space layouts.

Tangent vectors are stacked into a sample matrix X (planar functions listed
x then y, circle-domain functions keeping one copy of the identified
endpoint) with matching trapezoidal weights w, and decomposed by one thin
SVD of X sqrt(w), whichever of the sample count and the grid size is larger.
Eigenfunctions are stored with unit L2 norm, so coefficient extraction and
reconstruction use the same quadrature convention as the geometry modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Pdf, pdf_tangent_coordinates
from .errors import RankError, ValidationError
from .numerics import trapezoid_weights
from .shape import Curve, shape_tangent_coordinates
from .sphere import SpherePoint, TangentVector, _transport_rows, tangent_at

PDF_EXPLAINED_DEFAULT = 0.95
SHAPE_EXPLAINED_DEFAULT = 0.80


@dataclass(frozen=True)
class FpcBasis:
    """Orthonormal eigenfunctions at a Karcher mean, variance-ordered."""

    base: SpherePoint
    eigenfunctions: tuple
    eigenvalues: np.ndarray
    rank: int
    explained_fraction: float
    total_variance: float

    def direction(self, weights) -> TangentVector:
        """Tangent vector sum_i e_i w_i for a weight vector of length rank."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.rank,):
            raise ValidationError(f"weights shape {w.shape} != ({self.rank},)")
        vals = sum(wi * e.v.values for wi, e in zip(w, self.eigenfunctions))
        return TangentVector(self.base, self.base.f.with_values(vals))


@dataclass(frozen=True)
class CoeffMatrix:
    """n x r matrix of tangent PC coefficients."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] < 2:
            raise ValidationError("coefficient matrix must be 2-D with n >= 2 rows")
        if not np.all(np.isfinite(r)):
            raise ValidationError("coefficient matrix has non-finite entries")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def r(self) -> int:
        return self.rows.shape[1]


def _check_common_base(tangents) -> SpherePoint:
    base = tangents[0].base
    for t in tangents[1:]:
        if t.base is base:
            continue
        if t.base.grid != base.grid or not np.allclose(
            t.base.f.values, base.f.values, atol=1e-8
        ):
            raise ValidationError("tangent vectors are attached to different bases")
    return base


def _samples(functions) -> tuple[np.ndarray, np.ndarray]:
    """Sample matrix X, one row per function, and quadrature weights w such
    that (X * w) @ Y.T holds the L2 inner products.

    A circle's identified endpoint is kept once and carries both end
    weights; a planar function lists its x samples, then its y samples.
    """
    f0 = functions[0]
    X = np.stack([f.values for f in functions])
    w = trapezoid_weights(f0.grid.n_points)
    if f0.periodic:
        X = X[:, :-1]
        w = np.append(w[0] + w[-1], w[1:-1])
    if f0.is_planar:
        X = X.transpose(0, 2, 1).reshape(len(X), -1)
        w = np.tile(w, 2)
    return X, w


def fit_fpca(tangents, rank: int | None = None, explained: float | None = None):
    """Eigen-decompose the sample covariance of tangent vectors.

    Exactly one truncation rule applies: a fixed rank, or the smallest rank
    whose eigenvalues explain at least `explained` of the total variance
    (default 0.95). Solved by one thin SVD of the weighted sample matrix
    X sqrt(w) = U S V^T: the eigenvalues are s^2 / (n - 1) and the
    eigenfunctions V / sqrt(w), which come out exactly L2-orthonormal.
    Sign convention: the largest-magnitude entry of each eigenfunction is
    positive.
    """
    if len(tangents) < 2:
        raise ValidationError("fpca needs >= 2 tangent vectors")
    if rank is not None and explained is not None:
        raise ValidationError("specify rank or explained, not both")
    if rank is None and explained is None:
        explained = PDF_EXPLAINED_DEFAULT

    base = _check_common_base(tangents)
    proto = tangents[0].v
    X, w = _samples([t.v for t in tangents])
    n = X.shape[0]
    root_w = np.sqrt(w)
    _, s, Vt = np.linalg.svd(X * root_w, full_matrices=False)
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
    E *= np.sign(E[np.arange(rank), np.abs(E).argmax(axis=1)])[:, None]
    if proto.is_planar:
        E = E.reshape(rank, 2, -1).transpose(0, 2, 1)
    if proto.periodic:
        E = np.concatenate([E, E[:, :1]], axis=1)

    lams = mu[:rank].copy()
    lams.flags.writeable = False
    return FpcBasis(
        base=base,
        eigenfunctions=tuple(tangent_at(base, e) for e in E),
        eigenvalues=lams,
        rank=rank,
        explained_fraction=float(mu[:rank].sum() / total),
        total_variance=total,
    )


def coefficients(basis: FpcBasis, tangents) -> CoeffMatrix:
    """Project tangent vectors on the basis: c_ij = <delta_i, e_j>."""
    _check_common_base(list(tangents) + [basis.eigenfunctions[0]])
    X, w = _samples([t.v for t in tangents])
    E, _ = _samples([e.v for e in basis.eigenfunctions])
    return CoeffMatrix((X * w) @ E.T)


@dataclass(frozen=True)
class TangentModeResult:
    """Everything the CCA/CVR stage and visualization need from one layout."""

    kind: str
    mode: str
    c1: CoeffMatrix
    c2: CoeffMatrix
    basis_1: FpcBasis
    basis_2: FpcBasis
    mean_1: object
    mean_2: object
    tangents_1: list
    tangents_2: list


def _kind_of(obj) -> str:
    if isinstance(obj, Pdf):
        return "pdf"
    if isinstance(obj, Curve):
        return "curve"
    raise ValidationError(f"expected Pdf or Curve, got {type(obj).__name__}")


def _group_mean_tangents(group, kind):
    if kind == "pdf":
        return pdf_tangent_coordinates(group)
    return shape_tangent_coordinates(group)


def _default_explained(kind: str) -> float:
    return PDF_EXPLAINED_DEFAULT if kind == "pdf" else SHAPE_EXPLAINED_DEFAULT


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
            return fit_fpca(tangents, explained=_default_explained(kind))
        return fit_fpca(tangents, rank=rank, explained=explained)

    if mode == "separate":
        mean_1, tan_1 = _group_mean_tangents(group_a, kind_a)
        mean_2, tan_2 = _group_mean_tangents(group_b, kind_b)
        basis_1, basis_2 = _fit(tan_1, kind_a), _fit(tan_2, kind_b)
        c1 = coefficients(basis_1, tan_1)
        c2 = coefficients(basis_2, tan_2)
        return TangentModeResult(
            f"{kind_a}+{kind_b}" if kind_a != kind_b else kind_a,
            mode, c1, c2, basis_1, basis_2, mean_1, mean_2, tan_1, tan_2,
        )

    if mode == "pooled":
        pooled_mean, pooled_tan = _group_mean_tangents(
            list(group_a) + list(group_b), kind_a
        )
        n = len(group_a)
        tan_1, tan_2 = pooled_tan[:n], pooled_tan[n:]
        basis = _fit(pooled_tan, kind_a)
        c1 = coefficients(basis, tan_1)
        c2 = coefficients(basis, tan_2)
        return TangentModeResult(
            kind_a, mode, c1, c2, basis, basis, pooled_mean, pooled_mean, tan_1, tan_2
        )

    # transport
    mean_1, tan_1 = _group_mean_tangents(group_a, kind_a)
    mean_2, tan_2 = _group_mean_tangents(group_b, kind_a)
    p1 = mean_1.p if kind_a == "pdf" else mean_1.q
    p2 = mean_2.p if kind_a == "pdf" else mean_2.q
    rows = _transport_rows(np.stack([t.v.values for t in tan_1]), p1, p2)
    moved = [TangentVector(p2, p2.f.with_values(v)) for v in rows]
    basis = _fit(list(moved) + list(tan_2), kind_a)
    c1 = coefficients(basis, moved)
    c2 = coefficients(basis, tan_2)
    return TangentModeResult(
        kind_a, mode, c1, c2, basis, basis, mean_1, mean_2, moved, tan_2
    )
