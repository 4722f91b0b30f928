"""Tangent-space functional PCA and the three tangent-space layouts.

Tangent vectors are flattened to sample vectors (planar functions stacked
x-then-y, circle-domain functions keeping one copy of the identified
endpoint) and decomposed by a plain SVD of the sample covariance, solved
through the n x n Gram problem when the grid is finer than the sample count.
Eigenfunctions are stored with unit L2 norm, so coefficient extraction and
reconstruction use the same quadrature convention as the geometry modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Pdf, pdf_tangent_coordinates
from .errors import RankError, ValidationError
from .numerics import DiscreteFunction
from .shape import Curve, shape_tangent_coordinates
from .sphere import SpherePoint, TangentVector, parallel_transport, tangent_at

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
    """n x r matrix of tangent PC coefficients plus provenance tag."""

    rows: np.ndarray
    provenance: str = ""

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


def _distinct_count(f: DiscreteFunction) -> int:
    return f.grid.n_points - 1 if f.periodic else f.grid.n_points


def _flatten(f: DiscreteFunction) -> np.ndarray:
    """Sample vector: drop the duplicated circle endpoint, stack x then y."""
    m = _distinct_count(f)
    v = f.values[:m]
    return v.T.reshape(-1) if f.is_planar else v.copy()


def _unflatten(vec: np.ndarray, proto: DiscreteFunction) -> DiscreteFunction:
    m = _distinct_count(proto)
    if proto.is_planar:
        vals = vec.reshape(2, m).T
    else:
        vals = vec
    if proto.periodic:
        vals = np.concatenate([vals, vals[:1]], axis=0)
    return proto.with_values(vals)


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


def _quadrature_vector(proto: DiscreteFunction) -> np.ndarray:
    """Integration weights matching the flattened sample layout."""
    m = _distinct_count(proto)
    h = proto.grid.spacing
    if proto.periodic:
        w = np.full(m, h)
    else:
        w = np.full(m, h)
        w[0] = w[-1] = h / 2
    return np.tile(w, 2) if proto.is_planar else w


def fit_fpca(tangents, rank: int | None = None, explained: float | None = None):
    """Eigen-decompose the sample covariance of tangent vectors.

    Exactly one truncation rule applies: a fixed rank, or the smallest rank
    whose eigenvalues explain at least `explained` of the total variance
    (default 0.95). Solved through the n x n Gram eigenproblem under the
    integration metric, which is cheap when n << grid size and identical to
    the plain SVD of the stacked sample covariance for circle-domain data.
    Eigenfunctions come out exactly L2-orthonormal. Sign convention: the
    largest-magnitude entry of each eigenfunction is positive.
    """
    if len(tangents) < 2:
        raise ValidationError("fpca needs >= 2 tangent vectors")
    if rank is not None and explained is not None:
        raise ValidationError("specify rank or explained, not both")
    if rank is None and explained is None:
        explained = PDF_EXPLAINED_DEFAULT

    base = _check_common_base(tangents)
    proto = tangents[0].v
    X = np.stack([_flatten(t.v) for t in tangents])  # n x M
    n = X.shape[0]
    w = _quadrature_vector(proto)

    gram = (X * w) @ X.T / (n - 1)
    mu, V = np.linalg.eigh(gram)
    order = np.argsort(mu)[::-1]
    mu, V = mu[order], V[:, order]
    total = float(np.clip(mu, 0.0, None).sum())
    positive = mu > max(mu[0], 0.0) * 1e-12 if mu[0] > 0 else mu > 0
    n_pos = int(np.sum(positive))
    if n_pos == 0:
        raise ValidationError("all tangent vectors are zero; nothing to decompose")
    mu, V = mu[:n_pos], V[:, :n_pos]

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
    # deterministic signs
    U = X.T @ (V[:, :rank] / np.sqrt((n - 1) * mu[:rank]))
    flips = np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])
    U *= flips

    funcs = [tangent_at(base, _unflatten(U[:, j], proto).values) for j in range(rank)]
    lams = mu[:rank].copy()
    lams.flags.writeable = False
    return FpcBasis(
        base=base,
        eigenfunctions=tuple(funcs),
        eigenvalues=lams,
        rank=rank,
        explained_fraction=float(mu[:rank].sum() / total),
        total_variance=total,
    )


def coefficients(basis: FpcBasis, tangents, provenance: str = "") -> CoeffMatrix:
    """Project tangent vectors on the basis: c_ij = <delta_i, e_j>."""
    base = _check_common_base(list(tangents) + [basis.eigenfunctions[0]])
    del base
    E = np.stack([_flatten(e.v) for e in basis.eigenfunctions])  # r x M
    X = np.stack([_flatten(t.v) for t in tangents])  # n x M
    m = _distinct_count(basis.eigenfunctions[0].v)
    f0 = basis.eigenfunctions[0].v
    if f0.periodic:
        rows = (X @ E.T) * f0.grid.spacing
    else:
        # trapezoidal weights: half weight on the two domain endpoints
        w = np.full(X.shape[1], f0.grid.spacing)
        ends = [0, m - 1] if not f0.is_planar else [0, m - 1, m, 2 * m - 1]
        w[ends] /= 2.0
        rows = (X * w) @ E.T
    return CoeffMatrix(rows, provenance)


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
        c1 = coefficients(basis_1, tan_1, f"{kind_a}/separate/group1")
        c2 = coefficients(basis_2, tan_2, f"{kind_b}/separate/group2")
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
        c1 = coefficients(basis, tan_1, f"{kind_a}/pooled/group1")
        c2 = coefficients(basis, tan_2, f"{kind_a}/pooled/group2")
        return TangentModeResult(
            kind_a, mode, c1, c2, basis, basis, pooled_mean, pooled_mean, tan_1, tan_2
        )

    # transport
    mean_1, tan_1 = _group_mean_tangents(group_a, kind_a)
    mean_2, tan_2 = _group_mean_tangents(group_b, kind_a)
    p1 = mean_1.p if kind_a == "pdf" else mean_1.q
    p2 = mean_2.p if kind_a == "pdf" else mean_2.q
    moved = [parallel_transport(t, p1, p2) for t in tan_1]
    basis = _fit(list(moved) + list(tan_2), kind_a)
    c1 = coefficients(basis, moved, f"{kind_a}/transport/group1")
    c2 = coefficients(basis, tan_2, f"{kind_a}/transport/group2")
    return TangentModeResult(
        kind_a, mode, c1, c2, basis, basis, mean_1, mean_2, moved, tan_2
    )
