import numpy as np
import pytest

from tfcca import (
    DiscreteFunction,
    Grid,
    Pdf,
    RankError,
    ValidationError,
    coefficients,
    fit_fpca,
    inner_product,
    tangent_mode_pipeline,
)
from tfcca.sphere import SpherePoint, Tangents, tangent_at

N = 400
GRID = Grid(N)


def smooth_base():
    # strictly positive, decays toward the ends like a floored density root
    t = GRID.points
    vals = 0.2 + np.exp(-0.5 * ((t - 0.45) / 0.18) ** 2)
    return SpherePoint(DiscreteFunction(GRID, vals))


def smooth_tangents(rng, base, n, n_modes=16, centered=True):
    """Random tangent vectors built from smooth bumps that vanish at the ends.

    Centered by default, mirroring log-map images at a Karcher mean whose
    average vanishes; centering keeps the sample rank at n - 1.
    """
    t = GRID.points
    raw = []
    envelope = np.sin(np.pi * t) ** 2
    for _ in range(n):
        vals = np.zeros(N)
        for k in range(1, n_modes + 1):
            vals += rng.standard_normal() / k * np.sin(np.pi * k * t)
        raw.append(0.1 * vals * envelope)
    if centered:
        mean = np.mean(raw, axis=0)
        raw = [v - mean for v in raw]
    return [tangent_at(base, v) for v in raw]


def block(vectors):
    """TangentVectors at one base point as the Tangents block fit_fpca takes."""
    return Tangents(vectors[0].base, np.stack([v.v.values for v in vectors]))


def gaussian_mix_pdfs(rng, n):
    t = Grid(500).points
    out = []
    for m in rng.uniform(0.6, 0.8, n):
        vals = np.exp(-0.5 * ((t - 0.3) / 0.1) ** 2) + np.exp(
            -0.5 * ((t - m) / 0.12) ** 2
        )
        out.append(Pdf.from_unnormalized(vals, Grid(500)))
    return out


class TestFitFpca:
    def test_one_dimensional_data(self):
        rng = np.random.default_rng(0)
        base = smooth_base()
        direction = smooth_tangents(rng, base, 1, centered=False)[0]
        tangents = [
            tangent_at(base, c * direction.v.values) for c in (-1.0, 0.5, 2.0, -0.3)
        ]
        basis = fit_fpca(block(tangents), rank=1)
        assert basis.rank == 1
        assert basis.explained_fraction == pytest.approx(1.0, abs=1e-8)

    def test_eigenvalue_sum_is_total_variance(self):
        rng = np.random.default_rng(1)
        base = smooth_base()
        tangents = smooth_tangents(rng, base, 10)
        basis = fit_fpca(block(tangents), rank=9)
        total = sum(inner_product(t.v, t.v) for t in tangents) / (len(tangents) - 1)
        assert basis.eigenvalues.sum() == pytest.approx(total, rel=1e-6)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        base = smooth_base()
        tangents = smooth_tangents(rng, base, 8)
        basis = fit_fpca(block(tangents), rank=7)
        C = coefficients(basis, block(tangents))
        for i, t in enumerate(tangents):
            rec = sum(
                C[i, j] * e.v.values for j, e in enumerate(basis.eigenfunctions)
            )
            np.testing.assert_allclose(rec, t.v.values, atol=1e-6)

    def test_orthonormal_eigenfunctions(self):
        rng = np.random.default_rng(3)
        base = smooth_base()
        basis = fit_fpca(block(smooth_tangents(rng, base, 12)), rank=8)
        for i, ei in enumerate(basis.eigenfunctions):
            for j, ej in enumerate(basis.eigenfunctions):
                assert inner_product(ei.v, ej.v) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-6
                )

    def test_eigenvalues_nonincreasing(self):
        rng = np.random.default_rng(4)
        basis = fit_fpca(block(smooth_tangents(rng, smooth_base(), 15)), rank=10)
        assert np.all(np.diff(basis.eigenvalues) <= 1e-15)

    def test_gram_oracle_agreement(self):
        # independent oracle: eigenvalues of the n x n Gram matrix of the
        # stacked sample vectors under the same quadrature weighting
        rng = np.random.default_rng(5)
        base = smooth_base()
        tangents = smooth_tangents(rng, base, 9)
        basis = fit_fpca(block(tangents), rank=8)
        X = np.stack([t.v.values for t in tangents])
        w = np.full(N, GRID.spacing)
        w[0] = w[-1] = GRID.spacing / 2
        G = (X * w) @ X.T / (len(tangents) - 1)
        mu = np.sort(np.linalg.eigvalsh(G))[::-1][:8]
        np.testing.assert_allclose(basis.eigenvalues, mu, rtol=1e-6, atol=1e-12)

    def test_gram_oracle_agreement_periodic_planar(self):
        # closed planar tangents: the identified endpoint is one sample with
        # the full weight h, so the oracle is the dense covariance of the
        # distinct samples (x then y) under the circle weights
        rng = np.random.default_rng(17)
        g = Grid(61)
        theta = 2 * np.pi * g.points
        base = SpherePoint(DiscreteFunction(
            g, np.stack([np.cos(theta) + 0.3, np.sin(theta)], axis=1), periodic=True
        ))
        tangents = []
        for _ in range(7):
            vals = sum(
                rng.standard_normal(2) / k
                * np.cos(k * theta + rng.uniform(0, 2 * np.pi))[:, None]
                for k in range(1, 6)
            )
            tangents.append(tangent_at(base, vals))
        basis = fit_fpca(block(tangents), rank=6)
        X = np.stack([t.v.values[:-1].T.reshape(-1) for t in tangents])
        root_w = np.sqrt(np.full(X.shape[1], g.spacing))
        C = X.T @ X / (len(tangents) - 1)
        mu = np.sort(np.linalg.eigvalsh(root_w[:, None] * C * root_w))[::-1][:6]
        np.testing.assert_allclose(basis.eigenvalues, mu, rtol=1e-6, atol=1e-12)
        for i, ei in enumerate(basis.eigenfunctions):
            for j, ej in enumerate(basis.eigenfunctions):
                assert inner_product(ei.v, ej.v) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-9
                )

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(6)
        tangents = smooth_tangents(rng, smooth_base(), 8)
        b1 = fit_fpca(block(tangents), rank=5)
        b2 = fit_fpca(block(tangents), rank=5)
        for e1, e2 in zip(b1.eigenfunctions, b2.eigenfunctions):
            assert np.array_equal(e1.v.values, e2.v.values)
        assert np.array_equal(b1.eigenvalues, b2.eigenvalues)

    def test_rank_infeasible(self):
        rng = np.random.default_rng(7)
        tangents = smooth_tangents(rng, smooth_base(), 5)
        with pytest.raises(RankError):
            fit_fpca(block(tangents), rank=5)

    def test_explained_threshold(self):
        rng = np.random.default_rng(8)
        tangents = block(smooth_tangents(rng, smooth_base(), 12))
        basis = fit_fpca(tangents, explained=0.9)
        assert basis.explained_fraction >= 0.9
        smaller = fit_fpca(tangents, rank=basis.rank - 1) if basis.rank > 1 else None
        if smaller is not None:
            assert smaller.explained_fraction < 0.9

    def test_explained_outside_unit_interval_rejected(self):
        tangents = block(smooth_tangents(np.random.default_rng(8), smooth_base(), 12))
        for bad in (1.5, 1.0 + 1e-9, 0.0, -1.0, np.nan):
            with pytest.raises(ValidationError, match="explained must lie in"):
                fit_fpca(tangents, explained=bad)
        assert fit_fpca(tangents, explained=1.0).explained_fraction == pytest.approx(1.0)

    def test_exactly_one_truncation_rule(self):
        # the layouts' defaults live in tangent_mode_pipeline, not here
        tangents = block(smooth_tangents(np.random.default_rng(8), smooth_base(), 12))
        for kwargs in ({}, {"rank": 2, "explained": 0.9}):
            with pytest.raises(ValidationError, match="exactly one of rank and explained"):
                fit_fpca(tangents, **kwargs)


class TestCoefficients:
    def test_zero_vector(self):
        rng = np.random.default_rng(9)
        base = smooth_base()
        tangents = smooth_tangents(rng, base, 6)
        basis = fit_fpca(block(tangents), rank=3)
        zero = tangent_at(base, np.zeros(N))
        C = coefficients(basis, block([zero, zero]))
        np.testing.assert_allclose(C, 0.0, atol=1e-15)

    def test_bessel_inequality(self):
        rng = np.random.default_rng(10)
        base = smooth_base()
        tangents = smooth_tangents(rng, base, 10)
        basis = fit_fpca(block(tangents), rank=4)
        C = coefficients(basis, block(tangents))
        for i, t in enumerate(tangents):
            assert np.linalg.norm(C[i]) <= np.sqrt(inner_product(t.v, t.v)) + 1e-9

    def test_eigenfunction_coefficients_are_unit_rows(self):
        rng = np.random.default_rng(11)
        basis = fit_fpca(block(smooth_tangents(rng, smooth_base(), 8)), rank=4)
        C = coefficients(basis, block(basis.eigenfunctions))
        np.testing.assert_allclose(C, np.eye(4), atol=1e-6)

    def test_projection_residual_nonincreasing_in_rank(self):
        rng = np.random.default_rng(12)
        base = smooth_base()
        tangents = smooth_tangents(rng, base, 10)
        target = tangents[0]
        prev = np.inf
        for r in range(1, 8):
            basis = fit_fpca(block(tangents), rank=r)
            c = coefficients(basis, block([target, tangents[1]]))[0]
            rec = sum(c[j] * e.v.values for j, e in enumerate(basis.eigenfunctions))
            resid = np.sqrt(
                inner_product(
                    base.f.with_values(target.v.values - rec),
                    base.f.with_values(target.v.values - rec),
                )
            )
            assert resid <= prev + 1e-9
            prev = resid


class TestTangentModePipeline:
    def test_pooled_identical_groups(self):
        rng = np.random.default_rng(13)
        pdfs = gaussian_mix_pdfs(rng, 8)
        res = tangent_mode_pipeline(pdfs, pdfs, mode="pooled", rank=2)
        np.testing.assert_allclose(res.c1, res.c2, atol=1e-10)

    def test_transport_preserves_norms(self):
        rng = np.random.default_rng(14)
        a = gaussian_mix_pdfs(rng, 8)
        b = gaussian_mix_pdfs(rng, 8)
        sep = tangent_mode_pipeline(a, b, mode="separate", rank=2)
        tra = tangent_mode_pipeline(a, b, mode="transport", rank=2)
        for before, after in zip(list(sep.tangents_1), list(tra.tangents_1)):
            assert after.length == pytest.approx(before.length, abs=1e-8)

    def test_mixed_kind_pooled_rejected(self):
        from tfcca import Curve

        rng = np.random.default_rng(15)
        pdfs = gaussian_mix_pdfs(rng, 4)
        g = Grid(50)
        theta = 2 * np.pi * g.points
        vals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        vals[-1] = vals[0]
        curves = [Curve(DiscreteFunction(g, vals, periodic=True))] * 4
        with pytest.raises(ValidationError):
            tangent_mode_pipeline(pdfs, curves, mode="pooled")

    def test_explained_checked_before_tangent_coordinates(self, monkeypatch):
        import tfcca.fpca
        from tfcca import Curve

        def not_reached(curves):
            raise AssertionError("tangent coordinates computed before the check")

        monkeypatch.setattr(tfcca.fpca, "shape_tangent_coordinates", not_reached)
        g = Grid(50)
        theta = 2 * np.pi * g.points
        vals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        vals[-1] = vals[0]
        curves = [Curve(DiscreteFunction(g, vals, periodic=True))] * 4
        for bad in (1.5, 0.0, np.nan):
            with pytest.raises(ValidationError, match="explained must lie in"):
                tangent_mode_pipeline(curves, curves, explained=bad)

    def test_unequal_sizes_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValidationError):
            tangent_mode_pipeline(
                gaussian_mix_pdfs(rng, 4), gaussian_mix_pdfs(rng, 5), mode="separate"
            )
