import numpy as np
import pytest

from oracles import cca_oracle
from tfcca import (
    CurveSimSpec,
    Grid,
    PdfSimSpec,
    ValidationError,
    cca,
    gen_curve_group,
    gen_pdf_group,
    recovery_protocol_pdf,
    recovery_protocol_shape,
    tangent_mode_pipeline,
)
from tfcca.numerics import trapezoid_weights
from tfcca.simgen import REGIME_CORRELATION


class TestPdfGenerator:
    def test_outputs_are_valid_pdfs(self):
        pdfs = gen_pdf_group(PdfSimSpec(3, 20, Grid(500), rng_seed=0))
        w = trapezoid_weights(500)
        for p in pdfs:
            assert p.f.values.min() >= 0
            assert w @ p.f.values == pytest.approx(1.0, abs=1e-9)

    def test_group1_first_peak_fixed(self):
        pdfs = gen_pdf_group(PdfSimSpec(1, 30, Grid(1000), rng_seed=1))
        t = Grid(1000).points
        near = (t > 0.2) & (t < 0.4)
        for p in pdfs:
            vals = p.f.values
            # a local mode exists near 0.3: the max over (0.2, 0.4) beats the
            # values at the window edges
            peak = vals[near].max()
            edges = max(vals[np.searchsorted(t, 0.2)], vals[np.searchsorted(t, 0.45)])
            assert peak > edges
            idx = np.argmax(vals[near])
            assert abs(t[near][idx] - 0.3) < 0.05

    def test_bitwise_reproducible(self):
        spec = PdfSimSpec(2, 10, Grid(400), rng_seed=42)
        a = gen_pdf_group(spec)
        b = gen_pdf_group(spec)
        for p, q in zip(a, b):
            assert np.array_equal(p.f.values, q.f.values)

    def test_bad_group_rejected(self):
        with pytest.raises(ValidationError):
            PdfSimSpec(4, 10)


class TestCurveGenerator:
    def test_curves_closed(self):
        spec = CurveSimSpec("moderate", 12, Grid(150), rng_seed=0)
        curves, locs = gen_curve_group(spec, 1)
        assert len(curves) == 12 and locs.shape == (12,)
        for c in curves:
            np.testing.assert_allclose(c.beta.values[0], c.beta.values[-1])

    @pytest.mark.parametrize("regime", ["high", "moderate", "weak"])
    def test_cross_group_correlation_by_construction(self, regime):
        spec = CurveSimSpec(regime, 100, Grid(100), rng_seed=7)
        _, locs1 = gen_curve_group(spec, 1)
        _, locs2 = gen_curve_group(spec, 2)
        r = np.corrcoef(locs1, locs2)[0, 1]
        assert r == pytest.approx(REGIME_CORRELATION[regime], abs=1e-10)

    def test_high_regime_meets_paper_level(self):
        spec = CurveSimSpec("high", 100, Grid(100), rng_seed=3)
        _, locs1 = gen_curve_group(spec, 1)
        _, locs2 = gen_curve_group(spec, 2)
        assert np.corrcoef(locs1, locs2)[0, 1] >= 0.99

    def test_weak_regime_small(self):
        spec = CurveSimSpec("weak", 100, Grid(100), rng_seed=4)
        _, locs1 = gen_curve_group(spec, 1)
        _, locs2 = gen_curve_group(spec, 2)
        assert abs(np.corrcoef(locs1, locs2)[0, 1]) <= 0.1

    def test_group2_shape_varies(self):
        spec = CurveSimSpec("high", 6, Grid(120), rng_seed=5)
        curves1, _ = gen_curve_group(spec, 1)
        curves2, _ = gen_curve_group(spec, 2)

        def bump_mass(c):
            # total radial excess; scales like amp/sqrt(kappa), so it varies
            # exactly when the peak concentration varies
            r = np.linalg.norm(c.beta.values, axis=1)
            return np.trapezoid(r - 1.0, c.grid.points)

        spread1 = np.std([bump_mass(c) for c in curves1])
        spread2 = np.std([bump_mass(c) for c in curves2])
        assert spread2 > 3 * spread1

    def test_two_curves_rejected_three_suffice(self):
        with pytest.raises(ValidationError, match="n must be >= 3"):
            CurveSimSpec("high", 2)
        _, locs = gen_curve_group(CurveSimSpec("high", 3, Grid(60)), 2)
        assert np.isfinite(locs).all()

    def test_reproducible(self):
        spec = CurveSimSpec("weak", 5, Grid(100), rng_seed=9)
        a, la = gen_curve_group(spec, 2)
        b, lb = gen_curve_group(spec, 2)
        assert np.array_equal(la, lb)
        for c, d in zip(a, b):
            assert np.array_equal(c.beta.values, d.beta.values)


class TestPdfRecovery:
    def test_truth_reproduced_by_oracle(self):
        res = recovery_protocol_pdf(2, "separate", rng_seed=5, groups=(1, 2))
        oracle = cca_oracle(res.coeffs_1, res.coeffs_2)
        np.testing.assert_allclose(res.rho_truth, oracle, atol=1e-10)

    def test_separate_mode_recovers(self):
        res = recovery_protocol_pdf(3, "separate", rng_seed=6, groups=(1, 3))
        assert np.abs(res.rho_truth - res.rho_hat).max() < 1e-2

    def test_pooled_mode_recovers(self):
        res = recovery_protocol_pdf(3, "pooled", rng_seed=6, groups=(1, 3))
        assert np.abs(res.rho_truth - res.rho_hat).max() < 5e-2

    def test_null_cross_covariance(self):
        res = recovery_protocol_pdf(
            2, "separate", rng_seed=8, groups=(1, 2), rho_targets=np.zeros(2)
        )
        assert res.rho_hat.max() < 0.3

    def test_deterministic(self):
        a = recovery_protocol_pdf(2, "separate", rng_seed=10, groups=(2, 3))
        b = recovery_protocol_pdf(2, "separate", rng_seed=10, groups=(2, 3))
        assert np.array_equal(a.rho_hat, b.rho_hat)


class TestShapeRecovery:
    def test_separate_estimate_is_the_pipeline_estimate(self):
        # the protocol and tangent_mode_pipeline share one shape tangent step,
        # so the protocol's separate estimate is the pipeline's exactly
        grid = Grid(100)
        rec = recovery_protocol_shape("high", rng_seed=4, n=8, grid=grid)
        spec = CurveSimSpec("high", 8, grid, 4)
        curves1, _ = gen_curve_group(spec, 1)
        curves2, _ = gen_curve_group(spec, 2)
        res = tangent_mode_pipeline(curves1, curves2, mode="separate", rank=3)
        np.testing.assert_array_equal(
            rec.rho_separate, cca(res.c1, res.c2).correlations
        )
