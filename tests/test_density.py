import numpy as np
import pytest

from tfcca import (
    DegenerateSampleError,
    DensityNormalizationWarning,
    DiscreteFunction,
    GeodesicOverflowError,
    Grid,
    Pdf,
    ValidationError,
    estimate_pdf,
    exp_map,
    geodesic_distance,
    pdf_tangent_coordinates,
    pdf_variate_direction,
    srt,
    srt_inverse,
)
from tfcca.fpca import fit_fpca
from tfcca.numerics import trapezoid_weights

G = Grid(1000)


def make_pdf(fn, grid=G) -> Pdf:
    return Pdf.from_unnormalized(fn(grid.points), grid)


def integral(pdf: Pdf) -> float:
    return float(trapezoid_weights(pdf.grid.n_points) @ pdf.f.values)


def gaussian_mix(t, m1, s1, m2, s2):
    return 0.5 * np.exp(-0.5 * ((t - m1) / s1) ** 2) / s1 + 0.5 * np.exp(
        -0.5 * ((t - m2) / s2) ** 2
    ) / s2


class TestPdfValidation:
    def test_renormalized_with_warning(self):
        vals = np.ones(G.n_points) * (1 + 5e-4)
        with pytest.warns(DensityNormalizationWarning):
            p = Pdf(DiscreteFunction(G, vals))
        assert integral(p) == pytest.approx(1.0, abs=1e-12)

    def test_large_drift_rejected(self):
        vals = np.ones(G.n_points) * 1.2
        with pytest.raises(ValidationError):
            Pdf(DiscreteFunction(G, vals))

    def test_negative_rejected(self):
        vals = np.ones(G.n_points)
        vals[10] = -0.5
        with pytest.raises(ValidationError):
            Pdf.from_unnormalized(vals, G)


class TestSrt:
    def test_uniform_density(self):
        p = make_pdf(lambda t: np.ones_like(t))
        psi = srt(p)
        np.testing.assert_allclose(psi.p.f.values, 1.0, atol=1e-12)

    def test_linear_density_analytic(self):
        # f(t) = 2t has square root sqrt(2t) with unit L2 norm
        p = make_pdf(lambda t: 2 * t)
        psi = srt(p)
        np.testing.assert_allclose(psi.p.f.values, np.sqrt(2 * G.points), atol=1e-8)
        assert abs(np.sqrt(np.trapezoid(psi.p.f.values ** 2, G.points)) - 1) < 1e-6

    def test_round_trip(self):
        p = make_pdf(lambda t: gaussian_mix(t, 0.3, 0.1, 0.7, 0.15))
        q = srt_inverse(srt(p))
        np.testing.assert_allclose(q.f.values, p.f.values, atol=1e-8)


class TestEstimatePdf:
    def test_uniform_lattice_oracle(self):
        # law of large numbers: 1e5 evenly spread samples give a flat density
        samples = np.linspace(0, 1, 100_000)
        p = estimate_pdf(samples, bins=10, floor=0.0)
        np.testing.assert_allclose(p.f.values, 1.0, atol=0.05)
        assert integral(p) == pytest.approx(1.0, abs=1e-9)

    def test_floor_gives_strictly_positive(self):
        rng = np.random.default_rng(0)
        p = estimate_pdf(rng.normal(5, 2, 500), bins=20, floor=1e-4)
        assert p.f.values.min() > 0

    def test_two_distinct_values(self):
        p = estimate_pdf([1.0, 1.0, 3.0], bins=10, floor=0.0)
        assert integral(p) == pytest.approx(1.0, abs=1e-9)
        # two spikes: mass only in the first and last bins
        mid = p.f.values[(p.grid.points > 0.15) & (p.grid.points < 0.85)]
        np.testing.assert_allclose(mid, 0.0, atol=1e-12)

    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            estimate_pdf([2.0, 2.0, 2.0])

    def test_explicit_range(self):
        p = estimate_pdf([0.2, 0.4], bins=4, floor=0.0, value_range=(0.0, 1.0))
        assert integral(p) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("value_range", [None, (-1e308, 1e308)])
    def test_range_too_wide_to_rescale(self, value_range):
        # hi - lo overflows to inf, which would rescale every sample to NaN
        with pytest.raises(ValidationError, match=r"sample range \[-1e\+308, 1e\+308\]"):
            estimate_pdf([1e308, -1e308, 3.0], value_range=value_range)


class TestTangentCoordinates:
    def test_identical_pdfs_give_zero_tangents(self):
        p = make_pdf(lambda t: gaussian_mix(t, 0.3, 0.1, 0.7, 0.1))
        mean, tangents = pdf_tangent_coordinates([p, p, p])
        for v in list(tangents):
            assert v.length < 1e-8

    def test_mean_tangent_below_tolerance(self):
        rng = np.random.default_rng(1)
        pdfs = [
            make_pdf(lambda t, m=m: gaussian_mix(t, 0.3, 0.1, m, 0.1))
            for m in rng.uniform(0.6, 0.8, 8)
        ]
        mean, tangents = pdf_tangent_coordinates(pdfs)
        avg = np.mean(tangents.values, axis=0)
        # the mean stops once its gradient is within karcher_mean's tol, 1e-6
        assert np.sqrt(np.trapezoid(avg ** 2, G.points)) <= 1e-6

    def test_two_pdfs_antisymmetric(self):
        p1 = make_pdf(lambda t: gaussian_mix(t, 0.3, 0.1, 0.65, 0.1))
        p2 = make_pdf(lambda t: gaussian_mix(t, 0.3, 0.1, 0.75, 0.1))
        _, tangents = pdf_tangent_coordinates([p1, p2])
        v1, v2 = list(tangents)
        np.testing.assert_allclose(v1.v.values, -v2.v.values, atol=1e-6)

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        pdfs = [
            make_pdf(lambda t, m=m: gaussian_mix(t, 0.3, 0.1, m, 0.12))
            for m in rng.uniform(0.6, 0.8, 6)
        ]
        mean, tangents = pdf_tangent_coordinates(pdfs)
        for p, v in zip(pdfs, list(tangents)):
            rec = srt_inverse(exp_map(mean.p, v))
            np.testing.assert_allclose(rec.f.values, p.f.values, atol=1e-6)


class TestFisherRaoGridStability:
    def test_refinement_invariance(self):
        vals = {}
        for n in (500, 2000):
            g = Grid(n)
            p1 = make_pdf(lambda t: gaussian_mix(t, 0.3, 0.1, 0.7, 0.1), g)
            p2 = make_pdf(lambda t: gaussian_mix(t, 0.35, 0.12, 0.65, 0.15), g)
            vals[n] = geodesic_distance(srt(p1).p, srt(p2).p)
        assert vals[500] == pytest.approx(vals[2000], abs=1e-4)


class TestVariateDirection:
    def _mean_and_basis(self):
        rng = np.random.default_rng(3)
        pdfs = [
            make_pdf(lambda t, m=m, s=s: gaussian_mix(t, 0.3, 0.1, m, s))
            for m, s in zip(rng.uniform(0.6, 0.8, 10), rng.uniform(0.1, 0.2, 10))
        ]
        mean, tangents = pdf_tangent_coordinates(pdfs)
        basis = fit_fpca(tangents, rank=2)
        return mean, basis

    def test_zero_eps_returns_mean(self):
        mean, basis = self._mean_and_basis()
        out = pdf_variate_direction(basis, [0.7, 0.3], [0.0])
        np.testing.assert_allclose(
            out[0].f.values, srt_inverse(mean).f.values, atol=1e-10
        )

    def test_symmetric_epsilons(self):
        # step kept small enough that the exponential map stays inside the
        # positive orthant, where squaring is exactly invertible
        mean, basis = self._mean_and_basis()
        plus, minus = pdf_variate_direction(basis, [1.0, 0.0], [0.1, -0.1])
        d_plus = geodesic_distance(srt(plus).p, mean.p)
        d_minus = geodesic_distance(srt(minus).p, mean.p)
        assert d_plus == pytest.approx(d_minus, abs=1e-8)

    def test_outputs_integrate_to_one(self):
        mean, basis = self._mean_and_basis()
        for steps in ([-3, -2, -1, 0, 1, 2, 3], []):
            out = pdf_variate_direction(basis, [0.8, 0.6], steps)
            assert len(out) == len(steps)
            for p in out:
                assert integral(p) == pytest.approx(1.0, abs=1e-6)

    def test_overflow_raises(self):
        mean, basis = self._mean_and_basis()
        with pytest.raises(GeodesicOverflowError):
            pdf_variate_direction(basis, [1.0, 0.0], [200.0])
