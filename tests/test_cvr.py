import numpy as np
import pytest

from tfcca import (
    NumericalError,
    ValidationError,
    cca,
    concordance_index,
    cvr_cross_validate,
    cvr_fit,
    cvr_predict,
)


def correlated_views(rng, n=80, r=4, shared=2, noise=0.3):
    """Two coefficient matrices sharing `shared` latent directions."""
    z = rng.standard_normal((n, shared))
    C1 = np.column_stack([z + noise * rng.standard_normal((n, shared)),
                          rng.standard_normal((n, r - shared))])
    C2 = np.column_stack([z + noise * rng.standard_normal((n, shared)),
                          rng.standard_normal((n, r - shared))])
    return C1 @ rng.standard_normal((r, r)), C2 @ rng.standard_normal((r, r))


class TestCvrFit:
    def test_eta_one_reduces_to_cca(self):
        rng = np.random.default_rng(0)
        C1, C2 = correlated_views(rng)
        d = 2
        fit = cvr_fit(C1, C2, rng.standard_normal(80), d, eta=1.0)
        ref = cca(C1, C2).correlations[:d]
        V1 = (C1 - C1.mean(axis=0)) @ fit.weights_1
        V2 = (C2 - C2.mean(axis=0)) @ fit.weights_2
        got = [np.corrcoef(V1[:, j], V2[:, j])[0, 1] for j in range(d)]
        np.testing.assert_allclose(got, ref, atol=1e-3)

    def test_eta_one_reproduces_cca_correlations(self):
        # the descent starts at the canonical solution, which is already a
        # fixed point at eta = 1
        rng = np.random.default_rng(0)
        C1, C2 = correlated_views(rng)
        d = 2
        fit = cvr_fit(C1, C2, rng.standard_normal(80), d, eta=1.0)
        V1 = (C1 - fit.col_means_1) @ fit.weights_1
        V2 = (C2 - fit.col_means_2) @ fit.weights_2
        got = [np.corrcoef(V1[:, j], V2[:, j])[0, 1] for j in range(d)]
        np.testing.assert_allclose(got, cca(C1, C2).correlations[:d], atol=1e-10)

    def test_eta_zero_regression_endpoint(self):
        # at eta = 0 the returned (alpha, beta) are exactly the least squares
        # fit of y on the final variates
        rng = np.random.default_rng(1)
        C1, C2 = correlated_views(rng)
        y = rng.standard_normal(80)
        fit = cvr_fit(C1, C2, y, 2, eta=0.0)
        V1 = (C1 - fit.col_means_1) @ fit.weights_1
        V2 = (C2 - fit.col_means_2) @ fit.weights_2
        design = np.column_stack([np.ones(160), np.vstack([V1, V2])])
        coef, *_ = np.linalg.lstsq(design, np.concatenate([y, y]), rcond=None)
        assert fit.alpha == pytest.approx(coef[0], abs=1e-8)
        np.testing.assert_allclose(fit.beta, coef[1:], atol=1e-8)

    def test_ols_property_holds_at_any_eta(self):
        rng = np.random.default_rng(2)
        C1, C2 = correlated_views(rng)
        y = rng.standard_normal(80)
        fit = cvr_fit(C1, C2, y, 2, eta=0.5)
        V1 = (C1 - fit.col_means_1) @ fit.weights_1
        V2 = (C2 - fit.col_means_2) @ fit.weights_2
        design = np.column_stack([np.ones(160), np.vstack([V1, V2])])
        coef, *_ = np.linalg.lstsq(design, np.concatenate([y, y]), rcond=None)
        assert fit.alpha == pytest.approx(coef[0], abs=1e-8)
        np.testing.assert_allclose(fit.beta, coef[1:], atol=1e-8)

    def test_zero_response(self):
        rng = np.random.default_rng(3)
        C1, C2 = correlated_views(rng)
        fit = cvr_fit(C1, C2, np.zeros(80), 2, eta=0.5)
        assert fit.alpha == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(fit.beta, 0.0, atol=1e-8)

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(4)
        for eta in (0.0, 0.3, 0.7, 1.0):
            C1, C2 = correlated_views(rng)
            y = rng.standard_normal(80)
            fit = cvr_fit(C1, C2, y, 2, eta=eta)
            trace = np.array(fit.objective_trace)
            slack = 1e-8 * max(1.0, abs(trace[0]))
            assert np.all(np.diff(trace) <= slack)

    def test_constraint_residual(self):
        rng = np.random.default_rng(5)
        for eta in (0.0, 0.5, 1.0):
            C1, C2 = correlated_views(rng)
            y = rng.standard_normal(80)
            fit = cvr_fit(C1, C2, y, 3, eta=eta)
            for C, W, mu in (
                (C1, fit.weights_1, fit.col_means_1),
                (C2, fit.weights_2, fit.col_means_2),
            ):
                V = (C - mu) @ W
                np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-4)

    def test_infeasible_d(self):
        rng = np.random.default_rng(6)
        C1, C2 = correlated_views(rng)
        with pytest.raises(ValidationError):
            cvr_fit(C1, C2, rng.standard_normal(80), 5, eta=0.5)

    def test_degenerate_column(self):
        rng = np.random.default_rng(7)
        C1, C2 = correlated_views(rng)
        C1[:, 0] = 2.5  # zero variance after centering
        with pytest.raises(ValidationError):
            cvr_fit(C1, C2, rng.standard_normal(80), 2, eta=0.5)

    def test_two_rows_rejected(self):
        # one column per view keeps both R factors full rank, so only the
        # row count can reject this input
        C1, C2 = np.array([[0.0], [1.0]]), np.array([[1.0], [3.0]])
        with pytest.raises(ValidationError):
            cvr_fit(C1, C2, np.array([0.0, 1.0]), 1, eta=0.5)

    def test_ill_conditioned_view_rejected(self):
        # R condition about 9.8e10: above the 1e10 limit, yet no diagonal
        # entry of R is small enough to count as rank-deficient
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(60), rng.standard_normal(60)
        C1 = np.column_stack([a, a + 1e-11 * b, rng.standard_normal(60)])
        C2 = rng.standard_normal((60, 3))
        with pytest.raises(NumericalError):
            cvr_fit(C1, C2, rng.standard_normal(60), 2, eta=0.5)


class TestCrossValidate:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        C1, C2 = correlated_views(rng, n=40, r=3, shared=1)
        y = rng.standard_normal(40)
        grid = (0.0, 0.5, 1.0)
        t1, d1 = cvr_cross_validate(C1, C2, y, 1, grid, repeats=4, rng_seed=11)
        t2, d2 = cvr_cross_validate(C1, C2, y, 1, grid, repeats=4, rng_seed=11)
        assert t1.mse_by_eta == t2.mse_by_eta
        assert t1.chosen_eta == t2.chosen_eta
        assert np.array_equal(d1["repeat_mse"], d2["repeat_mse"])
        assert np.array_equal(d1["repeat_cindex"], d2["repeat_cindex"])

    def test_shared_variate_signal_recovered(self):
        # constructed signal: y is exactly linear in a variate present in
        # both views, so the held-out MSE essentially vanishes
        rng = np.random.default_rng(9)
        n = 60
        z = rng.standard_normal(n)
        C1 = np.column_stack([z, rng.standard_normal(n), rng.standard_normal(n)])
        M = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        C2 = C1 @ M
        y = 1.5 + 2.0 * z
        trace, details = cvr_cross_validate(
            C1, C2, y, 1, (0.0, 0.5, 1.0), repeats=10, rng_seed=0
        )
        assert details["mse_mean"] < 1e-6

    def test_chosen_eta_attains_minimum_with_ties_up(self):
        rng = np.random.default_rng(10)
        C1, C2 = correlated_views(rng, n=40, r=3, shared=1)
        y = rng.standard_normal(40)
        trace, _ = cvr_cross_validate(
            C1, C2, y, 1, (0.0, 0.3, 0.6, 1.0), repeats=5, rng_seed=3
        )
        best = min(trace.mse_by_eta)
        assert trace.mse_by_eta[trace.eta_grid.index(trace.chosen_eta)] == best
        for eta, mse in zip(trace.eta_grid, trace.mse_by_eta):
            if mse == best:
                assert eta <= trace.chosen_eta

    def test_prediction_shape(self):
        rng = np.random.default_rng(11)
        C1, C2 = correlated_views(rng, n=40, r=3, shared=1)
        y = rng.standard_normal(40)
        fit = cvr_fit(C1, C2, y, 2, eta=0.5)
        pred = cvr_predict(fit, C1, C2)
        assert pred.shape == (40,)


class TestConcordanceIndex:
    def test_perfectly_anti_monotone(self):
        time = np.arange(1.0, 21.0)
        risk = -time  # higher risk, shorter survival
        assert concordance_index(risk, time) == 1.0

    def test_perfectly_monotone(self):
        time = np.arange(1.0, 21.0)
        assert concordance_index(time, time) == 0.0

    def test_all_ties_exactly_half(self):
        assert concordance_index(np.zeros(15), np.arange(15.0)) == 0.5

    def test_independent_monte_carlo(self):
        rng = np.random.default_rng(12)
        risk = rng.standard_normal(10_000)
        time = rng.standard_normal(10_000)
        assert concordance_index(risk, time) == pytest.approx(0.5, abs=0.02)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(13)
        risk = rng.standard_normal(200)
        time = rng.exponential(1.0, 200)
        base = concordance_index(risk, time)
        assert concordance_index(np.exp(risk), time) == base
        assert concordance_index(3 * risk + 7, time) == base

    def test_tied_times_not_comparable(self):
        # only strictly ordered time pairs count
        risk = np.array([3.0, 1.0, 2.0])
        time = np.array([1.0, 1.0, 2.0])
        # comparable pairs: (0,2) risk 3>2 -> 1; (1,2) risk 1<2 -> 0
        assert concordance_index(risk, time) == 0.5

    def test_all_times_equal_rejected(self):
        with pytest.raises(ValidationError):
            concordance_index(np.arange(3.0), np.ones(3))
