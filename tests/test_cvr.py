import re

import numpy as np
import pytest

from tfcca.cvr import CVR_MAX_ITER, CVR_TOL, _split_permutations
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


def polar(A):
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    return U @ Vt


def reference_cross_validate(C1, C2, y, d, eta_grid, split, repeats, rng_seed):
    """Per split and eta, the descent on the n-length variates, refitting the
    regression by lstsq; returns (mse matrix, repeat etas, repeat C-indices)."""
    n = len(y)
    n_train = int(round(split * n))
    mse = np.empty((repeats, len(eta_grid)))
    rep_eta, rep_cindex = [], []
    for rep, perm in enumerate(_split_permutations(n, repeats, rng_seed)):
        tr, te = perm[:n_train], perm[n_train:]
        m1, m2, yt = C1[tr].mean(axis=0), C2[tr].mean(axis=0), y[tr]
        (Q1, R1), (Q2, R2) = np.linalg.qr(C1[tr] - m1), np.linalg.qr(C2[tr] - m2)

        def ols(V1, V2):
            design = np.column_stack([np.ones(2 * n_train), np.vstack([V1, V2])])
            coef = np.linalg.lstsq(design, np.concatenate([yt, yt]), rcond=None)[0]
            return coef[0], coef[1:]

        def objective(V1, V2, a, b, eta):
            fit = sum(np.sum((yt - a - V @ b) ** 2) for V in (V1, V2))
            return eta * np.sum((V1 - V2) ** 2) + (1 - eta) * fit

        best = (None, np.inf, None)
        for j, eta in enumerate(eta_grid):
            U, _, Vt = np.linalg.svd(Q1.T @ Q2)
            Z1, Z2 = U[:, :d], Vt.T[:, :d]
            V1, V2 = Q1 @ Z1, Q2 @ Z2
            a, b = ols(V1, V2)
            trace = [objective(V1, V2, a, b, eta)]
            for _ in range(CVR_MAX_ITER):
                Z1 = polar(Q1.T @ (eta * V2 + (1 - eta) * np.outer(yt - a, b)))
                V1 = Q1 @ Z1
                Z2 = polar(Q2.T @ (eta * V1 + (1 - eta) * np.outer(yt - a, b)))
                V2 = Q2 @ Z2
                a, b = ols(V1, V2)
                trace.append(objective(V1, V2, a, b, eta))
                if abs(trace[-2] - trace[-1]) <= CVR_TOL * max(1.0, abs(trace[-2])):
                    break
            if eta == 1.0:
                U, _, Vt = np.linalg.svd(V1.T @ V2)
                Z1, Z2 = Z1 @ U, Z2 @ Vt.T
                a, b = ols(Q1 @ Z1, Q2 @ Z2)
            pred = a + 0.5 * ((C1[te] - m1) @ np.linalg.solve(R1, Z1)
                              + (C2[te] - m2) @ np.linalg.solve(R2, Z2)) @ b
            mse[rep, j] = np.mean((y[te] - pred) ** 2)
            if mse[rep, j] < best[1] or (mse[rep, j] == best[1] and eta > best[0]):
                best = (eta, mse[rep, j], pred)
        rep_eta.append(best[0])
        rep_cindex.append(concordance_index(-best[2], y[te]))
    return mse, np.array(rep_eta), np.array(rep_cindex)


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

    @pytest.mark.parametrize("r2", [3, 2])
    def test_row_permutations_leave_weights_and_beta(self, r2):
        rng = np.random.default_rng(20 + r2)
        C1 = rng.standard_normal((30, 3))
        C2 = C1[:, :r2] + rng.standard_normal((30, r2))
        y = C1[:, 0] + 0.5 * rng.standard_normal(30)
        ref = cvr_fit(C1, C2, y, 2, 0.5)
        for _ in range(100):
            perm = rng.permutation(30)
            res = cvr_fit(C1[perm], C2[perm], y[perm], 2, 0.5)
            for key in ("weights_1", "weights_2", "beta"):
                np.testing.assert_allclose(getattr(res, key), getattr(ref, key),
                                           rtol=0, atol=1e-10, err_msg=key)

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
        cv1 = cvr_cross_validate(C1, C2, y, 1, grid, repeats=4, rng_seed=11)
        cv2 = cvr_cross_validate(C1, C2, y, 1, grid, repeats=4, rng_seed=11)
        assert cv1.mse_by_eta == cv2.mse_by_eta
        assert cv1.chosen_eta == cv2.chosen_eta
        assert np.array_equal(cv1.repeat_mse, cv2.repeat_mse)
        assert np.array_equal(cv1.repeat_cindex, cv2.repeat_cindex)

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
        cv = cvr_cross_validate(
            C1, C2, y, 1, (0.0, 0.5, 1.0), repeats=10, rng_seed=0
        )
        assert cv.mse_mean < 1e-6

    def test_chosen_eta_attains_minimum_with_ties_up(self):
        rng = np.random.default_rng(10)
        C1, C2 = correlated_views(rng, n=40, r=3, shared=1)
        y = rng.standard_normal(40)
        cv = cvr_cross_validate(
            C1, C2, y, 1, (0.0, 0.3, 0.6, 1.0), repeats=5, rng_seed=3
        )
        best = min(cv.mse_by_eta)
        assert cv.mse_by_eta[cv.eta_grid.index(cv.chosen_eta)] == best
        for eta, mse in zip(cv.eta_grid, cv.mse_by_eta):
            if mse == best:
                assert eta <= cv.chosen_eta

    @pytest.mark.parametrize("d,r1,r2,grid,repeats", [
        (1, 3, 4, (0.0, 0.5, 1.0), 4),
        (2, 4, 3, (0.0, 0.2, 0.6, 0.9, 1.0), 3),
        (2, 3, 4, (1.0, 0.3, 0.0), 1),
    ])
    def test_matches_reference_descent(self, d, r1, r2, grid, repeats):
        rng = np.random.default_rng([14, d, r1])
        C1, _ = correlated_views(rng, n=50, r=r1, shared=2)
        C2, _ = correlated_views(rng, n=50, r=r2, shared=2)
        C2[:, :2] += C1[:, :2]
        y = 0.5 + C1[:, 0] - C2[:, 1] + rng.standard_normal(50)
        cv = cvr_cross_validate(C1, C2, y, d, grid, repeats=repeats, rng_seed=5)
        mse, rep_eta, rep_cindex = reference_cross_validate(
            C1, C2, y, d, grid, 0.8, repeats, 5)
        floor = mse.mean(axis=0).min()
        assert cv.chosen_eta == max(
            e for e, m in zip(grid, mse.mean(axis=0)) if m <= floor)
        assert np.array_equal(cv.repeat_eta, rep_eta)
        assert np.array_equal(cv.repeat_cindex, rep_cindex)
        np.testing.assert_allclose(cv.mse_by_eta, mse.mean(axis=0), rtol=1e-9)
        np.testing.assert_allclose(cv.repeat_mse, mse.min(axis=1), rtol=1e-9)

    @pytest.mark.parametrize("case,reason", [
        ("misaligned rows", "aligned rows"),
        ("empty grid", "at least one value"),
        ("eta above 1", "eta must lie in [0, 1], got 1.5"),
        ("non-finite y", "non-finite"),
        ("infeasible d", "d=4 infeasible"),
    ])
    def test_bad_arguments_rejected_up_front(self, case, reason):
        rng = np.random.default_rng(16)
        C1, C2 = correlated_views(rng, n=40, r=3, shared=1)
        y, d, grid = rng.standard_normal(40), 1, (0.0, 1.0)
        if case == "misaligned rows":
            C2 = np.vstack([C2, C2[:1]])
        elif case == "empty grid":
            grid = ()
        elif case == "eta above 1":
            grid = (0.0, 1.5)
        elif case == "non-finite y":
            y[3] = np.nan
        elif case == "infeasible d":
            d = 4
        with pytest.raises(ValidationError, match=re.escape(reason)):
            cvr_cross_validate(C1, C2, y, d, grid, repeats=3, rng_seed=0)

    def test_rank_deficient_split_rejected(self):
        # column 0 of C1 is constant except on one row: every split that
        # holds that row out leaves a zero-variance training column
        rng = np.random.default_rng(15)
        C1, C2 = correlated_views(rng, n=40, r=3, shared=1)
        C1[:, 0] = 2.5
        C1[7, 0] = 3.0
        with pytest.raises(ValidationError, match="C1 is rank-deficient"):
            cvr_cross_validate(C1, C2, rng.standard_normal(40), 1, (0.0, 1.0),
                               repeats=20, rng_seed=0)

    def test_ill_conditioned_view_rejected(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(60), rng.standard_normal(60)
        C1 = np.column_stack([a, a + 1e-11 * b, rng.standard_normal(60)])
        C2 = rng.standard_normal((60, 3))
        with pytest.raises(NumericalError, match="C1 is ill-conditioned"):
            cvr_cross_validate(C1, C2, rng.standard_normal(60), 2, (0.0, 1.0),
                               repeats=2, rng_seed=0)

    def test_tied_held_out_split_has_no_cindex(self):
        # responses 10 + (3 i mod 7) tie in pairs; a split that holds out a
        # tied pair (2 of 10 rows) has no comparable pair, so no C-index,
        # while its MSE and eta still count
        rng = np.random.default_rng(17)
        C1, C2 = correlated_views(rng, n=10, r=2, shared=1)
        y = 10.0 + (3 * np.arange(10)) % 7
        cv = cvr_cross_validate(C1, C2, y, 1, (0.0, 1.0), repeats=20, rng_seed=0)
        tied = np.array([np.ptp(y[perm[8:]]) == 0
                         for perm in _split_permutations(10, 20, 0)])
        assert tied.any() and not tied.all()
        assert np.array_equal(np.isnan(cv.repeat_cindex), tied)
        scored = cv.repeat_cindex[~tied]
        assert cv.cindex_mean == scored.mean()
        assert cv.cindex_sd == scored.std(ddof=1)
        assert np.all(np.isfinite(cv.repeat_mse)) and np.all(np.isfinite(cv.repeat_eta))
        assert cv.mse_mean == cv.repeat_mse.mean()

    def test_every_held_out_split_tied_rejected(self):
        rng = np.random.default_rng(17)
        C1, C2 = correlated_views(rng, n=10, r=2, shared=1)
        with pytest.raises(ValidationError, match="no comparable pairs"):
            cvr_cross_validate(C1, C2, np.full(10, 12.0), 1, (0.0, 1.0),
                               repeats=5, rng_seed=0)

    def test_prediction_shape(self):
        rng = np.random.default_rng(11)
        C1, C2 = correlated_views(rng, n=40, r=3, shared=1)
        y = rng.standard_normal(40)
        fit = cvr_fit(C1, C2, y, 2, eta=0.5)
        pred = cvr_predict(fit, C1, C2)
        assert pred.shape == (40,)


class TestSplitPermutations:
    def test_known_rows(self):
        # random.Random(f"0,{rep}") keys, stable-sorted; Python keeps this
        # sequence across releases, so these rows are the split contract
        assert _split_permutations(10, 2, 0).tolist() == [
            [6, 8, 3, 7, 0, 5, 4, 2, 1, 9],
            [7, 8, 5, 1, 4, 0, 9, 3, 2, 6],
        ]

    def test_rows_do_not_depend_on_the_repeat_count(self):
        assert np.array_equal(_split_permutations(37, 20, 3)[:5],
                              _split_permutations(37, 5, 3))

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (10, 0), (400, 401)])
    def test_every_row_is_a_permutation(self, n, seed):
        perms = _split_permutations(n, 20, seed)
        assert perms.shape == (20, n)
        assert np.array_equal(np.sort(perms, axis=1),
                              np.broadcast_to(np.arange(n), (20, n)))

    def test_seeds_draw_different_rows(self):
        assert not np.array_equal(_split_permutations(50, 3, 0),
                                  _split_permutations(50, 3, 1))


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
