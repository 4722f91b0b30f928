import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfcca import NumericalError, ValidationError, cca, cca_oracle


def random_matrix(rng, n, r, scale=1.0):
    return scale * rng.standard_normal((n, r))


def well_conditioned(rng, r):
    """Random r x r matrix with singular values in [0.5, 2]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((r, r)))
    Q2, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return Q1 @ np.diag(rng.uniform(0.5, 2.0, r)) @ Q2


class TestCca:
    def test_identical_matrices(self):
        rng = np.random.default_rng(0)
        C = random_matrix(rng, 40, 4)
        res = cca(C, C)
        np.testing.assert_allclose(res.correlations, 1.0, atol=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        C1 = random_matrix(rng, 50, 3)
        C2 = random_matrix(rng, 50, 4)
        base = cca(C1, C2).correlations
        M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = rng.standard_normal(4)
        moved = cca(C1, C2 @ M + b).correlations
        np.testing.assert_allclose(moved, base, atol=1e-10)
        M1 = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        moved1 = cca(C1 @ M1 + 2.0, C2).correlations
        np.testing.assert_allclose(moved1, base, atol=1e-10)

    def test_independent_null_monte_carlo(self):
        # null oracle: with n = 1000 and r = 2, the largest canonical
        # correlation of independent Gaussian views stays small
        rng = np.random.default_rng(2)
        for _ in range(5):
            C1 = random_matrix(rng, 1000, 2)
            C2 = random_matrix(rng, 1000, 2)
            assert cca(C1, C2).correlations.max() < 0.15

    def test_variate_properties(self):
        rng = np.random.default_rng(3)
        C1 = random_matrix(rng, 60, 4)
        C2 = random_matrix(rng, 60, 3)
        res = cca(C1, C2)
        n, m = 60, 3
        assert res.correlations.shape == (m,)
        assert np.all(np.diff(res.correlations) <= 1e-12)
        for k, (V, W, C) in enumerate(
            [(res.variates_1, res.weights_1, C1), (res.variates_2, res.weights_2, C2)]
        ):
            # unit sample variance, mutually uncorrelated columns
            cov = V.T @ V / (n - 1)
            np.testing.assert_allclose(np.diag(cov), 1.0, atol=1e-8)
            np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-6)
            assert abs(V.mean(axis=0)).max() < 1e-10
        # paired correlations match the reported ones
        for j in range(m):
            r = np.corrcoef(res.variates_1[:, j], res.variates_2[:, j])[0, 1]
            assert r == pytest.approx(res.correlations[j], abs=1e-8)
        # cross-pair orthogonality between views
        for j in range(m):
            for l in range(m):
                if j != l:
                    r = np.corrcoef(res.variates_1[:, j], res.variates_2[:, l])[0, 1]
                    assert abs(r) < 1e-6

    def test_weights_reproduce_variates(self):
        rng = np.random.default_rng(4)
        C1 = random_matrix(rng, 30, 3)
        C2 = random_matrix(rng, 30, 3)
        res = cca(C1, C2)
        np.testing.assert_allclose(
            (C1 - res.col_means_1) @ res.weights_1, res.variates_1, atol=1e-10
        )

    def test_rank_deficient_advises_ridge(self):
        rng = np.random.default_rng(5)
        C1 = random_matrix(rng, 20, 3)
        C1 = np.column_stack([C1, C1[:, 0]])  # duplicated column
        C2 = random_matrix(rng, 20, 2)
        with pytest.raises(NumericalError, match="ridge"):
            cca(C1, C2)
        res = cca(C1, C2, ridge=1e-6)
        assert res.correlations.shape == (2,)
        assert np.all(res.correlations <= 1.0)

    def test_n_smaller_than_r_needs_ridge(self):
        rng = np.random.default_rng(6)
        C1 = random_matrix(rng, 5, 8)
        C2 = random_matrix(rng, 5, 8)
        with pytest.raises(NumericalError):
            cca(C1, C2)

    def test_nan_rejected(self):
        C = np.ones((10, 2))
        C[0, 0] = np.nan
        with pytest.raises(ValidationError):
            cca(C, np.ones((10, 2)))

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            cca(np.ones((2, 1)), np.ones((2, 1)))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        C1 = random_matrix(rng, 40, 3)
        C2 = random_matrix(rng, 40, 3)
        r1 = cca(C1, C2)
        r2 = cca(C1, C2)
        assert np.array_equal(r1.weights_1, r2.weights_1)
        assert np.array_equal(r1.correlations, r2.correlations)


class TestOracleAgreement:
    def test_random_well_conditioned(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(30, 120))
            r1 = int(rng.integers(1, 6))
            r2 = int(rng.integers(1, 6))
            C1 = random_matrix(rng, n, r1)
            C2 = random_matrix(rng, n, r2)
            fast = cca(C1, C2).correlations
            slow = cca_oracle(C1, C2)
            np.testing.assert_allclose(fast, slow, atol=1e-8)

    def test_identical_gives_ones(self):
        rng = np.random.default_rng(9)
        C = random_matrix(rng, 25, 3)
        np.testing.assert_allclose(cca_oracle(C, C), 1.0, atol=1e-8)

    def test_rank_one_shared_signal(self):
        # constructed signal: one common latent plus independent noise gives
        # exactly one large correlation
        rng = np.random.default_rng(10)
        n = 2000
        z = rng.standard_normal(n)
        C1 = np.column_stack([z + 0.05 * rng.standard_normal(n),
                              rng.standard_normal(n)])
        C2 = np.column_stack([rng.standard_normal(n),
                              z + 0.05 * rng.standard_normal(n)])
        rho = cca_oracle(C1, C2)
        assert rho[0] > 0.99
        assert rho[1] < 0.1


class TestAffineInvarianceProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 60))
    def test_correlations_invariant(self, seed, r1, r2, extra_rows):
        # C1 -> C1 A + 1 b^T and C2 -> C2 B + 1 c^T leave the canonical
        # correlations unchanged
        rng = np.random.default_rng(seed)
        n = r1 + r2 + 10 + extra_rows
        z = rng.standard_normal((n, 1))
        C1 = z + random_matrix(rng, n, r1)
        C2 = z + random_matrix(rng, n, r2)
        base = cca(C1, C2).correlations
        A, B = well_conditioned(rng, r1), well_conditioned(rng, r2)
        b, c = rng.uniform(-10, 10, r1), rng.uniform(-10, 10, r2)
        moved = cca(C1 @ A + b, C2 @ B + c).correlations
        np.testing.assert_allclose(moved, base, atol=1e-9)
