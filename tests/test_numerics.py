from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfcca import (
    DiscreteFunction,
    Grid,
    GridMismatchError,
    derivative,
    inner_product,
    norm,
)
from tfcca.numerics import _integrate_rows, _interp_rows, trapezoid_weights


def f_on(n, fn, periodic=False):
    g = Grid(n)
    return DiscreteFunction(g, fn(g.points), periodic=periodic)


class TestInnerProduct:
    def test_constant_one(self):
        a = f_on(101, lambda t: np.ones_like(t))
        assert inner_product(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_sinusoids(self):
        a = f_on(1001, lambda t: np.sin(2 * np.pi * t))
        b = f_on(1001, lambda t: np.cos(2 * np.pi * t))
        assert abs(inner_product(a, b)) < 1e-8

    def test_sqrt_against_antiderivative_oracle(self):
        # oracle: d/dt [ (2/3) sqrt(2) t^(3/2) ] = sqrt(2 t), so the integral
        # over [0,1] is 2*sqrt(2)/3. The sqrt singularity at 0 limits the
        # trapezoid rule to ~1e-5 accuracy at n=1001.
        a = f_on(1001, lambda t: np.sqrt(2 * t))
        b = f_on(1001, lambda t: np.ones_like(t))
        exact = 2 * np.sqrt(2) / 3
        assert inner_product(a, b) == pytest.approx(exact, abs=2e-5)

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(7)
        g = Grid(101)
        for _ in range(10):
            a = DiscreteFunction(g, rng.standard_normal(101))
            b = DiscreteFunction(g, rng.standard_normal(101))
            c = DiscreteFunction(g, rng.standard_normal(101))
            x, y = rng.standard_normal(2)
            assert inner_product(a, b) == pytest.approx(inner_product(b, a), abs=1e-13)
            lhs = inner_product(x * a + y * b, c)
            rhs = x * inner_product(a, c) + y * inner_product(b, c)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_planar_inner_product(self):
        g = Grid(401)
        a = DiscreteFunction(g, np.stack([np.ones(401), np.zeros(401)], axis=1))
        b = DiscreteFunction(g, np.stack([np.zeros(401), np.ones(401)], axis=1))
        assert inner_product(a, a) == pytest.approx(1.0, abs=1e-12)
        assert inner_product(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_grid_mismatch(self):
        a = f_on(101, np.sin)
        b = f_on(102, np.sin)
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_dimension_mismatch(self):
        g = Grid(101)
        a = DiscreteFunction(g, np.ones(101))
        b = DiscreteFunction(g, np.ones((101, 2)))
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_linear_quadrature_exact(self):
        # trapezoid integrates degree <= 1 polynomials exactly
        for n in (3, 11, 100):
            a = f_on(n, lambda t: 3.0 * t - 0.7)
            one = f_on(n, lambda t: np.ones_like(t))
            assert inner_product(a, one) == pytest.approx(0.8, abs=1e-12)


class TestIntegrateRows:
    @pytest.mark.parametrize("n", [3, 100, 1000])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
    def test_each_row_gets_the_bits_of_its_own_quadrature(self, n, lead):
        rng = np.random.default_rng(n + len(lead))
        F = rng.standard_normal(lead + (n,))
        w = trapezoid_weights(n)
        got = _integrate_rows(F)
        assert got.shape == lead
        rows = F.reshape(-1, n)
        assert np.array_equal(got.reshape(-1), [w @ f for f in rows])

    def test_quadrature_rule_lives_in_numerics(self):
        # fpca keeps the weights for its weighted SVD and projection GEMM;
        # every other module integrates through _integrate_rows
        src = Path(__file__).resolve().parents[1] / "src" / "tfcca"
        users = sorted(p.name for p in src.glob("*.py")
                       if "trapezoid_weights" in p.read_text())
        assert users == ["fpca.py", "numerics.py"]


class TestNorm:
    def test_norm_matches_inner_product(self):
        a = f_on(201, lambda t: 1.5 * np.ones_like(t))
        assert norm(a) == pytest.approx(1.5, abs=1e-12)


class TestDerivative:
    def test_linear(self):
        a = f_on(101, lambda t: t)
        d = derivative(a)
        np.testing.assert_allclose(d.values, 1.0, atol=1e-10)

    def test_constant(self):
        a = f_on(101, lambda t: np.full_like(t, 2.3))
        np.testing.assert_allclose(derivative(a).values, 0.0, atol=1e-12)

    def test_circle_analytic_oracle(self):
        g = Grid(1001)
        t = g.points
        beta = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        a = DiscreteFunction(g, beta / (2 * np.pi), periodic=True)
        d = derivative(a)
        ref = np.stack([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
        np.testing.assert_allclose(d.values, ref, atol=1e-4)

    def test_periodic_endpoints_agree(self):
        g = Grid(200)
        t = g.points
        a = DiscreteFunction(g, np.sin(2 * np.pi * t), periodic=True)
        d = derivative(a)
        assert d.values[0] == d.values[-1]


class TestValidation:
    def test_small_grid_rejected(self):
        with pytest.raises(Exception):
            Grid(2)

    def test_nonfinite_rejected(self):
        g = Grid(10)
        vals = np.ones(10)
        vals[3] = np.nan
        with pytest.raises(Exception):
            DiscreteFunction(g, vals)

    def test_values_immutable(self):
        a = f_on(10, lambda t: t)
        with pytest.raises(ValueError):
            a.values[0] = 5.0

    def test_values_share_nothing_with_the_callers_array(self):
        # construction leaves the caller's array writeable, and a later
        # write through a view's base does not reach the stored values
        a = np.linspace(0.0, 1.0, 5)
        DiscreteFunction(Grid(5), a)
        assert a.flags.writeable
        s = np.zeros((3, 5))
        f = DiscreteFunction(Grid(5), s[0])
        s[0, 0] = 7.0
        assert f.values[0] == 0.0


class TestCachedArrays:
    def test_grid_points_built_once_and_read_only(self):
        g = Grid(57)
        first = g.points
        assert g.points is first
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, np.linspace(0.0, 1.0, 57))
        with pytest.raises(ValueError):
            first[1] = 0.5

    def test_trapezoid_weights_built_once_and_read_only(self):
        first = trapezoid_weights(57)
        assert trapezoid_weights(57) is first
        assert not first.flags.writeable
        ref = np.full(57, 1.0 / 56)
        ref[0] = ref[-1] = 0.5 / 56
        np.testing.assert_array_equal(first, ref)
        with pytest.raises(ValueError):
            first[0] = 1.0


class TestInterpRows:
    # every row of the stack must give np.interp's bytes; x = 1.0 is a value
    # warps reach, since np.mod(-1e-17, 1.0) == 1.0
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
           st.booleans())
    @example(11, 0, 1.0, False)
    @example(11, 0, 1.0, True)
    @example(11, 1, 0.0, True)
    @example(23, 2, 0.5, False)
    def test_equals_np_interp_row_by_row(self, n, seed, at, planar):
        rng = np.random.default_rng(seed)
        xp = Grid(n).points
        B = 4
        x = rng.uniform(0.0, 1.0, (B, 2 * n + 1))
        x[:, 0] = at
        x[:, 1 : n + 1] = xp  # every grid node, the ends included
        x[:, -2:] = -0.5, 1.5  # beyond either end
        fp = rng.uniform(-10.0, 10.0, (B, n, 2) if planar else (B, n))
        out = _interp_rows(x, xp, fp)
        assert out.shape == x.shape + fp.shape[2:]
        for r in range(B):
            if planar:
                ref = np.stack([np.interp(x[r], xp, fp[r, :, c]) for c in range(2)],
                               axis=1)
            else:
                ref = np.interp(x[r], xp, fp[r])
            assert out[r].tobytes() == ref.tobytes()
            assert _interp_rows(x[r], xp, fp[r]).tobytes() == ref.tobytes()
