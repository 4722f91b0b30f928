import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfcca import (
    AntipodeError,
    DiscreteFunction,
    Grid,
    SpherePoint,
    TangentVector,
    exp_map,
    geodesic_distance,
    inner_product,
    karcher_mean,
    log_map,
    norm,
    parallel_transport,
)
from tfcca.numerics import trapezoid_weights
from tfcca.sphere import ANTIPODE_MARGIN, _ip_rows, _log_rows, _transport_rows, tangent_at

N = 301
GRID = Grid(N)


def point(fn) -> SpherePoint:
    return SpherePoint(DiscreteFunction(GRID, fn(GRID.points)))


def random_point(rng, concentration=0.25) -> SpherePoint:
    base = np.ones(N) + concentration * rng.standard_normal(N)
    return SpherePoint(DiscreteFunction(GRID, base))


def random_tangent(rng, base: SpherePoint, scale=1.0) -> TangentVector:
    return tangent_at(base, scale * rng.standard_normal(N))


class TestDistance:
    def test_self_distance_zero(self):
        p = point(lambda t: 1 + t)
        assert geodesic_distance(p, p) == pytest.approx(0.0, abs=1e-7)

    def test_closed_form_oracle(self):
        # <sqrt(Unif), sqrt(2t)> = integral sqrt(2t) dt = 2*sqrt(2)/3,
        # so the distance is arccos(2*sqrt(2)/3) ~ 0.339837.
        g = Grid(1001)
        p1 = SpherePoint(DiscreteFunction(g, np.ones(1001)))
        p2 = SpherePoint(DiscreteFunction(g, np.sqrt(2 * g.points)))
        assert geodesic_distance(p1, p2) == pytest.approx(0.33984, abs=1e-4)

    def test_antipode(self):
        p = point(lambda t: 1 + np.sin(t))
        q = SpherePoint(p.f * -1.0)
        assert geodesic_distance(p, q) == pytest.approx(np.pi, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (random_point(rng) for _ in range(3))
            assert geodesic_distance(a, b) == pytest.approx(
                geodesic_distance(b, a), abs=1e-12
            )
            assert geodesic_distance(a, c) <= (
                geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-8
            )


class TestExpLog:
    def test_exp_of_zero(self):
        p = point(lambda t: 1 + t * t)
        z = tangent_at(p, np.zeros(N))
        q = exp_map(p, z)
        np.testing.assert_allclose(q.f.values, p.f.values, atol=1e-12)

    def test_quarter_circle_orthogonal(self):
        rng = np.random.default_rng(5)
        p = random_point(rng)
        v = random_tangent(rng, p)
        v = TangentVector(p, v.v * (np.pi / 2 / v.length))
        q = exp_map(p, v)
        assert abs(inner_product(p.f, q.f)) < 1e-8

    def test_log_self_is_zero(self):
        p = point(lambda t: np.exp(-t))
        v = log_map(p, p)
        assert v.length < 1e-8

    def test_round_trip_log_exp(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_point(rng)
            v = random_tangent(rng, p)
            scale = rng.uniform(0.05, np.pi - 0.2)
            v = TangentVector(p, v.v * (scale / v.length))
            w = log_map(p, exp_map(p, v))
            np.testing.assert_allclose(w.v.values, v.v.values, atol=1e-8)

    def test_round_trip_exp_log(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p, q = random_point(rng), random_point(rng)
            r = exp_map(p, log_map(p, q))
            np.testing.assert_allclose(r.f.values, q.f.values, atol=1e-8)

    def test_log_norm_is_distance(self):
        rng = np.random.default_rng(17)
        p, q = random_point(rng), random_point(rng)
        assert log_map(p, q).length == pytest.approx(
            geodesic_distance(p, q), abs=1e-10
        )

    def test_log_orthogonal_to_base(self):
        rng = np.random.default_rng(19)
        p, q = random_point(rng), random_point(rng)
        assert abs(inner_product(log_map(p, q).v, p.f)) < 1e-10

    def test_antipode_raises(self):
        p = point(lambda t: 1 + t)
        q = SpherePoint(p.f * -1.0)
        with pytest.raises(AntipodeError):
            log_map(p, q)


class TestKarcherMean:
    def test_single_point(self):
        p = point(lambda t: 1 + t)
        res = karcher_mean([p])
        assert res.iterations == 0
        assert res.converged
        np.testing.assert_allclose(res.mean.f.values, p.f.values, atol=1e-12)

    def test_repeated_point(self):
        p = point(lambda t: 2 - t)
        res = karcher_mean([p, p, p])
        assert res.converged
        # arccos near 1 resolves to sqrt(machine eps) at best
        assert geodesic_distance(res.mean, p) < 1e-7

    def test_two_points_midpoint(self):
        rng = np.random.default_rng(23)
        p, q = random_point(rng), random_point(rng)
        res = karcher_mean([p, q], tol=1e-10)
        assert res.converged
        d1 = geodesic_distance(res.mean, p)
        d2 = geodesic_distance(res.mean, q)
        assert d1 == pytest.approx(d2, abs=1e-6)

    def test_first_order_condition(self):
        rng = np.random.default_rng(29)
        pts = [random_point(rng) for _ in range(12)]
        res = karcher_mean(pts, tol=1e-7)
        assert res.converged
        logs = np.mean([log_map(res.mean, p).v.values for p in pts], axis=0)
        g = norm(DiscreteFunction(GRID, logs))
        assert g <= 1e-7 + 1e-10

    def test_variance_monotone(self):
        rng = np.random.default_rng(31)
        pts = [random_point(rng, 0.4) for _ in range(10)]
        res = karcher_mean(pts)
        trace = np.array(res.variance_trace)
        assert np.all(np.diff(trace) <= 1e-10)


class TestParallelTransport:
    def test_identity_when_same_point(self):
        rng = np.random.default_rng(37)
        p = random_point(rng)
        v = random_tangent(rng, p)
        w = parallel_transport(v, p, p)
        np.testing.assert_allclose(w.v.values, v.v.values, atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p, q = random_point(rng), random_point(rng)
            v = random_tangent(rng, p)
            w = parallel_transport(v, p, q)
            assert w.length == pytest.approx(v.length, abs=1e-10)
            assert abs(inner_product(w.v, q.f)) < 1e-10

    def test_angle_preservation(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p, q = random_point(rng), random_point(rng)
            v1 = random_tangent(rng, p)
            v2 = random_tangent(rng, p)
            w1 = parallel_transport(v1, p, q)
            w2 = parallel_transport(v2, p, q)
            assert inner_product(w1.v, w2.v) == pytest.approx(
                inner_product(v1.v, v2.v), abs=1e-8
            )

    def test_transport_of_geodesic_direction(self):
        # the initial direction of a geodesic transports to minus the
        # log map pointing back
        rng = np.random.default_rng(47)
        p, q = random_point(rng), random_point(rng)
        u = log_map(p, q)
        w = parallel_transport(u, p, q)
        back = log_map(q, p)
        np.testing.assert_allclose(w.v.values, -back.v.values, atol=1e-8)


@st.composite
def batch_on_sphere(draw):
    """A base point, sample rows at geodesic distances below the antipode
    margin, and the quadrature weights, on a random scalar or planar grid."""
    n_points = draw(st.integers(5, 120))
    planar = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
    grid = Grid(n_points)
    shape = (n_points, 2) if planar else (n_points,)
    base = SpherePoint(DiscreteFunction(grid, 1.0 + 0.5 * rng.standard_normal(shape),
                                        periodic=planar))
    rows = []
    for s in scales:
        v = tangent_at(base, rng.standard_normal(shape))
        rows.append(exp_map(base, TangentVector(base, v.v * (s / v.length))))
    return base, rows, trapezoid_weights(n_points)


def batch_at_distances(distances):
    """A batch_on_sphere value built by hand: 101-point scalar grid, one row
    per geodesic distance from the base (seed 9 puts the base where an
    arccos log map splits batched and one-row results)."""
    n_points = 101
    grid = Grid(n_points)
    rng = np.random.default_rng(9)
    base = SpherePoint(DiscreteFunction(grid, 1.0 + 0.5 * rng.standard_normal(n_points)))
    rows = []
    for s in distances:
        v = tangent_at(base, rng.standard_normal(n_points))
        rows.append(exp_map(base, TangentVector(base, v.v * (s / v.length))))
    return base, rows, trapezoid_weights(n_points)


class TestBatchedMaps:
    @settings(max_examples=60, deadline=None)
    @given(batch_on_sphere())
    # a row 1e-9 from the base, below the ~1.5e-8 that arccos of the inner
    # product can resolve; random draws land there only rarely
    @example(batch_at_distances((1e-9, 1.0, 2.0)))
    def test_log_rows_match_log_map(self, batch):
        base, points, w = batch
        X = np.stack([p.f.values for p in points])
        V = _log_rows(base.f.values, X, w)
        for row, p in zip(V, points):
            np.testing.assert_allclose(row, log_map(base, p).v.values, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(batch_on_sphere(), st.integers(0, 2**32 - 1))
    def test_transport_rows_match_and_keep_inner_products(self, batch, seed):
        source, points, w = batch
        target = points[0]
        rng = np.random.default_rng(seed)
        vectors = [tangent_at(source, rng.standard_normal(source.f.values.shape))
                   for _ in range(4)]
        V = np.stack([v.v.values for v in vectors])
        moved = _transport_rows(V, source, target)
        for row, v in zip(moved, vectors):
            np.testing.assert_allclose(
                row, parallel_transport(v, source, target).v.values, atol=1e-12
            )
        np.testing.assert_allclose(
            [_ip_rows(moved, row, w) for row in moved],
            [_ip_rows(V, row, w) for row in V],
            atol=1e-8,
        )


class TestRoundTripNearBase:
    # lengths from 1e-12 to just inside the antipode margin, where log_map
    # raises by design
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.floats(-12.0, np.log10(np.pi - ANTIPODE_MARGIN - 1e-9)))
    @example(0, -12.0)
    @example(0, np.log10(np.pi - ANTIPODE_MARGIN - 1e-9))
    def test_log_exp_round_trip(self, seed, log_length):
        L = 10.0 ** log_length
        rng = np.random.default_rng(seed)
        grid = Grid(101)
        base = SpherePoint(DiscreteFunction(grid, 1.0 + 0.5 * rng.standard_normal(101)))
        u = tangent_at(base, rng.standard_normal(101))
        v = TangentVector(base, u.v * (L / u.length))
        back = log_map(base, exp_map(base, v))
        assert np.abs(back.v.values - v.v.values).max() <= 1e-6 * L + 1e-15
