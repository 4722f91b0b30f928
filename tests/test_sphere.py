import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfcca import (
    AntipodeError,
    DiscreteFunction,
    Grid,
    SpherePoint,
    Tangents,
    TangentVector,
    ValidationError,
    exp_map,
    geodesic_distance,
    inner_product,
    karcher_mean,
    log_map,
    norm,
    parallel_transport,
)
from tfcca.fpca import coefficients, fit_fpca
from tfcca.sphere import (
    ANTIPODE_MARGIN,
    KARCHER_MAX_ITER,
    _exp_rows,
    _ip_rows,
    _log_rows,
    _remove_component,
    _transport_rows,
    _unit_factors,
    tangent_at,
)

N = 301
GRID = Grid(N)


def point(fn) -> SpherePoint:
    return SpherePoint(DiscreteFunction(GRID, fn(GRID.points)))


def random_point(rng, concentration=0.25) -> SpherePoint:
    base = np.ones(N) + concentration * rng.standard_normal(N)
    return SpherePoint(DiscreteFunction(GRID, base))


def random_tangent(rng, base: SpherePoint, scale=1.0) -> TangentVector:
    return tangent_at(base, scale * rng.standard_normal(N))


def stacked(points) -> np.ndarray:
    return np.stack([p.f.values for p in points])


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


class TestUnitFactors:
    def test_rejects_a_zero_norm_in_a_stack(self):
        with pytest.raises(ValidationError, match="zero function"):
            _unit_factors(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValidationError, match="zero function"):
            SpherePoint(DiscreteFunction(GRID, np.zeros(N)))

    def test_keeps_norms_within_tolerance_of_one(self):
        norms = np.array([1.0 + 1e-13, 1.0 + 1e-11, 4.0])
        assert _unit_factors(norms).tolist() == [1.0, 1.0 / norms[1], 0.25]


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
        res = karcher_mean(stacked([p]), GRID)
        assert res.iterations == 0
        assert res.converged
        np.testing.assert_allclose(res.mean.f.values, p.f.values, atol=1e-12)

    def test_repeated_point(self):
        p = point(lambda t: 2 - t)
        res = karcher_mean(stacked([p, p, p]), GRID)
        assert res.converged
        # arccos near 1 resolves to sqrt(machine eps) at best
        assert geodesic_distance(res.mean, p) < 1e-7

    def test_two_points_midpoint(self):
        rng = np.random.default_rng(23)
        p, q = random_point(rng), random_point(rng)
        res = karcher_mean(stacked([p, q]), GRID, tol=1e-10)
        assert res.converged
        d1 = geodesic_distance(res.mean, p)
        d2 = geodesic_distance(res.mean, q)
        assert d1 == pytest.approx(d2, abs=1e-6)

    def test_first_order_condition(self):
        rng = np.random.default_rng(29)
        pts = [random_point(rng) for _ in range(12)]
        res = karcher_mean(stacked(pts), GRID, tol=1e-7)
        assert res.converged
        logs = np.mean([log_map(res.mean, p).v.values for p in pts], axis=0)
        g = norm(DiscreteFunction(GRID, logs))
        assert g <= 1e-7 + 1e-10

    def test_full_step_converges_on_narrow_spread_bumps(self):
        # root densities of narrow bumps spread over [0, 1]: the points are
        # far apart, the hard case for the full gradient step
        rng = np.random.default_rng(37)
        t = GRID.points
        centers = rng.uniform(0.05, 0.95, 25)
        widths = rng.uniform(0.01, 0.03, 25)
        dens = np.exp(-0.5 * ((t - centers[:, None]) / widths[:, None]) ** 2) + 1e-3
        res = karcher_mean(np.sqrt(dens / _ip_rows(dens, np.ones(N))[:, None]), GRID)
        assert res.converged
        assert res.iterations <= KARCHER_MAX_ITER
        assert res.final_gradient_norm <= 1e-6

    def test_variance_monotone(self):
        rng = np.random.default_rng(31)
        pts = [random_point(rng, 0.4) for _ in range(10)]
        res = karcher_mean(stacked(pts), GRID)
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
    """A base point and sample rows at geodesic distances below the antipode
    margin, on a random scalar or planar grid."""
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
    return base, rows


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
    return base, rows


class TestBatchedMaps:
    @settings(max_examples=60, deadline=None)
    @given(batch_on_sphere())
    # a row 1e-9 from the base, below the ~1.5e-8 that arccos of the inner
    # product can resolve; random draws land there only rarely
    @example(batch_at_distances((1e-9, 1.0, 2.0)))
    def test_log_rows_match_log_map(self, batch):
        base, points = batch
        V = _log_rows(base.f.values, stacked(points))
        for row, p in zip(V, points):
            assert np.array_equal(row, log_map(base, p).v.values)

    @settings(max_examples=60, deadline=None)
    @given(batch_on_sphere(), st.integers(0, 2**32 - 1))
    # a target 1e-11 from the source, where the difference-of-logs form of
    # the transport lost the isometry
    @example(batch_at_distances((1e-11, 1.0)), 0)
    def test_transport_rows_match_and_keep_inner_products(self, batch, seed):
        source, points = batch
        target = points[0]
        rng = np.random.default_rng(seed)
        vectors = [tangent_at(source, rng.standard_normal(source.f.values.shape))
                   for _ in range(4)]
        V = np.stack([v.v.values for v in vectors])
        moved = _transport_rows(V, source, target)
        for row, v in zip(moved, vectors):
            assert np.array_equal(row, parallel_transport(v, source, target).v.values)
        np.testing.assert_allclose(
            [_ip_rows(moved, row) for row in moved],
            [_ip_rows(V, row) for row in V],
            atol=1e-8,
        )


class TestTangents:
    def test_checks_shape_finiteness_and_orthogonality(self):
        rng = np.random.default_rng(30)
        base = random_point(rng)
        V = np.stack([random_tangent(rng, base).v.values for _ in range(5)])
        block = Tangents(base, V)
        assert len(block) == 5
        assert not block.values.flags.writeable and V.flags.writeable
        # row i as a TangentVector at the base; iteration stops at the end
        for i in range(len(block)):
            assert isinstance(block[i], TangentVector) and block[i].base is base
            assert np.array_equal(block[i].v.values, V[i])
        assert len(list(block)) == len(block)
        with pytest.raises(IndexError):
            block[len(block)]
        for bad_shape in (V[0], V[:, :-1], V[..., None]):
            with pytest.raises(ValidationError, match="do not match the base"):
                Tangents(base, bad_shape)
        bad = V.copy()
        bad[2, 7] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            Tangents(base, bad)
        # one rule for a block and for one vector: |<v, base>| <= 1e-6
        for make in (lambda X: Tangents(base, X),
                     lambda X: TangentVector(base, base.f.with_values(X[0]))):
            make(V + 5e-7 * base.f.values)
            with pytest.raises(ValidationError, match="not orthogonal"):
                make(V + 2e-6 * base.f.values)

    @pytest.mark.parametrize("n_points,n_rows", [(100, 8), (200, 400), (1000, 64)])
    @pytest.mark.parametrize("planar", [False, True])
    def test_tangent_rows_give_each_row_its_one_row_bits(self, n_points, n_rows, planar):
        rng = np.random.default_rng(n_points + n_rows)
        shape = (n_points, 2) if planar else (n_points,)
        vals = 1.0 + 0.5 * rng.standard_normal(shape)
        vals[1] = -0.0  # a zero exp step must keep the sign of this sample
        base = SpherePoint(DiscreteFunction(Grid(n_points), vals, periodic=planar))
        V = rng.standard_normal((n_rows,) + shape)
        rows = _remove_component(V, base.f.values)
        ips = _ip_rows(V, base.f.values)
        for row, ip, v in zip(rows, ips, V):
            drift = inner_product(base.f.with_values(v), base.f)
            assert ip == drift
            assert np.array_equal(row, v - drift * base.f.values)
        # the log map, the transport and the exponential map give each row
        # its one-row bits too; a zero row maps to the base's own bits
        points = [SpherePoint(base.f + base.f.with_values(0.5 * v)) for v in V]
        logs = _log_rows(base.f.values, stacked(points))
        moved = _transport_rows(rows, base, points[0])
        for log, row, move, p in zip(logs, rows, moved, points):
            assert np.array_equal(log, log_map(base, p).v.values)
            one = parallel_transport(TangentVector(base, base.f.with_values(row)),
                                     base, points[0])
            assert np.array_equal(move, one.v.values)
        steps = np.concatenate([rows, np.zeros_like(rows[:1])])
        exps = _exp_rows(base.f.values, steps)
        for x, row in zip(exps, steps):
            one = exp_map(base, TangentVector(base, base.f.with_values(row)))
            assert x.tobytes() == one.f.values.tobytes()
        assert exps[-1].tobytes() == base.f.values.tobytes()


class TestBasePoint:
    def test_exp_map_and_coefficients_share_the_rule(self):
        # tangents attached to the base itself or to a point within 1e-8 of
        # it in L2 are accepted; a base moved by 2e-8 is rejected
        rng = np.random.default_rng(31)
        base = random_point(rng)
        V = np.stack([random_tangent(rng, base).v.values for _ in range(4)])
        basis = fit_fpca(Tangents(base, V), rank=2)
        step = random_tangent(rng, base)
        copy = SpherePoint(base.f.with_values(base.f.values.copy()))
        moved = SpherePoint(base.f + step.v * (2e-8 / step.length))
        assert norm(moved.f - base.f) == pytest.approx(2e-8, rel=1e-6)
        for other in (base, copy):
            exp_map(base, TangentVector(other, base.f.with_values(V[0])))
            coefficients(basis, Tangents(other, V))
        with pytest.raises(ValidationError, match="different base point"):
            exp_map(base, TangentVector(moved, base.f.with_values(V[0])))
        with pytest.raises(ValidationError, match="different base point"):
            coefficients(basis, Tangents(moved, V))


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
