import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfcca import (
    ConvergenceError,
    Curve,
    DiscreteFunction,
    GeodesicOverflowError,
    Grid,
    ValidationError,
    cca,
    inner_product,
    optimal_warp,
    project_Pi,
    project_to_preshape,
    register,
    shape_distance,
    shape_karcher_mean,
    shape_variate_direction,
    srvf,
    srvf_inverse,
)
from tfcca.fpca import fit_fpca, tangent_mode_pipeline
from tfcca.numerics import _integrate_rows, norm
import tfcca.shape as shape_module
from tfcca.shape import (
    _BIG,
    DP_BAND,
    DP_WINDOW,
    REGISTRATION_ROUNDS,
    REGISTRATION_RTOL,
    SLOPES,
    Srvf,
    _aligned_distance,
    _apply_rigid,
    _band_cost_tables,
    _constraint_gradients,
    _SMOOTH_WIDTHS,
    _dp_align_batch,
    _local_maxima_offsets,
    _medoid,
    _preshape_normals,
    _preshape_rows,
    _rigid_scores,
    _smoothed_warp,
    closure_residual,
    curve_from_points,
    register_batch,
)
from tfcca.simgen import CurveSimSpec, gen_curve_group
from tfcca.sphere import SpherePoint, TangentVector

G = Grid(200)
THETA = 2 * np.pi * G.points


def closed_curve(vals, grid=G):
    vals = np.asarray(vals, dtype=float)
    vals[-1] = vals[0]
    return Curve(DiscreteFunction(grid, vals, periodic=True))


def circle(radius=1.0 / (2 * np.pi), grid=G):
    t = 2 * np.pi * grid.points
    return closed_curve(radius * np.stack([np.cos(t), np.sin(t)], axis=1), grid)


def _radius(theta, centers, kappa, amp):
    kappas = np.broadcast_to(kappa, (len(centers),))
    amps = np.broadcast_to(amp, (len(centers),))
    return 1.0 + sum(
        a * np.exp(k * (np.cos(theta - c) - 1.0))
        for c, k, a in zip(centers, kappas, amps)
    )


def bumpy_curve(centers, kappa=20.0, amp=0.3, grid=G):
    t = 2 * np.pi * grid.points
    r = _radius(t, centers, kappa, amp)
    return closed_curve(np.stack([r * np.cos(t), r * np.sin(t)], axis=1), grid)


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def nuisanced_bumpy(centers, kappa=20.0, amp=0.3, angle=0.0, warp_amp=0.0,
                    shift=0.0, grid=G):
    """The bumpy curve evaluated analytically after rotation, cyclic shift,
    and a smooth reparameterization (no interpolation error)."""
    t = grid.points
    gamma = t + shift + warp_amp * np.sin(2 * np.pi * t)
    theta = 2 * np.pi * gamma
    r = _radius(theta, centers, kappa, amp)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return closed_curve(pts @ rotation(angle).T, grid)


# anchor-plus-moving-bump contour: the sharp tall north peak makes the
# registration basin unambiguous
TWO_BUMPS = dict(centers=[np.pi / 2, 4.2], kappa=[50.0, 20.0], amp=[0.4, 0.3])
# acceptance-style contour whose registration under a large shift and warp
# keeps improving for several rounds
SLOW_CONTOUR = dict(centers=[np.pi / 2, 4.48], kappa=[22.0, 15.0], amp=[0.4, 0.3])


class TestSrvfTransform:
    def test_circle_analytic_oracle(self):
        q = srvf(circle())
        ref = np.stack([-np.sin(THETA), np.cos(THETA)], axis=1)
        np.testing.assert_allclose(q.q.f.values, ref, atol=1e-3)
        assert np.abs(q.residual).max() < 1e-6

    def test_translation_invariance(self):
        c = bumpy_curve([np.pi / 2])
        moved = closed_curve(c.beta.values + np.array([2.0, -1.0]))
        np.testing.assert_allclose(
            srvf(moved).q.f.values, srvf(c).q.f.values, atol=1e-10
        )

    def test_scale_invariance(self):
        c = bumpy_curve([np.pi / 2])
        scaled = closed_curve(2.0 * c.beta.values)
        np.testing.assert_allclose(
            srvf(scaled).q.f.values, srvf(c).q.f.values, atol=1e-10
        )

    def test_degenerate_curve(self):
        vals = np.zeros((G.n_points, 2))
        with pytest.raises(ValidationError):
            srvf(Curve(DiscreteFunction(G, vals, periodic=True)))


class TestSrvfInverse:
    def test_circle_round_trip(self):
        c = circle()  # unit length, so the SRVF round trip preserves scale
        rec = srvf_inverse(srvf(c))
        centered = c.beta.values - c.beta.values.mean(axis=0)
        np.testing.assert_allclose(rec.beta.values, centered, atol=1e-3)

    def test_output_is_centered_and_closed(self):
        from tfcca.numerics import trapezoid_weights

        rec = srvf_inverse(srvf(bumpy_curve([np.pi / 2, np.pi])))
        w = trapezoid_weights(rec.grid.n_points)
        assert np.abs(w @ rec.beta.values).max() < 1e-9
        np.testing.assert_allclose(rec.beta.values[0], rec.beta.values[-1])

    def test_closure_violating_input_flagged(self):
        # an open-curve SRVF (constant direction) badly violates closure
        vals = np.tile([1.0, 0.0], (G.n_points, 1))
        point = SpherePoint(DiscreteFunction(G, vals, periodic=True))
        with pytest.raises(ValidationError):
            srvf_inverse(point)


class TestPreshapeProjection:
    def test_fixed_point(self):
        q = srvf(circle())
        again = project_to_preshape(q.q)
        np.testing.assert_allclose(again.q.f.values, q.q.f.values, atol=1e-8)

    def test_perturbed_circle_residual_decreases(self):
        rng = np.random.default_rng(0)
        q = srvf(circle())
        noise = 1e-3 * rng.standard_normal(q.q.f.values.shape)
        noise[-1] = noise[0]
        point = SpherePoint(DiscreteFunction(G, q.q.f.values + noise, periodic=True))
        start = np.abs(closure_residual(point.f.values)).max()
        out = project_to_preshape(point)
        assert np.abs(out.residual).max() <= min(1e-4, start)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(1)
        q = srvf(bumpy_curve([0.3, 2.1]))
        noise = 1e-2 * rng.standard_normal(q.q.f.values.shape)
        noise[-1] = noise[0]
        point = SpherePoint(DiscreteFunction(G, q.q.f.values + noise, periodic=True))
        out = project_to_preshape(point)
        assert inner_product(out.q.f, out.q.f) == pytest.approx(1.0, abs=1e-10)

    def test_basin_guard(self):
        vals = np.tile([1.0, 0.0], (G.n_points, 1))
        point = SpherePoint(DiscreteFunction(G, vals, periodic=True))
        with pytest.raises(ValidationError):
            project_to_preshape(point)

    def test_stack_matches_one_row_projection(self, monkeypatch):
        # rows that take 0, 1 and several Newton steps leave the stack at
        # different times; none may change another's result
        q = srvf(bumpy_curve([0.3, 2.1])).q.f.values
        rows = [SpherePoint(DiscreteFunction(G, q + c * np.array([1.0, 0.5]),
                                             periodic=True)).f.values
                for c in (0.0, 0.01, 0.3)]

        def newton_steps(row):
            for cap in range(1, 10):
                monkeypatch.setattr(shape_module, "PRESHAPE_MAX_ITER", cap)
                try:
                    _preshape_rows(row[None])
                    return cap - 1
                except ConvergenceError:
                    pass

        steps = [newton_steps(row) for row in rows]
        monkeypatch.undo()
        assert steps[0] == 0 and steps[1] == 1 and steps[2] > 1
        stacked = _preshape_rows(np.stack(rows))
        for row, got in zip(rows, stacked):
            assert got.tobytes() == _preshape_rows(row[None])[0].tobytes()
            one = project_to_preshape(SpherePoint(DiscreteFunction(G, row, periodic=True)))
            np.testing.assert_array_equal(Srvf(SpherePoint(DiscreteFunction(
                G, got, periodic=True))).q.f.values, one.q.f.values)

    def test_stack_rejects_any_row_outside_the_basin(self):
        q = srvf(bumpy_curve([0.3, 2.1])).q.f.values
        outside = SpherePoint(DiscreteFunction(G, q + 0.5 * np.array([1.0, 0.5]),
                                               periodic=True))
        with pytest.raises(ValidationError, match="basin"):
            project_to_preshape(outside)
        with pytest.raises(ValidationError, match="basin"):
            _preshape_rows(np.stack([q, outside.f.values, q]))


def optimal_rotation(q1: Srvf, q2: Srvf) -> np.ndarray:
    """Procrustes rotation maximizing <q1, O q2>, the reference for the
    rigid search's angle.

    A = integral q1 q2^T dt; with SVD A = U S V^T the optimizer is
    U diag(1, det(UV^T)) V^T, always a proper rotation.
    """
    v1, v2 = q1.q.f.values, q2.q.f.values
    A = _integrate_rows(v1.T[:, None] * v2.T)
    U, _, Vt = np.linalg.svd(A)
    D = np.diag([1.0, float(np.linalg.det(U @ Vt))])
    return U @ D @ Vt


class TestOptimalRotation:
    def test_identity_for_same(self):
        q = srvf(bumpy_curve([np.pi / 2]))
        np.testing.assert_allclose(optimal_rotation(q, q), np.eye(2), atol=1e-10)

    def test_exact_recovery(self):
        q = srvf(bumpy_curve([np.pi / 2, np.pi]))
        R = rotation(0.7)
        rotated = Srvf(
            SpherePoint(DiscreteFunction(G, q.q.f.values @ R, periodic=True))
        )
        # q2 = R^T q1, so the optimizer should rotate it back by R
        np.testing.assert_allclose(optimal_rotation(q, rotated), R, atol=1e-8)

    def test_determinant_plus_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = srvf(bumpy_curve(list(rng.uniform(0, 2 * np.pi, 2))))
            b = srvf(bumpy_curve(list(rng.uniform(0, 2 * np.pi, 2))))
            O = optimal_rotation(a, b)
            assert np.linalg.det(O) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(O.T @ O, np.eye(2), atol=1e-10)

    def test_rigid_search_angle_is_the_procrustes_rotation(self):
        # registration takes its rotation from the FFT search's angle; at
        # offset 0 the rotation _apply_rigid builds from it is the Procrustes
        # optimum, on the inputs of the three tests above
        same = srvf(bumpy_curve([np.pi / 2]))
        q = srvf(bumpy_curve([np.pi / 2, np.pi]))
        rotated = Srvf(
            SpherePoint(DiscreteFunction(G, q.q.f.values @ rotation(0.7), periodic=True))
        )
        rng = np.random.default_rng(2)
        pairs = [(same, same), (q, rotated)] + [
            tuple(srvf(bumpy_curve(list(rng.uniform(0, 2 * np.pi, 2)))) for _ in "ab")
            for _ in range(5)
        ]
        for a, b in pairs:
            v1, v2 = a.q.f.values, b.q.f.values
            theta = _rigid_scores(v1, v2[None])[1][0, 0]
            _, O = _apply_rigid(v2[None], np.array([0]), np.array([theta]))
            np.testing.assert_allclose(O[0], optimal_rotation(a, b), rtol=0, atol=1e-12)


class TestOptimalWarp:
    def test_self_alignment(self):
        q = srvf(bumpy_curve([np.pi / 2, np.pi]))
        warp, cost = optimal_warp(q, q)
        assert cost < 1e-6
        np.testing.assert_allclose(warp.values, G.points, atol=1e-12)

    def test_known_warp_recovery(self):
        q = srvf(bumpy_curve([np.pi / 2, 4.0]))
        warped = srvf(nuisanced_bumpy([np.pi / 2, 4.0], warp_amp=0.05))
        _, cost = optimal_warp(q, warped)
        assert cost < 1e-2  # |q1|^2 = 1

    def test_optimal_not_worse_than_identity(self):
        q1 = srvf(bumpy_curve([np.pi / 2, 1.0]))
        q2 = srvf(bumpy_curve([np.pi / 2, 1.2]))
        _, cost = optimal_warp(q1, q2)
        identity_cost = inner_product(
            q1.q.f - q2.q.f, q1.q.f - q2.q.f
        )
        assert cost <= identity_cost + 1e-6

    def test_warp_is_monotone_circle_map(self):
        q1 = srvf(bumpy_curve([np.pi / 2, 1.0]))
        q2 = srvf(nuisanced_bumpy([np.pi / 2, 1.4], shift=0.2, warp_amp=0.04))
        warp, _ = optimal_warp(q1, q2)
        assert np.all(np.diff(warp.values) >= -1e-12)
        assert warp.values[-1] - warp.values[0] == pytest.approx(1.0, abs=1e-9)


def segment_cost_tables(q1_vals, q2_chunk, nq1):
    """Per-slope segment costs by circle position, cost[si][b, a, u] for the
    segment from row a and column u: the band tables over all m diagonals,
    re-indexed. A cell-by-cell DP reads these directly."""
    n = q2_chunk.shape[1]
    m = n - 1
    tables = _band_cost_tables(q1_vals, q2_chunk, nq1, 0, m)
    rows = np.arange(n)[:, None]
    diag = (np.arange(m) - rows) % m
    return [tables[si, rows[: n - p], diag[: n - p]].transpose(2, 0, 1)
            for si, (p, _) in enumerate(SLOPES)]


def reference_dp(q1_vals, q2_stack, offsets):
    """Cell-by-cell DP over the float32 segment costs of
    segment_cost_tables: slopes tried in SLOPES order with a strict `<`,
    the first seed kept on ties, and the warp built as in _dp_align_batch."""
    n = q1_vals.shape[0]
    m = n - 1
    h = 1.0 / m
    tables = segment_cost_tables(q1_vals, q2_stack, (q1_vals * q1_vals).sum(axis=1))
    gammas, costs = [], []
    for b in range(q2_stack.shape[0]):
        best = None
        for off in offsets:
            D = np.full((n, n), _BIG, dtype=np.float32)
            D[0, 0] = 0.0
            arg = np.full((n, n), -1)
            for i in range(1, n):
                for j in range(n):
                    for si, (p, s) in enumerate(SLOPES):
                        if p <= i and s <= j:
                            seg = tables[si][b, i - p, (j - s + off) % m]
                            c = D[i - p, j - s] + seg  # float32 + float32
                            if c < D[i, j]:
                                D[i, j], arg[i, j] = c, si
            if best is None or D[m, m] < best[0]:
                best = (D[m, m], int(off), arg)
        cost, off, arg = best
        i = j = m
        path = [(i, j)]
        while i > 0:
            p, s = SLOPES[arg[i, j]]
            i, j = i - p, j - s
            path.append((i, j))
        inodes, jnodes = zip(*reversed(path))
        gammas.append(np.interp(np.arange(n), inodes, jnodes) * h + off * h)
        costs.append(float(cost))
    return np.array(gammas), np.array(costs)


class TestDpReference:
    @pytest.mark.parametrize("offsets", [np.arange(-2, 3), np.array([0, 5, 11, 17])],
                             ids=["window", "spread"])
    def test_batch_dp_equals_per_cell_reference(self, offsets):
        spec = CurveSimSpec("high", 3, Grid(25), rng_seed=7)
        q1 = srvf(gen_curve_group(spec, 1)[0][0]).q.f.values
        q2 = np.stack([srvf(c).q.f.values for c in gen_curve_group(spec, 2)[0]])
        gammas, costs = _dp_align_batch(q1, q2, offsets)
        ref_gammas, ref_costs = reference_dp(q1, q2, offsets)
        np.testing.assert_array_equal(costs, ref_costs)
        np.testing.assert_array_equal(gammas, ref_gammas)

    @pytest.mark.parametrize("offsets", [np.arange(-2, 3), np.array([0, 5, 11, 17])],
                             ids=["window", "spread"])
    def test_tied_slopes_keep_the_first(self, offsets):
        # every curve stands still over samples 8..16, where its SRVF
        # vanishes: a segment inside that stretch costs exactly 0, so slopes
        # whose predecessors share a cost tie exactly on the optimal path,
        # and only the first-slope rule gives the reference's warp
        spec = CurveSimSpec("high", 3, Grid(25), rng_seed=7)
        q1 = srvf(gen_curve_group(spec, 1)[0][0]).q.f.values.copy()
        q2 = np.stack([srvf(c).q.f.values for c in gen_curve_group(spec, 2)[0]])
        q1[8:17] = 0.0
        q2[:, 8:17] = 0.0
        gammas, costs = _dp_align_batch(q1, q2, offsets)
        ref_gammas, ref_costs = reference_dp(q1, q2, offsets)
        np.testing.assert_array_equal(costs, ref_costs)
        np.testing.assert_array_equal(gammas, ref_gammas)


def oracle_segment_costs(q1_vals, q2_stack, p, s):
    """Float64 segment costs of slope (p, s), cost[b, a, u] for the segment
    from row a and circle position u, straight from the definition:
    sum_k w_k |q1[a+k] - sqrt(s/p) ((1 - fr_k) q2[u+of_k] + fr_k q2[u+of_k+1])|^2
    with of_k + fr_k = k s / p, indices mod m and trapezoid weights w_k."""
    n = q1_vals.shape[0]
    m = n - 1
    a = np.arange(n - p)
    u = np.arange(m)
    cost = np.zeros((q2_stack.shape[0], n - p, m))
    for k in range(p + 1):
        w = (0.5 if k in (0, p) else 1.0) / m
        of, fr = divmod(k * s, p)
        fr /= p
        q2k = ((1 - fr) * q2_stack[:, (u + of) % m]
               + fr * q2_stack[:, (u + of + 1) % m])  # (B, m, 2)
        diff = q1_vals[(a + k) % m][None, :, None] - np.sqrt(s / p) * q2k[:, None]
        cost += w * (diff * diff).sum(axis=-1)
    return cost


class TestCostTables:
    @pytest.mark.parametrize("n_points", [25, 101])
    @pytest.mark.parametrize("first,width", [(0, None), (-9, 19)],
                             ids=["all_diagonals", "band"])
    def test_tables_match_float64_oracle(self, n_points, first, width):
        m = n_points - 1
        width = width or m
        spec = CurveSimSpec("high", 4, Grid(n_points), rng_seed=11)
        curves = gen_curve_group(spec, 1)[0]
        q1 = srvf(curves[0]).q.f.values
        q2 = np.stack([srvf(c).q.f.values for c in curves[1:]])
        tables = _band_cost_tables(q1, q2, (q1 * q1).sum(axis=1), first, width)
        rows = np.arange(n_points)[:, None]
        circle = (rows + first + np.arange(width)) % m
        for si, (p, s) in enumerate(SLOPES):
            oracle = oracle_segment_costs(q1, q2, p, s)
            want = oracle[:, rows[: n_points - p], circle[: n_points - p]]
            got = tables[si, : n_points - p].transpose(2, 0, 1)
            # the tables sum float32 terms of size up to the two speed
            # integrals, so the rounding bound scales with those, not the
            # cost; measured worst cases are under 3 eps
            scale = (oracle_segment_costs(q1, 0 * q2, p, s)
                     + oracle_segment_costs(0 * q1, q2, p, s))
            scale = scale[:, rows[: n_points - p], circle[: n_points - p]]
            err = np.abs(got - want) / scale
            assert err.max() <= 8 * np.finfo(np.float32).eps, (p, s, err.max())


    def test_rows_past_the_grid_are_zero(self):
        # on a 3-cell grid no 4-row slope fits, yet the DP reads row 0 of
        # those slopes; a NaN left in the block the tables reuse would show
        grid = Grid(4)
        curves = gen_curve_group(CurveSimSpec("high", 4, grid, rng_seed=7), 1)[0]
        q1 = srvf(curves[0]).q.f.values
        q2 = np.stack([srvf(c).q.f.values for c in curves[1:]])
        for _ in range(5):
            stale = np.full((len(SLOPES), 4, 17, 3), np.nan, dtype=np.float32)
            del stale
            tables = _band_cost_tables(q1, q2, (q1 * q1).sum(axis=1), -6, 17)
            for si, (p, _) in enumerate(SLOPES):
                assert not np.any(tables[si, 4 - p:]), SLOPES[si]


class TestDpMemory:
    def test_one_pass_peaks_near_its_cost_tables(self):
        # the float32 tables, 11 slopes x n rows x D diagonals x curves, are
        # the largest array of a pass; rows, choices and staging stay small
        n, curves, band = 101, 16, DP_BAND
        spec = CurveSimSpec("high", curves + 1, Grid(n), rng_seed=3)
        group = gen_curve_group(spec, 1)[0]
        q1 = srvf(group[0]).q.f.values
        q2 = np.stack([srvf(c).q.f.values for c in group[1:]])
        offsets = np.arange(-2, 3)
        D = 2 * band + 1 + 2 * 3 + 4  # band, the slopes' |s - p| pads, seed span
        table_bytes = len(SLOPES) * n * D * curves * 4
        tracemalloc.start()
        try:
            shape_module._dp_band_pass(q1, q2, offsets, band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * table_bytes, peak / table_bytes


class TestBandedDp:
    WINDOW = np.arange(-DP_WINDOW, DP_WINDOW + 1)

    def test_grid_wider_than_band_equals_per_cell_reference(self):
        # the reference evaluates every lattice node; here many lie outside
        # the starting band
        grid = Grid(49)
        assert grid.n_points - 1 > 2 * DP_BAND + 1
        spec = CurveSimSpec("high", 3, grid, rng_seed=7)
        q1 = srvf(gen_curve_group(spec, 1)[0][0]).q.f.values
        q2 = np.stack([srvf(c).q.f.values for c in gen_curve_group(spec, 2)[0]])
        gammas, costs = _dp_align_batch(q1, q2, self.WINDOW)
        ref_gammas, ref_costs = reference_dp(q1, q2, self.WINDOW)
        np.testing.assert_array_equal(costs, ref_costs)
        np.testing.assert_array_equal(gammas, ref_gammas)

    def test_band_doubles_when_the_path_reaches_its_edge(self):
        # a strong reparameterization (warp_amp 0.15 keeps it a diffeomorphism)
        # puts the optimal path about 30 cells off the diagonal, past DP_BAND
        m = G.n_points - 1
        q1 = srvf(bumpy_curve(**TWO_BUMPS)).q.f.values
        q2 = srvf(nuisanced_bumpy(warp_amp=0.15, **TWO_BUMPS)).q.f.values[None]
        gammas, costs = _dp_align_batch(q1, q2, self.WINDOW)
        full_gammas, full_costs = _dp_align_batch(q1, q2, self.WINDOW, band=m)
        assert np.abs(full_gammas[0] * m - np.arange(m + 1)).max() > DP_BAND + DP_WINDOW
        np.testing.assert_array_equal(costs, full_costs)
        np.testing.assert_array_equal(gammas, full_gammas)

    def test_banded_equals_full_lattice_on_acceptance_curves(self, monkeypatch):
        banded = shape_module._dp_align_batch
        band_pass = shape_module._dp_band_pass
        passes = []  # (band, curves) of every DP pass
        curves_seen = []
        curves_redone = []  # curve DPs rerun at a band wider than DP_BAND

        def counted_pass(q1, q2, offsets, band):
            passes.append((band, q2.shape[0]))
            return band_pass(q1, q2, offsets, band)

        def banded_and_full(q1, q2, offsets):
            first = len(passes)
            gammas, costs = banded(q1, q2, offsets)
            curves_redone.append(sum(c for band, c in passes[first:] if band > DP_BAND))
            full_gammas, full_costs = banded(q1, q2, offsets, band=q1.shape[0] - 1)
            np.testing.assert_array_equal(costs, full_costs)
            np.testing.assert_array_equal(gammas, full_gammas)
            curves_seen.append(q2.shape[0])
            return gammas, costs

        monkeypatch.setattr(shape_module, "_dp_band_pass", counted_pass)
        monkeypatch.setattr(shape_module, "_dp_align_batch", banded_and_full)
        # criterion 4: the first contour pairs of its random stream, both
        # registration directions
        rng = np.random.default_rng(1)
        for _ in range(4):
            shape = dict(centers=[np.pi / 2, rng.uniform(3.5, 4.8)],
                         kappa=[22.0, rng.uniform(12.0, 20.0)], amp=[0.4, 0.3])
            base = srvf(bumpy_curve(**shape))
            moved = srvf(nuisanced_bumpy(angle=rng.uniform(0, 2 * np.pi),
                                         warp_amp=rng.uniform(0, 0.04),
                                         shift=rng.uniform(0, 1), **shape))
            shape_distance(base, moved)
        # criterion 2: curves of both regimes registered to their group's
        # first curve, the Karcher mean's starting point, then the mean's
        # passes and project_Pi onto the mean (2 candidates, up to 8 rounds)
        for regime in ("high", "weak"):
            spec = CurveSimSpec(regime, 100, Grid(200), rng_seed=1)
            qs = [srvf(c) for c in gen_curve_group(spec, 1)[0][:7]]
            register_batch(qs[0], qs[1:])
            project_Pi(qs, shape_karcher_mean(qs).mean)
        assert sum(curves_seen) > 50
        # the gate covers the band's fallback, not only paths inside the band
        assert sum(curves_redone) > 0


class TestRegister:
    def test_register_self_identity(self):
        q = srvf(bumpy_curve([np.pi / 2, 2.5]))
        reg, star = register(q, q)
        assert reg.cost < 1e-6
        np.testing.assert_allclose(reg.rotation, np.eye(2), atol=1e-6)
        np.testing.assert_allclose(reg.warp.values, G.points, atol=1e-9)

    def test_self_registration_stops_after_two_rounds(self):
        # on this coarser grid the float32 DP cost of a self-registration
        # often rounds to just below zero; that is no decrease either
        grid = Grid(100)
        for center, kappa in [(3.8, 32.0), (5.4, 11.0), (4.6, 15.0),
                              (1.9, 23.0), (2.5, 37.0)]:
            q = srvf(bumpy_curve([np.pi / 2, center], kappa=kappa, grid=grid))
            reg, _ = register(q, q)
            assert len(reg.round_costs) == 2
            assert reg.cost < 1e-6

    def test_round_costs_nonincreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            c1 = bumpy_curve(list(rng.uniform(0, 2 * np.pi, 2)))
            c2 = bumpy_curve(list(rng.uniform(0, 2 * np.pi, 2)))
            reg, _ = register_batch(srvf(c1), [srvf(c2)], rounds=3)[0]
            diffs = np.diff(reg.round_costs)
            assert np.all(diffs <= 1e-6)

    def test_rounds_stop_when_cost_stops_decreasing(self):
        # a large shift plus a strong warp needs several rounds to settle
        q1 = srvf(bumpy_curve(**SLOW_CONTOUR))
        q2 = srvf(nuisanced_bumpy(angle=0.7, warp_amp=0.039, shift=0.96,
                                  **SLOW_CONTOUR))
        reg, _ = register(q1, q2)
        costs = np.array(reg.round_costs)
        assert 2 < len(costs) < REGISTRATION_ROUNDS
        rel = (costs[:-1] - costs[1:]) / costs[:-1]
        assert rel[-1] <= REGISTRATION_RTOL
        assert np.all(rel[:-1] > REGISTRATION_RTOL)

    def test_batch_matches_single_registration(self):
        # curves that converge after different numbers of rounds leave the
        # batch at different times; none may change another's result
        q1 = srvf(bumpy_curve(**SLOW_CONTOUR))
        qs = [
            srvf(nuisanced_bumpy(angle=a, warp_amp=w, shift=s, **SLOW_CONTOUR))
            for a, w, s in [(0.7, 0.039, 0.96), (1.0, 0.0, 0.3),
                            (0.5, 0.01, 0.2), (2.0, 0.03, 0.6)]
        ]
        batch = register_batch(q1, qs)
        for b, (q, (reg_b, star_b)) in enumerate(zip(qs, batch)):
            reg, star = register(q1, q)
            assert reg_b.cost == reg.cost
            assert reg_b.round_costs == reg.round_costs
            np.testing.assert_array_equal(reg_b.warp.values, reg.warp.values)
            np.testing.assert_array_equal(star_b.q.f.values, star.q.f.values)
            # the mean and project_Pi read the block's rows, not the Srvf
            np.testing.assert_array_equal(batch.stars[b], star_b.q.f.values)
        assert len({len(reg.round_costs) for reg, _ in batch}) > 1

    def test_synthetic_nuisance_recovered(self):
        q1 = srvf(bumpy_curve([np.pi / 2, 4.2]))
        q2 = srvf(
            nuisanced_bumpy([np.pi / 2, 4.2], angle=0.5, warp_amp=0.05, shift=0.15)
        )
        assert shape_distance(q1, q2) < 0.05


def local_maxima_offsets_loop(scores, k):
    """Per-row reference of the rigid-basin rule: the top-k circular peaks
    (> left, >= right) by score, ties to the lower offset; argmax for a row
    without a peak; the last pick repeated when a row runs out."""
    B, m = scores.shape
    left = np.roll(scores, 1, axis=1)
    right = np.roll(scores, -1, axis=1)
    is_peak = (scores > left) & (scores >= right)
    out = np.zeros((B, k), dtype=int)
    for b in range(B):
        peaks = np.flatnonzero(is_peak[b])
        if peaks.size == 0:
            peaks = np.array([int(scores[b].argmax())])
        order = peaks[np.argsort(-scores[b][peaks], kind="stable")]
        chosen = list(order[:k])
        while len(chosen) < k:
            chosen.append(chosen[-1])
        out[b] = chosen
    return out


class TestRigidBasins:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stacked_rule_equals_per_row_loop(self, k):
        rng = np.random.default_rng(k)
        random_rows = rng.random((300, 40))
        rounded = np.round(rng.random((300, 12)), 1)  # many equal neighbours
        constant = np.full((4, 9), 0.5)
        for scores in (random_rows, rounded, constant):
            np.testing.assert_array_equal(_local_maxima_offsets(scores, k),
                                          local_maxima_offsets_loop(scores, k))

    def test_seam_plateau_peak_is_its_second_sample(self):
        # a maximal plateau across the seam (offsets 7 and 0): the peak is
        # the plateau's first sample going round, offset 7, where argmax
        # would take offset 0; this is the one case where they differ
        scores = np.array([[5.0, 1.0, 2.0, 1.0, 3.0, 1.0, 0.0, 5.0]])
        assert scores.argmax() == 0
        np.testing.assert_array_equal(_local_maxima_offsets(scores, 1), [[7]])
        np.testing.assert_array_equal(_local_maxima_offsets(scores, 3), [[7, 4, 2]])


class TestSmoothedWarp:
    @pytest.mark.parametrize("n_points", [4, 6, 9, 12, 14, 101])
    def test_equals_direct_circular_moving_average(self, n_points):
        grid = Grid(n_points)
        m = n_points - 1
        rng = np.random.default_rng(n_points)
        dev = 0.2 * rng.standard_normal((3, m)) / m
        gamma = grid.points + np.concatenate([dev, dev[:, :1]], axis=1)
        for width in _SMOOTH_WIDTHS + (1, 2 * m + 1):
            out = _smoothed_warp(gamma, grid, width)
            window = (np.arange(m)[:, None] + np.arange(width) - width // 2) % m
            direct = dev[:, window].mean(axis=2)
            assert out.shape == gamma.shape
            np.testing.assert_allclose(out[:, :m] - grid.points[:m], direct,
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(out[:, m], out[:, 0] + 1.0, rtol=0, atol=1e-15)


class TestShapeDistance:
    def test_self_distance(self):
        q = srvf(bumpy_curve([np.pi / 2]))
        assert shape_distance(q, q) < 1e-6

    def test_symmetric(self):
        q1 = srvf(bumpy_curve([np.pi / 2, 1.0]))
        q2 = srvf(bumpy_curve([np.pi / 2, 1.5], kappa=30.0))
        assert shape_distance(q1, q2) == shape_distance(q2, q1)

    def test_invariance_under_nuisance(self):
        rng = np.random.default_rng(4)
        q1 = srvf(bumpy_curve([np.pi / 2, 3.8]))
        for _ in range(3):
            q2 = srvf(
                nuisanced_bumpy(
                    [np.pi / 2, 3.8],
                    angle=rng.uniform(0, 2 * np.pi),
                    warp_amp=rng.uniform(0, 0.06),
                    shift=rng.uniform(0, 1),
                )
            )
            assert shape_distance(q1, q2) < 0.05

    def test_circle_vs_three_bump_golden(self):
        # genuinely different shapes stay well separated; the golden value
        # freezes the deterministic DP output
        q1 = srvf(circle())
        q2 = srvf(bumpy_curve([np.pi / 2, np.pi / 2 + 2 * np.pi / 3,
                               np.pi / 2 + 4 * np.pi / 3]))
        d = shape_distance(q1, q2)
        assert d > 0.1
        assert d == pytest.approx(GOLDEN_CIRCLE_VS_THREE_BUMP, abs=1e-6)


class TestShapeDistanceInvariance:
    # the distance of q1 to the second curve registered onto it must not see
    # a rotation or a cyclic start-point shift of that curve's samples;
    # shape_distance also takes the reverse direction, where the shifted curve
    # is the DP template and its start sample is pinned to a lattice node, so
    # only this direction is exact
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.floats(0.0, 2 * np.pi), min_size=4, max_size=4),
           st.floats(10.0, 40.0), st.floats(0.0, 2 * np.pi), st.integers(0, 58))
    def test_rotation_and_cyclic_shift_leave_distance(self, centers, kappa,
                                                      angle, shift):
        grid = Grid(60)
        c1 = bumpy_curve(centers[:2], kappa=kappa, grid=grid)
        c2 = bumpy_curve(centers[2:], kappa=20.0, grid=grid)
        moved = np.roll(c2.beta.values[:-1] @ rotation(angle).T, -shift, axis=0)
        c2_moved = closed_curve(np.vstack([moved, moved[:1]]), grid)
        q1 = srvf(c1)
        d = _aligned_distance(q1, srvf(c2))
        assert abs(d - _aligned_distance(q1, srvf(c2_moved))) <= 1e-9


# frozen output of the deterministic registration on this fixed input pair
GOLDEN_CIRCLE_VS_THREE_BUMP = 0.2775551132598868


class TestKarcherMeanShape:
    def test_identical_inputs(self):
        q = srvf(bumpy_curve([np.pi / 2, 1.0]))
        mean = shape_karcher_mean([q, q, q]).mean
        assert shape_distance(mean, q) < 1e-6

    def test_two_curves_equidistant(self):
        q1 = srvf(bumpy_curve([np.pi / 2, 3.6]))
        q2 = srvf(bumpy_curve([np.pi / 2, 4.0]))
        mean = shape_karcher_mean([q1, q2]).mean
        d1, d2 = shape_distance(mean, q1), shape_distance(mean, q2)
        assert abs(d1 - d2) < 5e-2

    def test_variance_trace_nonincreasing(self):
        rng = np.random.default_rng(5)
        qs = [
            srvf(bumpy_curve([np.pi / 2, 3.9 + 0.15 * rng.standard_normal()]))
            for _ in range(6)
        ]
        trace = np.array(shape_karcher_mean(qs).variance_trace)
        assert np.all(np.diff(trace) <= 1e-8)


def reference_medoid_totals(stack):
    """Each row's sum of best-offset rigid scores against every row, from the
    four real transforms per pair that registration's _rigid_scores takes."""
    return [math.fsum(_rigid_scores(q, stack)[0].max(axis=1)) for q in stack]


class TestMedoid:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_four_transform_reference(self, seed):
        spec = CurveSimSpec("high", 12, Grid(60), rng_seed=seed)
        groups = (np.stack([srvf(c).q.f.values for c in gen_curve_group(spec, k)[0]])
                  for k in (1, 2))
        noise = np.random.default_rng(seed).standard_normal((9, 41, 2))
        noise[:, -1] = noise[:, 0]
        for stack in (*groups, noise):
            assert _medoid(stack) == int(np.argmax(reference_medoid_totals(stack)))

    def test_tied_circle_group(self):
        # copies of one circle tie exactly and the first row wins; rolled and
        # rotated copies tie up to rounding, where any maximizer will do
        q = srvf(circle(grid=Grid(60))).q.f.values
        copies = np.stack([q] * 5)
        assert _medoid(copies) == int(np.argmax(reference_medoid_totals(copies))) == 0
        rolled = (np.roll(q[:-1], 7 * k, axis=0) @ rotation(k).T for k in range(5))
        moved = np.stack([np.vstack([r, r[:1]]) for r in rolled])
        totals = reference_medoid_totals(moved)
        assert totals[_medoid(moved)] == pytest.approx(max(totals), rel=1e-12)


class TestStackedRegistration:
    def test_mean_and_projection_build_no_per_curve_objects(self, monkeypatch):
        counts = {"Srvf": 0, "Registration": 0}

        def counting(cls, name, method):
            orig = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                counts[name] += 1
                orig(self, *args, **kwargs)
            monkeypatch.setattr(cls, method, wrapper)

        spec = CurveSimSpec("high", 8, Grid(60), rng_seed=3)
        qs = [srvf(c) for c in gen_curve_group(spec, 1)[0]]
        counting(Srvf, "Srvf", "__post_init__")
        counting(shape_module.Registration, "Registration", "__init__")
        result = shape_karcher_mean(qs)
        assert counts["Registration"] == 0
        # the start and at most two step candidates per iteration
        assert counts["Srvf"] <= 1 + 2 * result.iterations
        counts.update(Srvf=0, Registration=0)
        project_Pi(qs, result.mean)
        assert counts == {"Srvf": 0, "Registration": 0}


class TestSubjectOrder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_moving_a_subject_to_the_front_leaves_the_analysis(self, seed):
        spec = CurveSimSpec("high", 16, Grid(60), rng_seed=seed)
        g1, g2 = gen_curve_group(spec, 1)[0], gen_curve_group(spec, 2)[0]

        def analysis(order):
            res = tangent_mode_pipeline([g1[i] for i in order], [g2[i] for i in order],
                                        "separate", rank=2)
            out = cca(res.c1, res.c2)
            return [out.correlations, res.basis_1.eigenvalues, res.basis_2.eigenvalues,
                    out.weights_1, out.weights_2]

        ref = analysis(range(16))
        for front in (5, 11):
            got = analysis([front] + [i for i in range(16) if i != front])
            for name, a, b in zip(("correlations", "eigenvalues 1", "eigenvalues 2",
                                   "weights 1", "weights 2"), got, ref):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)


def preshape_normal_basis(mean: Srvf):
    """The closure normals at the mean as DiscreteFunction arithmetic, the
    reference for _preshape_normals."""
    g1, g2 = _constraint_gradients(mean.q.f.values)

    def fn(a):
        return DiscreteFunction(mean.grid, a, periodic=True)

    base = mean.q.f
    p1 = fn(g1) - inner_product(fn(g1), base) * base
    p1 = p1 * (1.0 / norm(p1))
    p2 = fn(g2) - inner_product(fn(g2), base) * base - inner_product(fn(g2), p1) * p1
    p2 = p2 * (1.0 / norm(p2))
    return p1, p2


def project_one(q, mean):
    """Row 0 of project_Pi's block for one SRVF, as a TangentVector."""
    return TangentVector(mean.q, mean.q.f.with_values(project_Pi([q], mean).values[0]))


class TestProjectPi:
    def test_mean_projects_to_zero(self):
        q = srvf(bumpy_curve([np.pi / 2, 1.0]))
        v = project_one(q, q)
        assert v.length < 1e-6

    def test_orthogonal_to_mean_and_constraints(self):
        mean = srvf(bumpy_curve([np.pi / 2, 4.0]))
        q = srvf(bumpy_curve([np.pi / 2, 4.15], kappa=25.0))
        v = project_one(q, mean)
        phi1, phi2 = map(mean.q.f.with_values, _preshape_normals(mean.q.f.values))
        assert abs(inner_product(v.v, mean.q.f)) < 1e-6
        assert abs(inner_product(v.v, phi1)) < 1e-6
        assert abs(inner_product(v.v, phi2)) < 1e-6

    @pytest.mark.parametrize("n_points", [25, 100, 200])
    @pytest.mark.parametrize("regime", ["high", "weak"])
    def test_normals_match_the_function_reference(self, regime, n_points):
        # the row form takes the reference's products in its order, so each
        # normal gets its bits
        spec = CurveSimSpec(regime, 6, Grid(n_points), rng_seed=n_points)
        for group in (1, 2):
            for q in (srvf(c) for c in gen_curve_group(spec, group)[0]):
                got = _preshape_normals(q.q.f.values)
                for phi, ref in zip(got, preshape_normal_basis(q)):
                    assert phi.tobytes() == ref.values.tobytes()

    def test_reconstruction_close_in_shape_distance(self):
        from tfcca.sphere import TangentVector, exp_map

        mean = srvf(bumpy_curve([np.pi / 2, 4.0]))
        q = srvf(bumpy_curve([np.pi / 2, 4.1]))
        v = project_one(q, mean)
        rec = project_to_preshape(exp_map(mean.q, v))
        assert shape_distance(rec, q) < 0.05


class TestVariateDirection:
    def _mean_basis(self):
        rng = np.random.default_rng(6)
        qs = [
            srvf(bumpy_curve([np.pi / 2, 3.9 + 0.1 * rng.standard_normal()],
                             kappa=rng.uniform(15, 30)))
            for _ in range(8)
        ]
        mean = shape_karcher_mean(qs).mean
        tangents = project_Pi(qs, mean)
        return mean, fit_fpca(tangents, rank=2)

    def test_zero_eps_gives_mean_curve(self):
        mean, basis = self._mean_basis()
        out = shape_variate_direction(basis, [1.0, 0.5], [0.0])
        ref = srvf_inverse(mean)
        np.testing.assert_allclose(out[0].beta.values, ref.beta.values, atol=1e-8)

    def test_no_steps_give_no_curves(self):
        mean, basis = self._mean_basis()
        assert shape_variate_direction(basis, [1.0, 0.0], []) == []

    def test_overflow_raises(self):
        # the density rule |eps| |v| < pi; a longer step would pass the
        # antipode of the mean
        _, basis = self._mean_basis()
        with pytest.raises(GeodesicOverflowError):
            shape_variate_direction(basis, [1.0, 0.0], [0.5, 4.0])

    def test_outputs_closed(self):
        mean, basis = self._mean_basis()
        curves = shape_variate_direction(basis, [1.0, 0.0], [-2, -1, 0, 1, 2])
        for c in curves:
            np.testing.assert_allclose(c.beta.values[0], c.beta.values[-1])

    def test_sphere_distance_monotone_in_eps(self):
        from tfcca.sphere import TangentVector, exp_map, geodesic_distance

        mean, basis = self._mean_basis()
        direction = basis.direction([1.0, 0.0])
        dists = []
        for eps in (0.25, 0.5, 0.75, 1.0):
            point = exp_map(mean.q, TangentVector(mean.q, direction.v * eps))
            dists.append(geodesic_distance(point, mean.q))
        assert np.all(np.diff(dists) > 0)


class TestCurveFromPoints:
    def test_resamples_polygon(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        c = curve_from_points(pts, Grid(101))
        assert c.grid.n_points == 101
        np.testing.assert_allclose(c.beta.values[0], c.beta.values[-1])

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            curve_from_points([[0, 0], [0, 0], [0, 0]])
