"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import cca_oracle
from tfcca import (
    DiscreteFunction,
    Grid,
    SpherePoint,
    cca,
    concordance_index,
    cvr_fit,
    exp_map,
    geodesic_distance,
    karcher_mean,
    log_map,
    optimal_warp,
    parallel_transport,
    recovery_protocol_pdf,
    recovery_protocol_shape,
    shape_distance,
    srvf,
)
from tfcca.cvr import cvr_cross_validate
from tfcca.sphere import TangentVector, tangent_at


def report(number, name, elapsed, checks):
    """Print one criterion line; checks is a list of (label, ok) pairs."""
    ok = all(flag for _, flag in checks)
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {name}: {status} ({elapsed:.1f}s)")
    for label, flag in checks:
        if not flag:
            print(f"    failed: {label}")
    assert ok, f"criterion {number} ({name}) failed: " + "; ".join(
        label for label, flag in checks if not flag
    )


def test_criterion_1_pdf_recovery():
    start = time.time()
    checks = []
    for groups, r in (((1, 2), 2), ((1, 3), 3), ((2, 3), 4)):
        for seed in range(1, 6):
            sep = recovery_protocol_pdf(r, "separate", seed, groups=groups)
            err_s = np.abs(sep.rho_truth - sep.rho_hat).max()
            checks.append(
                (f"groups {groups} r={r} seed {seed}: |rho-rho_s|={err_s:.2e} < 1e-2",
                 err_s < 1e-2)
            )
            pooled = recovery_protocol_pdf(r, "pooled", seed, groups=groups)
            err_c = np.abs(pooled.rho_truth - pooled.rho_hat).max()
            checks.append(
                (f"groups {groups} r={r} seed {seed}: |rho-rho_c|={err_c:.2e} < 5e-2",
                 err_c < 5e-2)
            )
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.0f}s < 120s", elapsed < 120))
    report(1, "PDF canonical correlation recovery", elapsed, checks)


def test_criterion_2_shape_recovery():
    start = time.time()
    checks = []
    for seed in (1, 2, 3):
        high = recovery_protocol_shape("high", rng_seed=seed)
        lead_err = abs(high.rho_separate[0] - high.rho_truth)
        agree = np.abs(high.rho_separate - high.rho_transport).max()
        checks.append(
            (f"high seed {seed}: |lead-truth|={lead_err:.4f} < 0.05", lead_err < 0.05)
        )
        checks.append(
            (f"high seed {seed}: |sep-transport|={agree:.2e} < 1e-2", agree < 1e-2)
        )
        weak = recovery_protocol_shape("weak", rng_seed=seed)
        agree_w = np.abs(weak.rho_separate - weak.rho_transport).max()
        checks.append(
            (f"weak seed {seed}: leading {weak.rho_separate[0]:.4f} <= 0.3",
             weak.rho_separate[0] <= 0.3)
        )
        checks.append(
            (f"weak seed {seed}: |sep-transport|={agree_w:.2e} < 1e-2", agree_w < 1e-2)
        )
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.0f}s < 600s", elapsed < 600))
    report(2, "shape canonical correlation recovery", elapsed, checks)


def test_criterion_3_geometry_suite():
    start = time.time()
    checks = []
    grid = Grid(1001)
    rng = np.random.default_rng(0)

    def random_point():
        return SpherePoint(
            DiscreteFunction(grid, 1.0 + 0.3 * rng.standard_normal(grid.n_points))
        )

    # exp/log round trips
    worst = 0.0
    for _ in range(10):
        p = random_point()
        v = tangent_at(p, rng.standard_normal(grid.n_points))
        v = TangentVector(p, v.v * (rng.uniform(0.1, 2.5) / v.length))
        w = log_map(p, exp_map(p, v))
        worst = max(worst, np.abs(w.v.values - v.v.values).max())
    checks.append((f"exp/log round trip {worst:.2e} < 1e-8", worst < 1e-8))

    # closed-form distance example
    p1 = SpherePoint(DiscreteFunction(grid, np.ones(grid.n_points)))
    p2 = SpherePoint(DiscreteFunction(grid, np.sqrt(2 * grid.points)))
    d = geodesic_distance(p1, p2)
    checks.append(
        (f"distance arccos(2*sqrt(2)/3): |{d:.6f} - 0.33984| < 1e-4",
         abs(d - 0.33984) < 1e-4)
    )

    # transport isometry
    worst = 0.0
    for _ in range(10):
        p, q = random_point(), random_point()
        v = tangent_at(p, rng.standard_normal(grid.n_points))
        w = parallel_transport(v, p, q)
        worst = max(worst, abs(w.length - v.length))
    checks.append((f"transport isometry {worst:.2e} < 1e-10", worst < 1e-10))

    # Karcher mean: first-order condition and monotone variance
    pts = [random_point() for _ in range(15)]
    res = karcher_mean(np.stack([p.f.values for p in pts]), grid, tol=1e-7)
    grad = np.mean([log_map(res.mean, p).v.values for p in pts], axis=0)
    gnorm = np.sqrt(np.trapezoid(grad * grad, grid.points))
    checks.append((f"Karcher gradient {gnorm:.2e} <= tol", gnorm <= 1e-7 + 1e-12))
    trace = np.array(res.variance_trace)
    checks.append(
        ("Karcher variance nonincreasing", bool(np.all(np.diff(trace) <= 1e-10)))
    )
    elapsed = time.time() - start
    report(3, "sphere geometry suite", elapsed, checks)


def _vonmises_contour(grid, centers, kappas, amps, angle=0.0, warp=0.0, shift=0.0):
    from tfcca.shape import Curve

    t = grid.points
    gamma = t + shift + warp * np.sin(2 * np.pi * t)
    theta = 2 * np.pi * gamma
    r = 1.0 + sum(
        a * np.exp(k * (np.cos(theta - c) - 1.0))
        for c, k, a in zip(centers, kappas, amps)
    )
    vals = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    c, s = np.cos(angle), np.sin(angle)
    vals = vals @ np.array([[c, -s], [s, c]]).T
    vals[-1] = vals[0]
    return Curve(DiscreteFunction(grid, vals, periodic=True))


def test_criterion_4_elastic_invariance():
    start = time.time()
    checks = []
    grid = Grid(200)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        # peaks wide enough for the grid to resolve (about 1/sqrt(kappa)
        # radians); the taller anchor keeps the alignment basin unique
        centers = [np.pi / 2, rng.uniform(3.5, 4.8)]
        kappas = [22.0, rng.uniform(12.0, 20.0)]
        amps = [0.4, 0.3]
        base = srvf(_vonmises_contour(grid, centers, kappas, amps))
        moved = srvf(
            _vonmises_contour(
                grid, centers, kappas, amps,
                angle=rng.uniform(0, 2 * np.pi),
                warp=rng.uniform(0, 0.04),
                shift=rng.uniform(0, 1),
            )
        )
        worst = max(worst, shape_distance(base, moved))
    checks.append((f"20 nuisanced contours: worst d {worst:.4f} < 0.05", worst < 0.05))

    q = srvf(_vonmises_contour(grid, [np.pi / 2, 4.0], [20.0, 20.0], [0.3, 0.3]))
    _, cost = optimal_warp(q, q)
    checks.append((f"DP self-registration cost {cost:.2e} < 1e-6", cost < 1e-6))
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.0f}s < 120s", elapsed < 120))
    report(4, "elastic shape invariance", elapsed, checks)


def test_criterion_5_cca_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(25, 150))
        r1 = int(rng.integers(1, 7))
        r2 = int(rng.integers(1, 7))
        C1 = rng.standard_normal((n, r1))
        C2 = rng.standard_normal((n, r2))
        worst = max(
            worst, np.abs(cca(C1, C2).correlations - cca_oracle(C1, C2)).max()
        )
    checks = [(f"100 instances: max |cca - oracle| {worst:.2e} < 1e-8", worst < 1e-8)]

    worst_aff = 0.0
    for _ in range(10):
        C1 = rng.standard_normal((60, 4))
        C2 = rng.standard_normal((60, 3))
        base = cca(C1, C2).correlations
        M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = rng.standard_normal(4)
        moved = cca(C1 @ M + b, C2).correlations
        worst_aff = max(worst_aff, np.abs(base - moved).max())
    checks.append(
        (f"affine invariance {worst_aff:.2e} <= 1e-10", worst_aff <= 1e-10)
    )
    elapsed = time.time() - start
    report(5, "CCA oracle equivalence", elapsed, checks)


def test_criterion_6_cvr_endpoints():
    start = time.time()
    rng = np.random.default_rng(3)
    checks = []

    # eta = 1 matches classical CCA on the top d pairs
    n, r, d = 90, 4, 2
    z = rng.standard_normal((n, 2))
    C1 = np.column_stack([z + 0.2 * rng.standard_normal((n, 2)),
                          rng.standard_normal((n, 2))])
    C2 = np.column_stack([z + 0.2 * rng.standard_normal((n, 2)),
                          rng.standard_normal((n, 2))])
    y = rng.standard_normal(n)
    fit = cvr_fit(C1, C2, y, d, eta=1.0)
    V1 = (C1 - fit.col_means_1) @ fit.weights_1
    V2 = (C2 - fit.col_means_2) @ fit.weights_2
    got = np.array([np.corrcoef(V1[:, j], V2[:, j])[0, 1] for j in range(d)])
    ref = cca(C1, C2).correlations[:d]
    err = np.abs(got - ref).max()
    checks.append((f"eta=1 matches CCA: {err:.2e} < 1e-3", err < 1e-3))

    # eta = 0 equals OLS of y on the final variates
    fit0 = cvr_fit(C1, C2, y, d, eta=0.0)
    V1 = (C1 - fit0.col_means_1) @ fit0.weights_1
    V2 = (C2 - fit0.col_means_2) @ fit0.weights_2
    design = np.column_stack([np.ones(2 * n), np.vstack([V1, V2])])
    coef, *_ = np.linalg.lstsq(design, np.concatenate([y, y]), rcond=None)
    err0 = max(abs(fit0.alpha - coef[0]), np.abs(fit0.beta - coef[1:]).max())
    checks.append((f"eta=0 matches OLS: {err0:.2e} < 1e-8", err0 < 1e-8))

    # monotone objective and constraint residual over an eta battery
    mono_ok, constr_worst = True, 0.0
    for eta in (0.0, 0.2, 0.5, 0.8, 1.0):
        f = cvr_fit(C1, C2, y, d, eta=eta)
        tr = np.array(f.objective_trace)
        mono_ok &= bool(np.all(np.diff(tr) <= 1e-8 * max(1.0, abs(tr[0]))))
        for C, W, mu in ((C1, f.weights_1, f.col_means_1),
                         (C2, f.weights_2, f.col_means_2)):
            V = (C - mu) @ W
            constr_worst = max(
                constr_worst, np.abs(V.T @ V - np.eye(d)).max()
            )
    checks.append(("objective nonincreasing on every fit", mono_ok))
    checks.append(
        (f"constraint residual {constr_worst:.2e} <= 1e-4", constr_worst <= 1e-4)
    )

    # constructed signal: y exactly linear in one shared variate
    z = rng.standard_normal(n)
    S1 = np.column_stack([z, rng.standard_normal((n, 2))])
    M = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    S2 = S1 @ M
    y_lin = 0.7 + 1.3 * z
    cv = cvr_cross_validate(
        S1, S2, y_lin, 1, (0.0, 0.5, 1.0), repeats=20, rng_seed=0
    )
    checks.append(
        (f"shared-signal held-out MSE {cv.mse_mean:.2e} < 1e-4",
         cv.mse_mean < 1e-4)
    )

    # concordance index exact endpoint cases
    t_ax = np.arange(1.0, 51.0)
    checks.append(
        ("C-index anti-monotone risk = 1.0", concordance_index(-t_ax, t_ax) == 1.0)
    )
    checks.append(
        ("C-index all-tied risks = 0.5",
         concordance_index(np.zeros(50), t_ax) == 0.5)
    )
    elapsed = time.time() - start
    report(6, "CVR endpoint behavior", elapsed, checks)


def test_criterion_7_cli_determinism(tmp_path):
    start = time.time()
    env_base = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env_base.pop(var, None)

    def run(args, threads=None):
        # threads: the BLAS thread count the caller exports, None for unset
        env = dict(env_base)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "tfcca", *args],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    # at 200 subjects on 1000 points a 2-thread BLAS changes the reports'
    # bytes, so the checks fail if the pin gives way
    sim = tmp_path / "sim"
    run(["simulate", "pdf", "--groups", "1,2", "--n", "200", "--seed", "7",
         "--grid", "1000", "--out-dir", str(sim)])

    blobs = {}
    for tag, threads in (("run1", None), ("run2", None), ("t1", "1"), ("t4", "4")):
        out = tmp_path / f"{tag}.json"
        run(["pdf-cca", "--input-a", str(sim / "group_a.csv"),
             "--input-b", str(sim / "group_b.csv"),
             "--rank", "2", "--grid", "1000", "--out", str(out)], threads)
        blobs[tag] = out.read_bytes()

    cvr_blobs = {}
    resp = tmp_path / "resp.csv"
    rng = np.random.default_rng(1)
    ids = [f"s{i:04d}" for i in range(200)]
    resp.write_text(
        "id,v\n" + "\n".join(f"{s},{x:.8f}" for s, x in zip(ids, rng.uniform(1, 9, 200))) + "\n"
    )
    for tag, threads in (("default", None), ("a", "1"), ("b", "4")):
        out = tmp_path / f"cvr_{tag}.json"
        run(["cvr", "--input-a", str(sim / "group_a.csv"),
             "--input-b", str(sim / "group_b.csv"),
             "--response", str(resp), "--d", "1", "--rank", "2",
             "--grid", "1000", "--eta-grid", "0,1", "--repeats", "3",
             "--seed", "4", "--out", str(out)], threads)
        cvr_blobs[tag] = out.read_bytes()

    checks = [
        ("pdf-cca: two identical runs bitwise equal", blobs["run1"] == blobs["run2"]),
        ("pdf-cca: thread settings 1 vs 4 bitwise equal", blobs["t1"] == blobs["t4"]),
        ("pdf-cca: default vs pinned threads bitwise equal",
         blobs["run1"] == blobs["t1"]),
        ("cvr: thread settings bitwise equal", cvr_blobs["a"] == cvr_blobs["b"]),
        ("cvr: default vs pinned threads bitwise equal",
         cvr_blobs["default"] == cvr_blobs["a"]),
    ]
    elapsed = time.time() - start
    report(7, "CLI determinism", elapsed, checks)
