"""Seeded input generator for the benchmark workloads.

    python3 bench/gen.py WORKLOAD SEED OUT_DIR

writes the workload's input sets into OUT_DIR/set0, set1, ...: the CLI input
files plus `truth.json`, a sidecar with the ground truth the output checks
compare against. The same seed always gives the same files. A run cycles
its commands over several input sets, so that one unusual draw moves its
medians little. Only public `tfcca` functions are used, and every float is
written as `repr(float(x))`, the text the CLI parses.

Workloads and their sizes live in WORKLOADS; `argv` there is the CLI command
(without `--out`) that the benchmark times on the files of one set.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from tfcca import (
    Grid,
    PdfSimSpec,
    CurveSimSpec,
    TangentVector,
    cca,
    exp_map,
    fit_fpca,
    gen_curve_group,
    gen_pdf_group,
    pdf_tangent_coordinates,
    srt_inverse,
)

RANK = 3
SHAPE_N = 8  # subjects per group
SHAPE_GRID = 100
PDF_WIDE_N = 600
PDF_WIDE_GRID = 1000
CVR_N = 400
CVR_GRID = 200
CVR_D = 2
# synthesis scale of the tangent coefficients; at 0.1 the Karcher mean does
# real work, and the tangent linearization still recovers the correlations
PDF_SCALE = 0.1
# densities fitted to build the carrier eigenbases along which data is made
CARRIER_N = 100
# log y = 1 + 0.25 (x1 + x2) + 0.3 eps
CVR_INTERCEPT, CVR_SLOPE, CVR_NOISE_SD = 1.0, 0.25, 0.3

WORKLOADS = {
    "shape_high": {
        "subjects": SHAPE_N,
        "sets": 24,
        "argv": ["shape-cca", "--input-a", "group_a.jsonl",
                 "--input-b", "group_b.jsonl", "--rank", str(RANK),
                 "--curve-grid", str(SHAPE_GRID)],
    },
    "pdf_wide": {
        "subjects": PDF_WIDE_N,
        "sets": 1,
        "argv": ["pdf-cca", "--input-a", "group_a.csv", "--input-b",
                 "group_b.csv", "--rank", str(RANK),
                 "--grid", str(PDF_WIDE_GRID)],
    },
    "cvr_cv": {
        "subjects": CVR_N,
        "sets": 3,
        "argv": ["cvr", "--input-a", "group_a.csv", "--input-b",
                 "group_b.csv", "--response", "response.csv",
                 "--log-response", "--d", str(CVR_D), "--rank", str(RANK),
                 "--grid", str(CVR_GRID)],
    },
}


def _ids(n):
    return [f"s{i:04d}" for i in range(n)]


def _write_pdf_csv(path, grid, pdfs, ids):
    table = np.column_stack([grid.points] + [p.f.values for p in pdfs])
    with open(path, "w") as fh:
        fh.write(",".join(["t"] + ids) + "\n")
        for row in table.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _latent_coefficients(n, rng):
    """Paired n x RANK Gaussian coefficients with canonical correlations
    0.7 * 0.4^k, centered (recovery_protocol_pdf step 1)."""
    targets = 0.7 * 0.4 ** np.arange(RANK)
    cov = np.eye(2 * RANK)
    cov[:RANK, RANK:] = cov[RANK:, :RANK] = np.diag(targets)
    Z = rng.standard_normal((n, 2 * RANK)) @ np.linalg.cholesky(cov).T
    Z = Z - Z.mean(axis=0)
    return Z[:, :RANK], Z[:, RANK:], targets


def _synthesize(group, n_grid, coeffs, seed):
    """Densities exp_mean(scale * sum_j x_j e_j)^2 along a carrier group's
    mean and rank-RANK eigenbasis (recovery_protocol_pdf steps 2-4)."""
    grid = Grid(n_grid)
    carriers = gen_pdf_group(PdfSimSpec(group, CARRIER_N, grid, seed))
    mean, tangents = pdf_tangent_coordinates(carriers)
    basis = fit_fpca(tangents, rank=RANK)
    E = np.stack([e.v.values for e in basis.eigenfunctions])
    out = []
    for vals in PDF_SCALE * coeffs @ E:
        v = TangentVector(mean.p, mean.p.f.with_values(vals))
        out.append(srt_inverse(exp_map(mean.p, v)))
    return grid, out


def _paired_densities(n, n_grid, seed, out_dir):
    rng = np.random.default_rng([seed, n, n_grid])
    X1, X2, targets = _latent_coefficients(n, rng)
    ids = _ids(n)
    for tag, group, X in (("a", 1, X1), ("b", 2, X2)):
        grid, pdfs = _synthesize(group, n_grid, X, int(rng.integers(2**31)))
        _write_pdf_csv(os.path.join(out_dir, f"group_{tag}.csv"), grid, pdfs, ids)
    truth = {
        "canonical_correlations": cca(X1, X2).correlations.tolist(),
        "population_correlations": targets.tolist(),
    }
    return X1, X2, ids, truth, rng


def generate_sets(workload: str, seed: int, out_dir: str) -> list:
    """Write every input set of one workload; returns their directories."""
    dirs = []
    for k in range(WORKLOADS[workload]["sets"]):
        set_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        dirs.append(os.path.join(out_dir, f"set{k}"))
        generate(workload, set_seed, dirs[-1])
    return dirs


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write one input set of a workload and return its truth sidecar."""
    spec = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    n = spec["subjects"]
    if workload == "shape_high":
        cspec = CurveSimSpec("high", n, Grid(SHAPE_GRID), rng_seed=seed)
        locs = {}
        for tag, group in (("a", 1), ("b", 2)):
            curves, locs[tag] = gen_curve_group(cspec, group)
            with open(os.path.join(out_dir, f"group_{tag}.jsonl"), "w") as fh:
                for sid, c in zip(_ids(n), curves):
                    fh.write(json.dumps({"id": sid, "points": c.beta.values.tolist()}) + "\n")
        truth = {"latent_correlation": float(np.corrcoef(locs["a"], locs["b"])[0, 1])}
    elif workload == "pdf_wide":
        *_, truth, _ = _paired_densities(n, PDF_WIDE_GRID, seed, out_dir)
    else:
        X1, X2, ids, truth, rng = _paired_densities(n, CVR_GRID, seed, out_dir)
        eps = rng.standard_normal(n)
        log_y = CVR_INTERCEPT + CVR_SLOPE * (X1[:, 0] + X2[:, 0]) + CVR_NOISE_SD * eps
        with open(os.path.join(out_dir, "response.csv"), "w") as fh:
            fh.write("id,value\n")
            for sid, y in zip(ids, np.exp(log_y).tolist()):
                fh.write(f"{sid},{y!r}\n")
        truth["noise_variance"] = CVR_NOISE_SD ** 2
        truth["realized_noise_variance"] = float(np.var(CVR_NOISE_SD * eps))
    truth.update(workload=workload, seed=seed, subjects=n, rank=RANK,
                 d=CVR_D if workload == "cvr_cv" else None)
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(truth, fh, indent=1)
    return truth


if __name__ == "__main__":
    generate_sets(sys.argv[1], int(sys.argv[2]), sys.argv[3])
