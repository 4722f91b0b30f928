"""Batch command-line interface.

Commands: pdf-cca, shape-cca, cross-cca (paired analyses producing a JSON
report with canonical correlations, weights and variate-direction function
tables), cvr (canonical variate regression with eta cross-validation), and
simulate (materialize simulation datasets plus a ground-truth sidecar).

Exit codes: 0 success, 2 input validation failure (including files that
cannot be read or written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .cca import cca
from .cvr import concordance_index, cvr_cross_validate, cvr_fit, cvr_predict
from .density import Pdf, estimate_pdf, pdf_variate_direction
from .errors import NumericalError, TfccaError, ValidationError
from .fpca import tangent_mode_pipeline
from .numerics import (
    DEFAULT_CURVE_GRID,
    DEFAULT_PDF_GRID,
    DiscreteFunction,
    Grid,
)
from .report import load_report, write_report
from .shape import curve_from_points, shape_variate_direction
from .simgen import (
    CurveSimSpec,
    PdfSimSpec,
    gen_curve_group,
    gen_pdf_group,
)

DEFAULT_EPSILONS = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# ingestion

def _read_pdf_csv(path: str, grid_size: int):
    """CSV: first column grid values in [0,1], one column per subject."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 4 or len(rows[0]) < 2:
        raise ValidationError(f"{path}: need a header row and >= 3 data rows")
    ids = [c.strip() for c in rows[0][1:]]
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell ({exc})") from None
    t = data[:, 0]
    if abs(t[0]) > 1e-9 or abs(t[-1] - 1.0) > 1e-9 or np.any(np.diff(t) <= 0):
        raise ValidationError(f"{path}: first column must increase from 0 to 1")
    grid = Grid(grid_size)
    out = {}
    for j, sid in enumerate(ids):
        if sid in out:
            raise ValidationError(f"{path}: duplicate subject id {sid!r}")
        vals = np.interp(grid.points, t, data[:, j + 1])
        out[sid] = Pdf(DiscreteFunction(grid, vals))
    return out, {"format": "csv", "source_points": len(t)}


def _read_jsonl(path: str):
    records = []
    with open(path) as fh:
        for k, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{k}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise ValidationError(f"{path}:{k}: a record must be a JSON object")
            records.append(rec)
    if not records:
        raise ValidationError(f"{path}: empty input")
    return records


def _read_pdf_samples(path: str, grid_size: int, bins: int, floor: float):
    """JSON-lines of {"id":..., "samples":[...]}; one dataset-wide rescale."""
    records = _read_jsonl(path)
    samples = []
    for rec in records:
        if "id" not in rec or "samples" not in rec:
            raise ValidationError(f"{path}: records need 'id' and 'samples'")
        try:
            x = np.asarray(rec["samples"], dtype=float)
        except (TypeError, ValueError):
            x = None
        if x is None or x.ndim != 1 or x.size < 2:
            raise ValidationError(
                f"{path}: 'samples' of {rec['id']!r} must be a list of >= 2 numbers"
            )
        samples.append(x)
    pooled = np.concatenate(samples)
    lo, hi = float(np.min(pooled)), float(np.max(pooled))
    if hi <= lo:
        raise ValidationError(f"{path}: all samples identical")
    grid = Grid(grid_size)
    out = {}
    for rec, x in zip(records, samples):
        sid = str(rec["id"])
        if sid in out:
            raise ValidationError(f"{path}: duplicate subject id {sid!r}")
        out[sid] = estimate_pdf(
            x, bins=bins, floor=floor, grid=grid, value_range=(lo, hi)
        )
    return out, {
        "format": "jsonl-samples",
        "rescale": {"low": lo, "high": hi},
        "bins": bins,
        "floor": floor,
    }


def _read_curves(path: str, grid_size: int):
    """JSON-lines of {"id":..., "points":[[x,y],...]}; arc-length resample."""
    records = _read_jsonl(path)
    grid = Grid(grid_size)
    out = {}
    for rec in records:
        if "id" not in rec or "points" not in rec:
            raise ValidationError(f"{path}: records need 'id' and 'points'")
        sid = str(rec["id"])
        if sid in out:
            raise ValidationError(f"{path}: duplicate subject id {sid!r}")
        out[sid] = curve_from_points(rec["points"], grid)
    return out, {"format": "jsonl-curves"}


def _load_functional(path: str, kind: str, args):
    if kind == "pdf":
        if path.endswith(".csv"):
            return _read_pdf_csv(path, args.grid)
        return _read_pdf_samples(path, args.grid, args.bins, args.floor)
    return _read_curves(path, args.curve_grid)


def _pair_by_id(objs_a: dict, objs_b: dict):
    """Pair subjects by id, in input-a order; unmatched ids are an error."""
    missing = [sid for sid in objs_a if sid not in objs_b]
    extra = [sid for sid in objs_b if sid not in objs_a]
    if missing or extra:
        raise ValidationError(
            "subject ids do not match: "
            f"only in A {missing[:5]}, only in B {extra[:5]}"
        )
    ids = list(objs_a)
    return ids, [objs_a[s] for s in ids], [objs_b[s] for s in ids]


def _read_response(path: str, ids, log_response: bool):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) < 2:
        raise ValidationError(f"{path}: need 'id,response' columns")
    table = {}
    for k, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) < 2:
            raise ValidationError(f"{path}:{k}: need 'id,response' columns")
        try:
            table[row[0].strip()] = float(row[1])
        except ValueError:
            raise ValidationError(
                f"{path}:{k}: non-numeric response {row[1]!r}"
            ) from None
    missing = [s for s in ids if s not in table]
    if missing:
        raise ValidationError(f"{path}: no response for ids {missing[:5]}")
    y = np.array([table[s] for s in ids])
    if log_response:
        if y.min() <= 0:
            raise ValidationError("log response requires positive values")
        y = np.log(y)
    return y


# ---------------------------------------------------------------------------
# analysis helpers

def _parse_epsilons(text: str):
    try:
        eps = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ValidationError(f"bad --epsilons value {text!r}") from None
    if not eps:
        raise ValidationError("--epsilons must list at least one value")
    return eps


def _direction_entries(result, res_cca, epsilons, directions):
    """Variate-direction function tables per (group, variate, epsilon)."""
    out = {"group_a": [], "group_b": []}
    n_pairs = len(res_cca.correlations)
    take = min(directions, n_pairs)
    sides = (
        ("group_a", result.basis_1, res_cca.weights_1, result.mean_1),
        ("group_b", result.basis_2, res_cca.weights_2, result.mean_2),
    )
    for side, basis, weights, mean in sides:
        if result.mode == "transport":
            mean = result.mean_2
        kind = "pdf" if hasattr(mean, "p") else "curve"
        for j in range(take):
            w = weights[:, j]
            w = w / np.linalg.norm(w)  # unit direction; epsilon sets the length
            if kind == "pdf":
                funcs = pdf_variate_direction(mean, basis, w, epsilons)
                tables = [f.f.values for f in funcs]
                n_points = funcs[0].grid.n_points
            else:
                curves = shape_variate_direction(mean, basis, w, epsilons)
                tables = [c.beta.values for c in curves]
                n_points = curves[0].grid.n_points
            for eps, vals in zip(epsilons, tables):
                out[side].append(
                    {
                        "variate": j + 1,
                        "epsilon": float(eps),
                        "grid": {"n_points": int(n_points)},
                        "values": vals,
                    }
                )
    return out


def _emit_direction_csv(directory, report):
    os.makedirs(directory, exist_ok=True)
    for side in ("group_a", "group_b"):
        groups = {}
        for entry in report["variate_directions"][side]:
            groups.setdefault(entry["variate"], []).append(entry)
        for variate, entries in groups.items():
            entries.sort(key=lambda e: e["epsilon"])
            n = entries[0]["grid"]["n_points"]
            t = np.linspace(0.0, 1.0, n)
            planar = isinstance(entries[0]["values"][0], list)
            path = os.path.join(directory, f"{side}_variate{variate}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                if planar:
                    header = ["t"]
                    for e in entries:
                        header += [f"eps{e['epsilon']:g}_x", f"eps{e['epsilon']:g}_y"]
                    writer.writerow(header)
                    for i in range(n):
                        row = [f"{t[i]:.10g}"]
                        for e in entries:
                            row += [repr(e["values"][i][0]), repr(e["values"][i][1])]
                        writer.writerow(row)
                else:
                    writer.writerow(["t"] + [f"eps{e['epsilon']:g}" for e in entries])
                    for i in range(n):
                        writer.writerow(
                            [f"{t[i]:.10g}"] + [repr(e["values"][i]) for e in entries]
                        )


def _analysis_report(command, args, ids, result, res_cca, epsilons, ingest_meta):
    report = {
        "schema": "tfcca-report-v1",
        "command": command,
        "tool_version": __version__,
        "mode": result.mode,
        "subjects": ids,
        "ranks": [result.basis_1.rank, result.basis_2.rank],
        "explained_fraction": [
            result.basis_1.explained_fraction,
            result.basis_2.explained_fraction,
        ],
        "eigenvalues": [result.basis_1.eigenvalues, result.basis_2.eigenvalues],
        "correlations": res_cca.correlations,
        "weights": {"group_a": res_cca.weights_1, "group_b": res_cca.weights_2},
        "variates": {"group_a": res_cca.variates_1, "group_b": res_cca.variates_2},
        "variate_directions": _direction_entries(result, res_cca, epsilons, args.directions),
        "metadata": {
            "effective_options": {
                "tangent_mode": result.mode,
                "rank": args.rank,
                "explained": args.explained,
                "ridge": args.ridge,
                "epsilons": list(epsilons),
                "directions": args.directions,
                "direction_weights": "unit-norm canonical weight columns",
                "grid": getattr(args, "grid", None),
                "curve_grid": getattr(args, "curve_grid", None),
            },
            "ingestion": ingest_meta,
        },
    }
    return report


def _run_paired_analysis(command, kind_a, kind_b, path_a, path_b, args):
    objs_a, meta_a = _load_functional(path_a, kind_a, args)
    objs_b, meta_b = _load_functional(path_b, kind_b, args)
    ids, group_a, group_b = _pair_by_id(objs_a, objs_b)
    epsilons = _parse_epsilons(args.epsilons)
    result = tangent_mode_pipeline(
        group_a,
        group_b,
        mode=args.tangent_mode,
        rank=args.rank,
        explained=args.explained,
    )
    res_cca = cca(result.c1, result.c2, ridge=args.ridge)
    report = _analysis_report(
        command, args, ids, result, res_cca, epsilons,
        {"input_a": meta_a, "input_b": meta_b},
    )
    write_report(report, args.out)
    if args.emit_csv:
        _emit_direction_csv(args.emit_csv, load_report(args.out))
    print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# commands

def cmd_pdf_cca(args):
    _run_paired_analysis("pdf-cca", "pdf", "pdf", args.input_a, args.input_b, args)


def cmd_shape_cca(args):
    _run_paired_analysis("shape-cca", "curve", "curve", args.input_a, args.input_b, args)


def cmd_cross_cca(args):
    if args.tangent_mode != "separate":
        raise ValidationError(
            "cross-cca pairs densities with curves; pooled/transport tangent "
            "modes need a common representation space, use --tangent-mode separate"
        )
    _run_paired_analysis("cross-cca", "pdf", "curve", args.pdf_input, args.shape_input, args)


def _detect_kind(path: str) -> str:
    if path.endswith(".csv"):
        return "pdf"
    first = _read_jsonl(path)[0]
    if "points" in first:
        return "curve"
    if "samples" in first:
        return "pdf"
    raise ValidationError(f"{path}: cannot infer data kind from records")


def cmd_cvr(args):
    kind_a = _detect_kind(args.input_a)
    kind_b = _detect_kind(args.input_b)
    objs_a, meta_a = _load_functional(args.input_a, kind_a, args)
    objs_b, meta_b = _load_functional(args.input_b, kind_b, args)
    ids, group_a, group_b = _pair_by_id(objs_a, objs_b)
    y = _read_response(args.response, ids, args.log_response)
    try:
        eta_grid = tuple(float(x) for x in args.eta_grid.split(","))
    except ValueError:
        raise ValidationError(f"bad --eta-grid {args.eta_grid!r}") from None

    result = tangent_mode_pipeline(
        group_a, group_b,
        mode=args.tangent_mode,
        rank=args.rank,
        explained=args.explained,
    )
    trace, details = cvr_cross_validate(
        result.c1, result.c2, y, args.d, eta_grid,
        split=args.splits, repeats=args.repeats, rng_seed=args.seed,
    )
    final = cvr_fit(result.c1, result.c2, y, args.d, trace.chosen_eta)
    risk = -cvr_predict(final, result.c1.rows, result.c2.rows)
    report = {
        "schema": "tfcca-report-v1",
        "command": "cvr",
        "tool_version": __version__,
        "subjects": ids,
        "cross_validation": {
            "eta_grid": list(trace.eta_grid),
            "mse_by_eta": list(trace.mse_by_eta),
            "mse_sd_by_eta": list(details["mse_sd_by_eta"]),
            "chosen_eta": trace.chosen_eta,
            "repeat_eta": details["repeat_eta"],
            "repeat_mse": details["repeat_mse"],
            "repeat_cindex": details["repeat_cindex"],
        },
        # Table-style aggregate: mean (sd) over repeated held-out splits
        "aggregates": {
            "mse_mean": details["mse_mean"],
            "mse_sd": details["mse_sd"],
            "cindex_mean": details["cindex_mean"],
            "cindex_sd": details["cindex_sd"],
        },
        "full_fit": {
            "eta": final.eta,
            "alpha": final.alpha,
            "beta": final.beta,
            "weights_1": final.weights_1,
            "weights_2": final.weights_2,
            "converged": final.converged,
            "in_sample_cindex": concordance_index(risk, y),
        },
        "metadata": {
            "effective_options": {
                "d": args.d,
                "eta_grid": list(eta_grid),
                "splits": args.splits,
                "repeats": args.repeats,
                "seed": args.seed,
                "tangent_mode": args.tangent_mode,
                "rank": args.rank,
                "explained": args.explained,
                "log_response": args.log_response,
                "risk_score": "negated linear predictor",
            },
            "ingestion": {"input_a": meta_a, "input_b": meta_b},
        },
    }
    write_report(report, args.out)
    print(f"wrote {args.out}")
    print(
        f"MSE {details['mse_mean']:.4f} ({details['mse_sd']:.4f})  "
        f"C-index {details['cindex_mean']:.4f} ({details['cindex_sd']:.4f})  "
        f"eta* {trace.chosen_eta:g}"
    )


def _write_pdf_group_csv(path, pdfs, ids):
    grid = pdfs[0].grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(ids))
        cols = [p.f.values for p in pdfs]
        for i, t in enumerate(grid.points):
            writer.writerow([repr(float(t))] + [repr(float(c[i])) for c in cols])


def _write_curve_group_jsonl(path, curves, ids):
    with open(path, "w") as fh:
        for sid, c in zip(ids, curves):
            fh.write(
                json.dumps(
                    {"id": sid, "points": c.beta.values.tolist()}, sort_keys=True
                )
                + "\n"
            )


def cmd_simulate(args):
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []
    truth = {"seed": args.seed, "n": args.n}
    if args.what == "pdf":
        groups = [int(g) for g in args.groups.split(",")]
        if len(groups) != 2:
            raise ValidationError("--groups must name two groups, e.g. 1,2")
        for tag, g in zip(("a", "b"), groups):
            spec = PdfSimSpec(g, args.n, Grid(args.grid), rng_seed=args.seed + (0 if tag == "a" else 1))
            pdfs = gen_pdf_group(spec)
            ids = [f"s{i:04d}" for i in range(args.n)]
            path = os.path.join(args.out_dir, f"group_{tag}.csv")
            _write_pdf_group_csv(path, pdfs, ids)
            outputs.append(path)
        truth["groups"] = groups
        truth["grid"] = args.grid
    else:
        spec = CurveSimSpec(args.regime, args.n, Grid(args.curve_grid), rng_seed=args.seed)
        ids = [f"s{i:04d}" for i in range(args.n)]
        locs = {}
        for tag, g in zip(("a", "b"), (1, 2)):
            curves, locations = gen_curve_group(spec, g)
            path = os.path.join(args.out_dir, f"group_{tag}.jsonl")
            _write_curve_group_jsonl(path, curves, ids)
            outputs.append(path)
            locs[tag] = locations
        truth["regime"] = args.regime
        truth["curve_grid"] = args.curve_grid
        truth["peak_locations_a"] = locs["a"]
        truth["peak_locations_b"] = locs["b"]
        truth["latent_correlation"] = float(np.corrcoef(locs["a"], locs["b"])[0, 1])
    sidecar = {
        "schema": "tfcca-report-v1",
        "command": "simulate",
        "tool_version": __version__,
        "outputs": [os.path.basename(p) for p in outputs],
        "truth": truth,
        "metadata": {"effective_options": vars(args) | {"func": None}},
    }
    sidecar["metadata"]["effective_options"].pop("func", None)
    write_report(sidecar, os.path.join(args.out_dir, "truth.json"))
    print(f"wrote {len(outputs)} data files + truth.json to {args.out_dir}")


# ---------------------------------------------------------------------------
# argument parsing

def _add_common_analysis_args(p):
    rank = p.add_mutually_exclusive_group()
    rank.add_argument("--rank", type=int, default=None, help="fixed FPCA rank")
    rank.add_argument(
        "--explained", type=float, default=None,
        help="pick the smallest rank explaining this variance fraction",
    )
    p.add_argument(
        "--tangent-mode", default="separate",
        choices=("separate", "pooled", "transport"),
    )
    p.add_argument("--ridge", type=float, default=0.0, help="CCA ridge stabilizer")
    p.add_argument(
        "--epsilons", default="-3,-2,-1,0,1,2,3",
        help="comma-separated geodesic step sizes for variate directions",
    )
    p.add_argument(
        "--directions", type=int, default=3,
        help="number of leading canonical directions to reconstruct",
    )
    p.add_argument("--grid", type=int, default=DEFAULT_PDF_GRID,
                   help="working grid size for densities")
    p.add_argument("--curve-grid", type=int, default=DEFAULT_CURVE_GRID,
                   help="working grid size for curves")
    p.add_argument("--bins", type=int, default=50,
                   help="histogram bins for raw-sample density estimation")
    p.add_argument("--floor", type=float, default=1e-4,
                   help="histogram floor added to every bin")
    p.add_argument("--out", required=True, help="path of the JSON report")
    p.add_argument("--emit-csv", default=None, metavar="DIR",
                   help="also write per-direction CSV function tables")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tfcca",
        description="Canonical correlation analysis for densities and shapes "
        "via tangent-space coordinates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pdf-cca", help="CCA between two paired density groups")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    _add_common_analysis_args(p)
    p.set_defaults(func=cmd_pdf_cca)

    p = sub.add_parser("shape-cca", help="CCA between two paired curve groups")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    _add_common_analysis_args(p)
    p.set_defaults(func=cmd_shape_cca)

    p = sub.add_parser("cross-cca", help="CCA between densities and curves")
    p.add_argument("--pdf-input", required=True)
    p.add_argument("--shape-input", required=True)
    _add_common_analysis_args(p)
    p.set_defaults(func=cmd_cross_cca)

    p = sub.add_parser("cvr", help="canonical variate regression with CV over eta")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--response", required=True, help="CSV with id,response")
    p.add_argument("--log-response", action="store_true",
                   help="model the natural log of the response")
    p.add_argument("--d", type=int, required=True, help="number of variates")
    p.add_argument("--eta-grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--splits", type=float, default=0.8,
                   help="training fraction per repeat")
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    rank = p.add_mutually_exclusive_group()
    rank.add_argument("--rank", type=int, default=None)
    rank.add_argument("--explained", type=float, default=None)
    p.add_argument("--tangent-mode", default="separate",
                   choices=("separate", "pooled", "transport"))
    p.add_argument("--grid", type=int, default=DEFAULT_PDF_GRID)
    p.add_argument("--curve-grid", type=int, default=DEFAULT_CURVE_GRID)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--floor", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cvr)

    p = sub.add_parser("simulate", help="materialize simulation datasets")
    p.add_argument("what", choices=("pdf", "shape"))
    p.add_argument("--groups", default="1,2",
                   help="pdf: two mixture-parameter groups, e.g. 1,2")
    p.add_argument("--regime", default="high",
                   choices=("high", "moderate", "weak"))
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=DEFAULT_PDF_GRID)
    p.add_argument("--curve-grid", type=int, default=DEFAULT_CURVE_GRID)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except TfccaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # unreadable inputs and unwritable outputs are input problems too
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
