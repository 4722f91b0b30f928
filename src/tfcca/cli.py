"""Batch command-line interface.

Commands: pdf-cca, shape-cca, cross-cca (paired analyses producing a JSON
report with canonical correlations, weights and variate-direction function
tables), cvr (canonical variate regression with eta cross-validation), and
simulate (materialize simulation datasets plus a ground-truth sidecar).

Exit codes: 0 success, 2 input validation failure (including files that
cannot be read or written, and arrays too large to allocate), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .cca import cca
from .cvr import DEFAULT_ETA_GRID, concordance_index, cvr_cross_validate, cvr_fit
from .cvr import cvr_predict
from .density import Pdf, estimate_pdf, pdf_variate_direction
from .errors import NumericalError, TfccaError, ValidationError
from .fpca import tangent_mode_pipeline
from .numerics import (
    DEFAULT_CURVE_GRID,
    DEFAULT_PDF_GRID,
    DiscreteFunction,
    Grid,
)
from .report import SCHEMA, write_report
from .shape import curve_from_points, shape_variate_direction
from .simgen import (
    CurveSimSpec,
    PdfSimSpec,
    gen_curve_group,
    gen_pdf_group,
)

# ---------------------------------------------------------------------------
# ingestion

def _read_lines(path: str) -> list:
    """Lines of a text input, which must be UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _table_fault(path: str, lines: list, width: int):
    """Why the data lines of a density table do not parse, naming the first
    bad line, or None if each has the header's width of float() numbers.

    Runs only after the bulk parse has failed: it keeps the messages of a
    per-cell parse without paying for one on good input."""
    rows = [next(csv.reader([line]), []) for line in lines[1:]]
    for k, row in enumerate(rows, 2):
        if len(row) != width:
            return f"{path}:{k}: {len(row)} cells, the header has {width}"
    try:
        for row in rows:
            for x in row:
                float(x)
    except ValueError as exc:
        return f"{path}: non-numeric cell ({exc})"
    return None


def _parse_pdf_table(path: str, lines: list):
    """Header ids and the float table of a density CSV, parsed in one pass."""
    header = next(csv.reader(lines[:1]), [])
    if len(lines) < 4 or len(header) < 2:
        raise ValidationError(f"{path}: need a header row and >= 3 data rows")
    try:
        with warnings.catch_warnings():
            # when every data line is blank; the scan names the first one
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(lines[1:], delimiter=",", quotechar='"',
                              comments=None, ndmin=2)
    except ValueError as exc:
        fault = f"{path}: non-numeric cell ({exc})"
    else:
        if data.shape == (len(lines) - 1, len(header)):
            return [c.strip() for c in header[1:]], data
        fault = f"{path}: {len(data)} table rows on {len(lines) - 1} data lines"
    raise ValidationError(_table_fault(path, lines, len(header)) or fault)


def _read_pdf_csv(path: str, grid_size: int):
    """CSV: first column grid values in [0,1], one column per subject."""
    ids, data = _parse_pdf_table(path, _read_lines(path))
    t = data[:, 0]
    if (not np.all(np.isfinite(t)) or abs(t[0]) > 1e-9
            or abs(t[-1] - 1.0) > 1e-9 or not np.all(np.diff(t) > 0)):
        raise ValidationError(f"{path}: first column must increase from 0 to 1")
    finite = np.isfinite(data[:, 1:]).all(axis=0)
    if not finite.all():
        sid = ids[int(np.argmin(finite))]
        raise ValidationError(f"{path}: subject {sid!r} has a non-finite value")
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
    for k, line in enumerate(_read_lines(path), 1):
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


def _read_pdf_samples(path: str, records, grid_size: int, bins: int, floor: float):
    """JSON-lines of {"id":..., "samples":[...]}; one dataset-wide rescale."""
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


def _read_curves(path: str, records, grid_size: int):
    """JSON-lines of {"id":..., "points":[[x,y],...]}; arc-length resample."""
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


def _load_functional(path: str, kind: str | None, args):
    """Read one input file. kind is "pdf", "curve", or None to take it from
    the file: a CSV holds densities, and JSON-lines records with "points"
    hold curves, with "samples" densities."""
    if kind != "curve" and path.endswith(".csv"):
        return _read_pdf_csv(path, args.grid)
    records = _read_jsonl(path)
    if kind is None:
        if "points" in records[0]:
            kind = "curve"
        elif "samples" in records[0]:
            kind = "pdf"
        else:
            raise ValidationError(f"{path}: cannot infer data kind from records")
    if kind == "pdf":
        return _read_pdf_samples(path, records, args.grid, args.bins, args.floor)
    return _read_curves(path, records, args.curve_grid)


def _pair_by_id(objs_a: dict, objs_b: dict):
    """Pair subjects by id, in sorted-id order; unmatched ids are an error."""
    missing = [sid for sid in objs_a if sid not in objs_b]
    extra = [sid for sid in objs_b if sid not in objs_a]
    if missing or extra:
        raise ValidationError(
            "subject ids do not match: "
            f"only in A {missing[:5]}, only in B {extra[:5]}"
        )
    ids = sorted(objs_a)
    return ids, [objs_a[s] for s in ids], [objs_b[s] for s in ids]


def _ingest(kind_a, kind_b, path_a, path_b, args):
    """Load input A, then input B (see _load_functional), and pair them by id.

    Returns the ids and both groups in sorted-id order, and the ingestion
    metadata.
    """
    objs_a, meta_a = _load_functional(path_a, kind_a, args)
    objs_b, meta_b = _load_functional(path_b, kind_b, args)
    ids, group_a, group_b = _pair_by_id(objs_a, objs_b)
    return ids, group_a, group_b, {"input_a": meta_a, "input_b": meta_b}


def _read_response(path: str, ids, log_response: bool):
    rows = list(csv.reader(_read_lines(path)))
    if not rows or len(rows[0]) < 2:
        raise ValidationError(f"{path}: need 'id,response' columns")
    table = {}
    for k, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) < 2:
            raise ValidationError(f"{path}:{k}: need 'id,response' columns")
        sid = row[0].strip()
        if sid in table:
            raise ValidationError(f"{path}:{k}: duplicate subject id {sid!r}")
        try:
            table[sid] = float(row[1])
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

def _shared_options(args) -> dict:
    """Effective values of the shared options that set the tangent coordinates."""
    return {k: getattr(args, k)
            for k in ("tangent_mode", "rank", "explained", "grid", "curve_grid")}


def _parse_floats(flag: str, text: str) -> tuple:
    """The finite numbers of a comma-separated option value; empty entries
    are skipped, and at least one number must remain."""
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ValidationError(f"bad {flag} value {text!r}") from None
    if not values:
        raise ValidationError(f"{flag} must list at least one value")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{flag} values must be finite, got {text!r}")
    return values


def _direction_entries(result, res_cca, epsilons, directions):
    """Variate-direction function tables per (group, variate, epsilon)."""
    out = {"group_a": [], "group_b": []}
    n_pairs = len(res_cca.correlations)
    take = min(directions, n_pairs)
    sides = (
        ("group_a", result.basis_1, res_cca.weights_1),
        ("group_b", result.basis_2, res_cca.weights_2),
    )
    for side, basis, weights in sides:
        n_points = int(basis.base.grid.n_points)
        for j in range(take):
            w = weights[:, j]
            w = w / np.linalg.norm(w)  # unit direction; epsilon sets the length
            if basis.base.f.is_planar:
                tables = [c.beta.values for c in shape_variate_direction(basis, w, epsilons)]
            else:
                tables = [f.f.values for f in pdf_variate_direction(basis, w, epsilons)]
            for eps, vals in zip(epsilons, tables):
                out[side].append(
                    {
                        "variate": j + 1,
                        "epsilon": float(eps),
                        "grid": {"n_points": n_points},
                        "values": vals,
                    }
                )
    return out


def _emit_direction_csv(directory, directions):
    """One CSV per group and variate of a report's variate_directions: t,
    then one column per epsilon in increasing order, an x and a y column
    for a planar table."""
    os.makedirs(directory, exist_ok=True)
    for side, entries in directions.items():
        for variate in sorted({e["variate"] for e in entries}):
            row = sorted((e for e in entries if e["variate"] == variate),
                         key=lambda e: e["epsilon"])
            columns = np.column_stack([e["values"] for e in row])
            suffixes = ("_x", "_y") if np.ndim(row[0]["values"]) == 2 else ("",)
            header = ["t"] + [f"eps{e['epsilon']:g}{s}" for e in row for s in suffixes]
            t = np.linspace(0.0, 1.0, len(columns))
            path = os.path.join(directory, f"{side}_variate{variate}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for ti, values in zip(t, columns.tolist()):
                    writer.writerow([f"{ti:.10g}"] + [repr(x) for x in values])


def _write_framed(path, command, options, body, ingestion=None):
    """Write body as a report inside the frame every report shares: schema,
    command, tool version, and metadata echoing the effective options and,
    for a command that reads inputs, their ingestion."""
    metadata = {"effective_options": options}
    if ingestion is not None:
        metadata["ingestion"] = ingestion
    write_report({"schema": SCHEMA, "command": command, "tool_version": __version__,
                  **body, "metadata": metadata}, path)


# ---------------------------------------------------------------------------
# commands

def _run_paired_analysis(kind_a, kind_b, dest_a, dest_b, args):
    """pdf-cca, shape-cca and cross-cca: CCA of inputs A and B (options
    dest_a and dest_b, read as kind_a and kind_b data)."""
    ids, group_a, group_b, ingest_meta = _ingest(
        kind_a, kind_b, getattr(args, dest_a), getattr(args, dest_b), args)
    epsilons = _parse_floats("--epsilons", args.epsilons)
    if args.directions < 0:
        raise ValidationError(f"--directions must be >= 0, got {args.directions}")
    result = tangent_mode_pipeline(group_a, group_b, mode=args.tangent_mode,
                                   rank=args.rank, explained=args.explained)
    res_cca = cca(result.c1, result.c2, ridge=args.ridge)
    bases = (result.basis_1, result.basis_2)
    directions = _direction_entries(result, res_cca, epsilons, args.directions)
    options = {**_shared_options(args), "ridge": args.ridge, "epsilons": list(epsilons),
               "directions": args.directions,
               "direction_weights": "unit-norm canonical weight columns"}
    _write_framed(args.out, args.cmd, options, {
        "mode": result.mode,
        "subjects": ids,
        "ranks": [b.rank for b in bases],
        "explained_fraction": [b.explained_fraction for b in bases],
        "eigenvalues": [b.eigenvalues for b in bases],
        "correlations": res_cca.correlations,
        "weights": {"group_a": res_cca.weights_1, "group_b": res_cca.weights_2},
        "variates": {"group_a": res_cca.variates_1, "group_b": res_cca.variates_2},
        "variate_directions": directions,
    }, ingest_meta)
    if args.emit_csv:
        _emit_direction_csv(args.emit_csv, directions)
    print(f"wrote {args.out}")


def cmd_cvr(args):
    ids, group_a, group_b, ingest_meta = _ingest(
        None, None, args.input_a, args.input_b, args
    )
    y = _read_response(args.response, ids, args.log_response)
    eta_grid = _parse_floats("--eta-grid", args.eta_grid)

    result = tangent_mode_pipeline(group_a, group_b, mode=args.tangent_mode,
                                   rank=args.rank, explained=args.explained)
    cv = cvr_cross_validate(
        result.c1, result.c2, y, args.d, eta_grid,
        split=args.splits, repeats=args.repeats, rng_seed=args.seed,
    )
    final = cvr_fit(result.c1, result.c2, y, args.d, cv.chosen_eta)
    if cv.unconverged_fits or not final.converged:
        warnings.warn(
            f"cvr: {cv.unconverged_fits} of {len(eta_grid) * args.repeats} "
            "cross-validation fits did not converge, final fit converged: "
            f"{final.converged} (CVR_MAX_ITER sweeps ran out before the objective settled)"
        )
    risk = -cvr_predict(final, result.c1, result.c2)
    # the table-style aggregates, mean (sd) over the repeated held-out
    # splits; the rest of the record is the cross_validation section
    record = dict(vars(cv))
    # a repeat with no C-index is null, so the report stays strict JSON
    record["repeat_cindex"] = [None if np.isnan(c) else c for c in cv.repeat_cindex.tolist()]
    aggregates = {k: record.pop(k) for k in ("mse_mean", "mse_sd", "cindex_mean", "cindex_sd")}
    options = {"d": args.d, "eta_grid": list(eta_grid), "splits": args.splits,
               "repeats": args.repeats, "seed": args.seed, **_shared_options(args),
               "log_response": args.log_response,
               "risk_score": "negated linear predictor"}
    _write_framed(args.out, "cvr", options, {
        "subjects": ids,
        "aggregates": aggregates,
        "cross_validation": record,
        "full_fit": {
            "eta": final.eta,
            "alpha": final.alpha,
            "beta": final.beta,
            "weights_1": final.weights_1,
            "weights_2": final.weights_2,
            "converged": final.converged,
            "in_sample_cindex": concordance_index(risk, y),
        },
    }, ingest_meta)
    print(f"wrote {args.out}")
    print(
        f"MSE {cv.mse_mean:.4f} ({cv.mse_sd:.4f})  "
        f"C-index {cv.cindex_mean:.4f} ({cv.cindex_sd:.4f})  "
        f"eta* {cv.chosen_eta:g}"
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
        try:
            groups = [int(g) for g in args.groups.split(",")]
        except ValueError:
            raise ValidationError(f"bad --groups {args.groups!r}") from None
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
    _write_framed(os.path.join(args.out_dir, "truth.json"), "simulate",
                  {k: v for k, v in vars(args).items() if k != "func"},
                  {"outputs": [os.path.basename(p) for p in outputs], "truth": truth})
    print(f"wrote {len(outputs)} data files + truth.json to {args.out_dir}")


# ---------------------------------------------------------------------------
# argument parsing

def _add_paired_input_args(p):
    """Options of every command that reads two paired inputs (analyses, cvr)."""
    rank = p.add_mutually_exclusive_group()
    rank.add_argument("--rank", type=int, default=None, help="fixed FPCA rank")
    rank.add_argument(
        "--explained", type=float, default=None,
        help="pick the smallest rank explaining this variance fraction, in (0, 1]",
    )
    p.add_argument(
        "--tangent-mode", default="separate",
        choices=("separate", "pooled", "transport"),
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tfcca",
        description="Canonical correlation analysis for densities and shapes "
        "via tangent-space coordinates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    # each paired analysis: its name, help, and the flag and data kind of
    # input A and of input B
    for name, help_text, (flag_a, kind_a), (flag_b, kind_b) in (
        ("pdf-cca", "CCA between two paired density groups",
         ("--input-a", "pdf"), ("--input-b", "pdf")),
        ("shape-cca", "CCA between two paired curve groups",
         ("--input-a", "curve"), ("--input-b", "curve")),
        ("cross-cca", "CCA between densities and curves",
         ("--pdf-input", "pdf"), ("--shape-input", "curve")),
    ):
        p = sub.add_parser(name, help=help_text)
        dest_a = p.add_argument(flag_a, required=True).dest
        dest_b = p.add_argument(flag_b, required=True).dest
        _add_paired_input_args(p)
        p.add_argument("--ridge", type=float, default=0.0, help="CCA ridge stabilizer")
        p.add_argument(
            "--epsilons", default="-3,-2,-1,0,1,2,3",
            help="comma-separated geodesic step sizes for variate directions",
        )
        p.add_argument(
            "--directions", type=int, default=3,
            help="number of leading canonical directions to reconstruct",
        )
        p.add_argument("--emit-csv", default=None, metavar="DIR",
                       help="also write per-direction CSV function tables")
        p.set_defaults(func=functools.partial(_run_paired_analysis, kind_a, kind_b,
                                              dest_a, dest_b))

    p = sub.add_parser("cvr", help="canonical variate regression with CV over eta")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--response", required=True, help="CSV with id,response")
    p.add_argument("--log-response", action="store_true",
                   help="model the natural log of the response")
    p.add_argument("--d", type=int, required=True, help="number of variates")
    p.add_argument("--eta-grid", default=",".join(str(float(x)) for x in DEFAULT_ETA_GRID))
    p.add_argument("--splits", type=float, default=0.8,
                   help="training fraction per repeat")
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_paired_input_args(p)
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
    except (ValidationError, OSError) as exc:
        # unreadable inputs and unwritable outputs are input problems too
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except TfccaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an array too large to allocate, e.g. from a huge --grid
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
