"""Traced run of one CLI command, and the per-layer table of its spans.

    python3 bench/tracer.py SPANS_JSON COMMAND_ID TFCCA_ARG...

imports `tfcca`, wraps the functions named in SPANNED and COUNTED at every
module attribute that holds them (so each caller's own name lookup hits the
wrapper: `tfcca.cli.tangent_mode_pipeline`, `tfcca.shape.register_batch`,
`tfcca.density.karcher_mean`, `tfcca.cvr.cca`, ...), runs
`tfcca.cli.main(argv)` in-process under a root span `cli.main`, and writes the
spans and call counters to SPANS_JSON when the command ends. Spans are kept in
memory until then; the process exits with the command's exit code.

`layer_metrics` turns one such file into the per-layer table.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# functions that get a span, by the module that defines them
SPANNED = {
    "tfcca.fpca": ("tangent_mode_pipeline", "fit_fpca", "coefficients"),
    "tfcca.density": ("pdf_tangent_coordinates", "pdf_variate_direction"),
    "tfcca.sphere": ("karcher_mean",),
    "tfcca.shape": ("srvf", "shape_karcher_mean", "project_Pi",
                    "register_batch", "shape_variate_direction"),
    "tfcca.cca": ("cca",),
    "tfcca.cvr": ("cvr_cross_validate", "cvr_fit", "cvr_predict",
                  "concordance_index"),
    "tfcca.report": ("write_report",),
}
# hot small functions that only get a call counter
COUNTED = {"tfcca.numerics": ("inner_product",), "tfcca.sphere": ("log_map",)}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _attrs(name, fn, args, kwargs, result):
    """Work counters read off a call's arguments and result."""
    if name == "shape.register_batch":
        a = _bound(fn, args, kwargs)
        return {"curves": len(a["qs"]), "candidates": max(1, a["rigid_candidates"]),
                "rounds": a["rounds"], "costs": [reg.cost for reg, _ in result]}
    if name == "sphere.karcher_mean":
        return {"iterations": result.iterations}
    if name == "cvr.cvr_fit":
        return {"iterations": len(result.objective_trace) - 1,
                "converged": bool(result.converged)}
    if name == "fpca.fit_fpca":
        return {"n": len(_bound(fn, args, kwargs)["tangents"])}
    if name == "report.write_report":
        return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}
    return None


class Recorder:
    """In-memory spans (id, name, start, end, parent id, command id)."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans = []
        self.counts = {}
        self._stack = []

    def open(self, name):
        span = {"id": len(self.spans), "name": name, "command": self.command_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            attrs = _attrs(name, fn, args, kwargs, result)
            if attrs is not None:
                span["attrs"] = attrs
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Rebind every tfcca module attribute that holds a target."""
        mods = [m for k, m in sys.modules.items() if k == "tfcca" or k.startswith("tfcca.")]
        for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for mod_name, funcs in table.items():
                for func in funcs:
                    orig = getattr(sys.modules[mod_name], func)
                    wrapper = make(f"{mod_name.split('.')[1]}.{func}", orig)
                    for mod in mods:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)


def traced_main(out_path, command_id, argv):
    import tfcca.cli

    rec = Recorder(command_id)
    rec.install()
    root = rec.open("cli.main")
    try:
        code = tfcca.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        rec.close(root)
    with open(out_path, "w") as fh:
        json.dump({"command": command_id, "exit_code": code, "spans": rec.spans,
                   "counts": rec.counts}, fh)
    return code


# ---------------------------------------------------------------------------
# per-layer table

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def layer_metrics(trace: dict) -> dict:
    """Per-layer times (s) and work counters of one traced command."""
    spans = trace["spans"]
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    root = next(s for s in spans if s["name"] == "cli.main")

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s, extra=()):
        return dur(s) - _covered([(c["start"], c["end"]) for c in kids.get(s["id"], [])] + list(extra))

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in named(name))

    def inside(s, name):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"] == name:
                return True
        return False

    pipelines = named("fpca.tangent_mode_pipeline")
    # ingest: argument parsing, file reading and id pairing, up to the
    # first pipeline call; it is cli's own work, so it counts as covered
    ingest = (root["start"], pipelines[0]["start"] if pipelines else root["end"])
    root_self = self_time(root, [ingest])

    regs = named("shape.register_batch")
    alignments = sum(
        r["attrs"]["curves"] * (r["attrs"]["candidates"] + r["attrs"]["rounds"] - 1)
        for r in regs
    )
    pi_costs = [c for r in regs if spans[r["parent"]]["name"] == "shape.project_Pi"
                for c in r["attrs"]["costs"]]
    fits = named("cvr.cvr_fit")
    reg_s = total("shape.register_batch")
    return {
        "cli.ingest_s": ingest[1] - ingest[0],
        "cli.self_s": root_self,
        "report.write_s": total("report.write_report"),
        "report.bytes": attr_sum("report.write_report", "bytes"),
        "numerics.inner_product_calls": trace["counts"]["numerics.inner_product"],
        "sphere.karcher_mean_s": total("sphere.karcher_mean"),
        "sphere.karcher_iterations": attr_sum("sphere.karcher_mean", "iterations"),
        "sphere.log_map_calls": trace["counts"]["sphere.log_map"],
        "density.tangent_coordinates_self_s": sum(
            self_time(s) for s in named("density.pdf_tangent_coordinates")),
        "density.variate_direction_s": total("density.pdf_variate_direction"),
        "shape.srvf_s": total("shape.srvf"),
        "shape.variate_direction_s": total("shape.shape_variate_direction"),
        "shape.karcher_mean_s": total("shape.shape_karcher_mean"),
        "shape.karcher_register_passes": sum(
            inside(r, "shape.shape_karcher_mean") for r in regs),
        "shape.project_pi_s": total("shape.project_Pi"),
        "shape.register_batch_s": reg_s,
        "shape.register_calls": len(regs),
        "shape.curve_alignments": alignments,
        "shape.s_per_alignment": reg_s / alignments if alignments else 0.0,
        "shape.registration_cost_mean": sum(pi_costs) / len(pi_costs) if pi_costs else 0.0,
        "fpca.fit_s": total("fpca.fit_fpca"),
        "fpca.gram_n": max((s["attrs"]["n"] for s in named("fpca.fit_fpca")), default=0),
        "fpca.coefficients_s": total("fpca.coefficients"),
        "fpca.pipeline_self_s": sum(self_time(s) for s in pipelines),
        "cca.calls": len(named("cca.cca")),
        "cca.cca_s": total("cca.cca"),
        "cvr.fit_calls": len(fits),
        "cvr.fit_s": total("cvr.cvr_fit"),
        "cvr.fit_iterations": attr_sum("cvr.cvr_fit", "iterations"),
        "cvr.fit_converged_ratio": (
            sum(s["attrs"]["converged"] for s in fits) / len(fits) if fits else 0.0),
        "cvr.cross_validate_self_s": sum(
            self_time(s) for s in named("cvr.cvr_cross_validate")),
        "trace.coverage": 1.0 - root_self / dur(root),
    }


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2], sys.argv[3:]))
