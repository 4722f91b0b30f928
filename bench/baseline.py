"""Collect one trajectory point from the recorded benchmark runs.

    python3 bench/baseline.py COMMIT OUT_JSON

reads every run record in `.bench_work/results/` (one per workload, seed and
trace setting, written by `bench/run.py`) and writes to OUT_JSON, per
workload: the median and quartiles over runs of each end-to-end metric, the
median over traced runs of each per-layer metric, the share of the `cli.main`
span each module and spanned function covers (from the spans a traced run
keeps), the run counts, and the environment the runs reported.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from tracer import _covered as covered

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _transpose(dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out.setdefault(k, []).append(v)
    return out


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def shares(spans) -> dict:
    """Share of the cli.main span covered by the spans of each module
    (`shape`) and of each spanned function (`shape.register_batch`)."""
    root = next(s for s in spans if s["name"] == "cli.main")
    names = {s["name"] for s in spans} - {"cli.main"}
    keys = sorted(names | {n.split(".")[0] for n in names})
    return {k: covered([(s["start"], s["end"]) for s in spans
                        if s["name"] == k or s["name"].startswith(k + ".")])
            / (root["end"] - root["start"]) for k in keys}


def collect(commit: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    point = {"commit": commit, "workloads": {}}
    for w in spec["workloads"]:
        runs = []
        for path in sorted(glob.glob(os.path.join(ROOT, ".bench_work", "results",
                                                  f"{w['name']}-seed*-trace*.json"))):
            with open(path) as fh:
                runs.append(json.load(fh))
        plain = [r for r in runs if "setup_s" in r["metrics"]]
        traced = [r for r in runs if "trace.coverage" in r["metrics"]]
        if not plain or not traced:
            raise SystemExit(f"error: {w['name']} needs runs with --trace 0 and 1")
        # where tfcca was imported from is a property of the checkout
        point["env"] = {k: v for k, v in runs[-1]["env"].items() if k != "tfcca_file"}
        point["workloads"][w["name"]] = {
            "seconds": plain[0]["seconds"],
            "seeds": sorted({r["seed"] for r in plain}),
            "commands": sum(len(r["commands"]) for r in runs),
            "failed_commands": sum(bool(c["problems"]) for r in runs for c in r["commands"]),
            "end_to_end": {
                m["name"]: dict(_stats([r["metrics"][m["name"]] for r in plain]),
                                unit=m["unit"])
                for m in spec["end_to_end"]
            },
            "per_layer": {
                m["name"]: {"median": statistics.median_low(r["metrics"][m["name"]] for r in traced),
                            "unit": m["unit"], "runs": len(traced)}
                for m in spec["per_layer"]
            },
            "share_of_cli_main": {
                k: statistics.median(v)
                for k, v in _transpose([shares(r["trace"]["spans"]) for r in traced]).items()
            },
        }
    return point


if __name__ == "__main__":
    with open(sys.argv[2], "w") as fh:
        json.dump(collect(sys.argv[1]), fh, indent=1)
        fh.write("\n")
