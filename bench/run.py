"""Benchmark of the tfcca CLI pipelines, end to end and per layer.

    python3 bench/run.py --workload shape_high|pdf_wide|cvr_cv \
        --seed N --seconds S --trace 0|1

BENCHMARK.json lists shape_high and cvr_cv only. pdf_wide (large-n density
ingest, sphere Karcher mean and FPCA) runs the same way but is left out of
the list: on a shared 2-vCPU host, three workloads leave too little time per
run for medians that stay within the bounds.

Run from the root of a source checkout: the program is `src/tfcca`, run
from source with PYTHONPATH=src (nothing is built). The run

1. generates the workload's input sets from the seed (`bench/gen.py`,
   untimed);
2. records the environment: CPU count and model, Python, numpy and BLAS
   versions, and the thread variables as a child reads them back after
   `import tfcca`;
3. with --trace 0, times SETUP_SAMPLES fresh interpreters up to the moment
   `tfcca.cli` is imported (`setup_s`);
4. runs the workload's CLI command in a closed loop, one child process at a
   time with the caller's thread variables removed, cycling over the input
   sets and starting commands until --seconds have passed. With --trace 1
   each set is run twice in a row, the second time in-process under
   `bench/tracer.py`, which gives the per-layer table; the untraced runs
   give the wall time the tracing overhead is measured against;
5. checks every command's exit code and report (`bench/checks.py`).

It prints the environment, a table of every metric with its unit, and as its
last line one JSON object: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Timings are medians over
the run's commands. Scratch files go to `.bench_work/` at the root; the
spans and per-command records of a run stay in `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "TFCCA_NUM_THREADS")
SETUP_SAMPLES = 7

ENV_PROBE = """
import json, os, platform, tfcca, numpy
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
print(json.dumps({
    "tfcca_file": tfcca.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas['name']} {blas['version']}",
    "thread_vars": {v: os.environ.get(v) for v in %r},
}))
""" % (THREAD_VARS,)
SETUP_PROBE = "import time, tfcca.cli; print(repr(time.monotonic()))"


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, cwd, log_path):
    """Run one child to completion; (exit code, wall s, peak RSS MB)."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment(cwd):
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=cwd,
                           env=child_env(), capture_output=True, text=True,
                           check=True)
    env = json.loads(probe.stdout)
    if not os.path.abspath(env["tfcca_file"]).startswith(SRC + os.sep):
        raise SystemExit(f"error: tfcca imported from {env['tfcca_file']}, not {SRC}")
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "machine": platform.machine(), **env}


def setup_seconds(cwd):
    """Fresh interpreter until tfcca.cli is imported, as a user pays it."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=cwd,
                         env=child_env(), capture_output=True, text=True,
                         check=True)
    return float(out.stdout) - start


def run_command(ctx, index, traced_mode):
    from checks import check_command
    from tracer import layer_metrics

    cmd_id = f"{ctx['workload']}-{ctx['seed']}-{index}"
    inputs = ctx["sets"][(index // (1 + traced_mode)) % len(ctx["sets"])]
    report = os.path.join(ctx["out"], f"{index}.json")
    spans = os.path.join(ctx["out"], f"{index}.spans.json")
    argv = ctx["argv"] + ["--out", report]
    traced = bool(traced_mode) and index % 2 == 1
    if traced:
        argv = [sys.executable, os.path.join(BENCH, "tracer.py"), spans, cmd_id] + argv
    else:
        argv = [sys.executable, "-m", "tfcca"] + argv
    code, wall, rss = run_child(argv, inputs, os.path.join(ctx["out"], f"{index}.log"))
    with open(os.path.join(inputs, "truth.json")) as fh:
        check = check_command(json.load(fh), code, report)
    rec = {"id": cmd_id, "set": os.path.basename(inputs), "traced": traced,
           "exit_code": code, "wall_s": wall,
           "peak_rss_mb": rss, "problems": check.problems,
           "rho_err": check.rho_err, "cv_mse": check.cv_mse}
    if traced and code == 0:
        with open(spans) as fh:
            rec["trace"] = json.load(fh)
        rec["layers"] = layer_metrics(rec["trace"])
    return rec


def median_or_zero(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def summarize(ctx, records, setup, trace):
    plain = [r for r in records if not r["traced"]]
    failed = sum(bool(r["problems"]) for r in records)
    quality = {
        "check.failed_frac": failed / len(records),
        "check.rho_err": median_or_zero(r["rho_err"] for r in records),
        "check.cv_mse": median_or_zero(r["cv_mse"] for r in records),
    }
    wall = statistics.median(r["wall_s"] for r in plain)
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "subjects_per_s": ctx["subjects"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        return metrics, quality, failed
    # each traced command follows the untraced command on the same input set
    pairs = [(records[i - 1], r) for i, r in enumerate(records)
             if r["traced"] and "layers" in r]
    metrics = {}
    if pairs:
        for name in pairs[0][1]["layers"]:
            # median_low: a count stays a count some command really made
            metrics[name] = statistics.median_low(t["layers"][name] for _, t in pairs)
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in pairs)
    metrics.update(quality)
    return metrics, quality, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tfcca", "__init__.py")):
        print(f"error: no program sources at {SRC}/tfcca", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path[:0] = [SRC, BENCH]
    from gen import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(WORK, f"{tag}-{os.getpid()}")
    ctx = {"workload": args.workload, "seed": args.seed,
           "argv": WORKLOADS[args.workload]["argv"],
           "subjects": WORKLOADS[args.workload]["subjects"],
           "out": os.path.join(scratch, "out")}
    os.makedirs(ctx["out"])
    try:
        code, _, _ = run_child(
            [sys.executable, os.path.join(BENCH, "gen.py"), args.workload,
             str(args.seed), scratch], scratch, os.path.join(scratch, "gen.log"))
        if code != 0:
            with open(os.path.join(scratch, "gen.log")) as fh:
                sys.stderr.write(fh.read())
            print(f"error: input generation failed ({code})", file=sys.stderr)
            return 2
        ctx["sets"] = sorted(
            (os.path.join(scratch, d) for d in os.listdir(scratch) if d.startswith("set")),
            key=lambda d: int(os.path.basename(d)[3:]))
        env = environment(scratch)
        print("env " + json.dumps(env, sort_keys=True))

        setup = []
        if not args.trace:
            setup_seconds(scratch)  # warm-up: byte-compiles a fresh checkout
            setup = [setup_seconds(scratch) for _ in range(SETUP_SAMPLES)]

        records = []
        deadline = time.perf_counter() + args.seconds
        while len(records) < 1 + args.trace or time.perf_counter() < deadline:
            records.append(run_command(ctx, len(records), args.trace))
        metrics, quality, failed = summarize(ctx, records, setup, args.trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for r in records:
        status = "ok" if not r["problems"] else "FAILED " + "; ".join(r["problems"])
        print(f"command {r['id']}{' traced' if r['traced'] else ''}: "
              f"{r['wall_s']:.3f} s, {r['peak_rss_mb']:.1f} MB, {status}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in {**metrics, **quality}.items():
        print(f"  {name:38s} {value:<24.10g} {units[name]}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    last_trace = next((r.pop("trace") for r in reversed(records) if "trace" in r), None)
    for r in records:
        r.pop("trace", None)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env, "setup_s": setup,
                   "commands": records, "metrics": metrics,
                   "trace": last_trace}, fh)

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
