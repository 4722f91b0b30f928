"""Write every output a no-output-change claim compares, into one directory.

    python3 tools/outputs.py OUT_DIR

Runs the code of the source tree that holds this file (its `src/` and
`bench/gen.py`), so two trees give comparable directories: run the script
from each (copy it into a tree that lacks it) and compare the results with
`diff -r`. OUT_DIR must not exist. It receives

- `gen/WORKLOAD/setK/`: the seed-401 input sets of `bench/gen.py` for
  `shape_high` and `cvr_cv`, their `truth.json`, and `report.json`, the
  workload's `argv` run in a fresh `python -m tfcca` child;
- `simulate/pdf/` and `simulate/shape/`: 20 paired subjects from
  `tfcca simulate`, with both `truth.json` sidecars;
- `pdf-cca/`: `pdf-cca` on the simulated densities, with `--emit-csv`;
- `shape-cca/LAYOUT.json`: `shape-cca` on the simulated curves in each of
  the three tangent layouts;
- `cross-cca/report.json`: `cross-cca` on the 20 matched subjects;
- `protocols.txt`: the `repr` of acceptance criterion 1's 30 and criterion
  2's 6 recovery results, each after the arguments the acceptance suite
  passes.

Every child runs inside OUT_DIR on relative paths, so no report records
where OUT_DIR is.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import tfcca  # noqa: E402  (before numpy, so the BLAS pin holds here too)
import numpy as np  # noqa: E402

GEN_SEED = 401
GEN_WORKLOADS = ("shape_high", "cvr_cv")
SIM_N = 20
SIM_ARGS = {
    "pdf": ["--grid", "300", "--seed", "7"],
    "shape": ["--curve-grid", "100", "--seed", "7"],
}
LAYOUTS = ("separate", "pooled", "transport")


def _tfcca(argv, cwd):
    """Run `python -m tfcca argv` in a fresh child inside cwd."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "tfcca", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"tfcca {' '.join(argv)} (in {cwd}) exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")


def _load_gen():
    """bench/gen.py as a module, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", os.path.join(ROOT, "bench", "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_gen_reports(out_dir):
    gen = _load_gen()
    for workload in GEN_WORKLOADS:
        for set_dir in gen.generate_sets(workload, GEN_SEED,
                                         os.path.join(out_dir, "gen", workload)):
            _tfcca(gen.WORKLOADS[workload]["argv"] + ["--out", "report.json"], set_dir)


def write_cli_reports(out_dir):
    for what, args in SIM_ARGS.items():
        _tfcca(["simulate", what, "--n", str(SIM_N), *args,
                "--out-dir", os.path.join("simulate", what)], out_dir)
    pdf_a, pdf_b = (os.path.join("simulate", "pdf", f"group_{t}.csv") for t in "ab")
    shape_a, shape_b = (os.path.join("simulate", "shape", f"group_{t}.jsonl")
                        for t in "ab")
    _tfcca(["pdf-cca", "--input-a", pdf_a, "--input-b", pdf_b, "--rank", "3",
            "--grid", "300", "--emit-csv", os.path.join("pdf-cca", "csv"),
            "--out", os.path.join("pdf-cca", "report.json")], out_dir)
    for layout in LAYOUTS:
        _tfcca(["shape-cca", "--input-a", shape_a, "--input-b", shape_b,
                "--rank", "3", "--curve-grid", "100", "--tangent-mode", layout,
                "--out", os.path.join("shape-cca", f"{layout}.json")], out_dir)
    _tfcca(["cross-cca", "--pdf-input", pdf_a, "--shape-input", shape_a,
            "--rank", "3", "--grid", "300", "--curve-grid", "100",
            "--out", os.path.join("cross-cca", "report.json")], out_dir)


def write_protocols(out_dir):
    """Criteria 1 and 2 of tests/test_acceptance.py, called as it calls them."""
    lines = []
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        for groups, r in (((1, 2), 2), ((1, 3), 3), ((2, 3), 4)):
            for seed in range(1, 6):
                for mode in ("separate", "pooled"):
                    res = tfcca.recovery_protocol_pdf(r, mode, seed, groups=groups)
                    lines.append(f"recovery_protocol_pdf({r!r}, {mode!r}, {seed!r}, "
                                 f"groups={groups!r}) = {res!r}")
        for seed in (1, 2, 3):
            for regime in ("high", "weak"):
                res = tfcca.recovery_protocol_shape(regime, rng_seed=seed)
                lines.append(f"recovery_protocol_shape({regime!r}, rng_seed={seed!r}) "
                             f"= {res!r}")
    with open(os.path.join(out_dir, "protocols.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: python3 tools/outputs.py OUT_DIR")
    out_dir = argv[0]
    os.makedirs(out_dir)
    write_gen_reports(out_dir)
    write_cli_reports(out_dir)
    write_protocols(out_dir)
    print(f"wrote {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1:])
