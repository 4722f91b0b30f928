"""The benchmark's tracer binds library functions and argument names
(`register_batch(qs, rounds, rigid_candidates)`, ...) and rebinds module
attributes; a rename, or a caller that bypasses a rebound attribute, must
fail here, not in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tfcca.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_records_registration_attributes(tmp_path):
    assert main([
        "simulate", "shape", "--regime", "high", "--n", "6", "--seed", "3",
        "--curve-grid", "60", "--out-dir", str(tmp_path),
    ]) == 0
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans_path), "c0",
         "shape-cca", "--input-a", str(tmp_path / "group_a.jsonl"),
         "--input-b", str(tmp_path / "group_b.jsonl"), "--rank", "3",
         "--curve-grid", "60", "--out", str(tmp_path / "rep.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    names = {s["name"] for s in spans}
    assert {"shape.srvf", "shape.shape_karcher_mean", "shape.project_Pi"} <= names
    regs = [s for s in spans if s["name"] == "shape.register_batch"]
    assert regs
    for span in regs:
        assert {"curves", "candidates", "rounds"} <= set(span["attrs"])
    # the mean and the projection reach registration through the module
    # attribute the tracer rebinds, so their passes are counted
    parents = {spans[s["parent"]]["name"] for s in regs}
    assert {"shape.shape_karcher_mean", "shape.project_Pi"} <= parents
    # fpca.gram_n reads len(tangents): the subject count of each group
    fits = [s for s in spans if s["name"] == "fpca.fit_fpca"]
    assert fits
    assert all(s["attrs"]["n"] == 6 for s in fits)
