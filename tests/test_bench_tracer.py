"""The benchmark's tracer binds library functions and argument names
(`register_batch(qs, rounds, rigid_candidates)`, ...); a rename must fail
here, not in a benchmark run."""

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
    regs = [s for s in spans if s["name"] == "shape.register_batch"]
    assert regs
    for span in regs:
        assert {"curves", "candidates", "rounds"} <= set(span["attrs"])
