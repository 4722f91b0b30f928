"""The benchmark's input generator builds its data with the public library
API (`pdf_tangent_coordinates` -> `fit_fpca` -> `eigenfunctions[i].v.values`,
`TangentVector`, `exp_map`, `srt_inverse`); a change to any of them must
fail here, not in a benchmark run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _gen_module():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generate_writes_every_workload_input(tmp_path):
    gen = _gen_module()
    expected = {"shape_high": {"group_a.jsonl", "group_b.jsonl", "truth.json"},
                "cvr_cv": {"group_a.csv", "group_b.csv", "response.csv", "truth.json"}}
    for workload, files in expected.items():
        out = tmp_path / workload
        truth = gen.generate(workload, 401, str(out))
        assert {p.name for p in out.iterdir()} == files
        assert json.loads((out / "truth.json").read_text()) == truth
        assert truth["subjects"] == gen.WORKLOADS[workload]["subjects"]
    header = (tmp_path / "cvr_cv" / "group_a.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == gen.CVR_N + 1
    assert len(truth["canonical_correlations"]) == gen.RANK
