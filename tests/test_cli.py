import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tfcca.cli import main
from tfcca.report import load_report, validate_report
from tfcca.errors import ValidationError


def run_cli(args):
    return main(list(args))


@pytest.fixture(scope="module")
def pdf_dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("pdfsim")
    code = run_cli([
        "simulate", "pdf", "--groups", "1,2", "--n", "14", "--seed", "5",
        "--grid", "300", "--out-dir", str(base),
    ])
    assert code == 0
    return base


@pytest.fixture(scope="module")
def shape_dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("shapesim")
    code = run_cli([
        "simulate", "shape", "--regime", "high", "--n", "10", "--seed", "2",
        "--curve-grid", "96", "--out-dir", str(base),
    ])
    assert code == 0
    return base


class TestSimulate:
    def test_pdf_outputs(self, pdf_dataset):
        assert (pdf_dataset / "group_a.csv").exists()
        assert (pdf_dataset / "group_b.csv").exists()
        truth = load_report(str(pdf_dataset / "truth.json"))
        assert truth["command"] == "simulate"

    def test_shape_outputs(self, shape_dataset):
        truth = load_report(str(shape_dataset / "truth.json"))
        assert truth["truth"]["latent_correlation"] >= 0.99
        with open(shape_dataset / "group_a.jsonl") as fh:
            rec = json.loads(fh.readline())
        assert "points" in rec and "id" in rec


class TestPdfCca:
    def test_identical_inputs_give_unit_correlations(self, pdf_dataset, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli([
            "pdf-cca",
            "--input-a", str(pdf_dataset / "group_a.csv"),
            "--input-b", str(pdf_dataset / "group_a.csv"),
            "--rank", "2", "--grid", "300", "--out", str(out),
        ])
        assert code == 0
        rep = load_report(str(out))
        np.testing.assert_allclose(rep["correlations"], 1.0, atol=1e-6)

    def test_report_round_trips(self, pdf_dataset, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli([
            "pdf-cca",
            "--input-a", str(pdf_dataset / "group_a.csv"),
            "--input-b", str(pdf_dataset / "group_b.csv"),
            "--rank", "2", "--grid", "300", "--out", str(out),
        ]) == 0
        rep = load_report(str(out))
        validate_report(rep)
        with open(out) as fh:
            again = json.load(fh)
        assert rep == again

    def test_zero_epsilon_directions_equal_mean(self, pdf_dataset, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli([
            "pdf-cca",
            "--input-a", str(pdf_dataset / "group_a.csv"),
            "--input-b", str(pdf_dataset / "group_b.csv"),
            "--rank", "2", "--grid", "300", "--epsilons", "0",
            "--out", str(out),
        ]) == 0
        rep = load_report(str(out))
        entries = rep["variate_directions"]["group_a"]
        base = np.array(entries[0]["values"])
        for e in entries[1:]:
            np.testing.assert_allclose(np.array(e["values"]), base, atol=1e-10)

    def test_emit_csv(self, pdf_dataset, tmp_path):
        out = tmp_path / "rep.json"
        csvdir = tmp_path / "dirs"
        assert run_cli([
            "pdf-cca",
            "--input-a", str(pdf_dataset / "group_a.csv"),
            "--input-b", str(pdf_dataset / "group_b.csv"),
            "--rank", "2", "--grid", "300",
            "--out", str(out), "--emit-csv", str(csvdir),
        ]) == 0
        files = sorted(os.listdir(csvdir))
        assert "group_a_variate1.csv" in files

    def test_mismatched_ids_exit_2(self, pdf_dataset, tmp_path):
        bad = tmp_path / "bad.csv"
        text = (pdf_dataset / "group_b.csv").read_text().splitlines()
        header = text[0].split(",")
        header[1] = "mystery"
        bad.write_text(",".join(header) + "\n" + "\n".join(text[1:]) + "\n")
        code = run_cli([
            "pdf-cca", "--input-a", str(pdf_dataset / "group_a.csv"),
            "--input-b", str(bad), "--rank", "2", "--grid", "300",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2


class TestShapeCca:
    def test_runs_and_directions_closed(self, shape_dataset, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli([
            "shape-cca",
            "--input-a", str(shape_dataset / "group_a.jsonl"),
            "--input-b", str(shape_dataset / "group_b.jsonl"),
            "--rank", "2", "--curve-grid", "96",
            "--epsilons=-1,0,1", "--directions", "1",
            "--out", str(out),
        ])
        assert code == 0
        rep = load_report(str(out))
        assert len(rep["correlations"]) == 2
        entry = rep["variate_directions"]["group_a"][0]
        vals = np.array(entry["values"])
        assert vals.shape == (96, 2)
        np.testing.assert_allclose(vals[0], vals[-1], atol=1e-9)


class TestCrossCca:
    def test_mixed_kinds(self, pdf_dataset, shape_dataset, tmp_path):
        # rebuild the shape ids to match the pdf ids (both s0000...)
        out = tmp_path / "rep.json"
        code = run_cli([
            "cross-cca",
            "--pdf-input", str(pdf_dataset / "group_a.csv"),
            "--shape-input", str(shape_dataset / "group_a.jsonl"),
            "--rank", "2", "--grid", "300", "--curve-grid", "96",
            "--directions", "1", "--out", str(out),
        ])
        # 14 pdf subjects vs 10 curve subjects -> id mismatch is an error
        assert code == 2

    def test_forced_separate_mode(self, pdf_dataset, shape_dataset, tmp_path):
        code = run_cli([
            "cross-cca",
            "--pdf-input", str(pdf_dataset / "group_a.csv"),
            "--shape-input", str(shape_dataset / "group_a.jsonl"),
            "--tangent-mode", "pooled", "--rank", "2",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_cross_cca_works_on_matched_ids(self, tmp_path):
        base = tmp_path / "sim"
        assert run_cli([
            "simulate", "pdf", "--groups", "1,2", "--n", "10", "--seed", "5",
            "--grid", "300", "--out-dir", str(base),
        ]) == 0
        assert run_cli([
            "simulate", "shape", "--regime", "high", "--n", "10", "--seed", "2",
            "--curve-grid", "96", "--out-dir", str(base / "sh"),
        ]) == 0
        out = tmp_path / "rep.json"
        code = run_cli([
            "cross-cca",
            "--pdf-input", str(base / "group_a.csv"),
            "--shape-input", str(base / "sh" / "group_a.jsonl"),
            "--rank", "2", "--grid", "300", "--curve-grid", "96",
            "--directions", "1", "--out", str(out),
        ])
        assert code == 0
        rep = load_report(str(out))
        assert rep["mode"] == "separate"
        # one side densities, the other curves
        a0 = rep["variate_directions"]["group_a"][0]["values"]
        b0 = rep["variate_directions"]["group_b"][0]["values"]
        assert not isinstance(a0[0], list)
        assert isinstance(b0[0], list)


class TestCvrCommand:
    def test_cvr_runs(self, pdf_dataset, tmp_path):
        ids = [f"s{i:04d}" for i in range(14)]
        rng = np.random.default_rng(0)
        resp = tmp_path / "resp.csv"
        resp.write_text(
            "id,months\n"
            + "\n".join(f"{s},{v:.6f}" for s, v in zip(ids, rng.uniform(5, 60, 14)))
            + "\n"
        )
        out = tmp_path / "cvr.json"
        code = run_cli([
            "cvr",
            "--input-a", str(pdf_dataset / "group_a.csv"),
            "--input-b", str(pdf_dataset / "group_b.csv"),
            "--response", str(resp), "--log-response",
            "--d", "1", "--rank", "2", "--grid", "300",
            "--eta-grid", "0,0.5,1.0", "--repeats", "4", "--splits", "0.7",
            "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        rep = load_report(str(out))
        assert rep["aggregates"]["mse_mean"] >= 0
        assert 0 <= rep["aggregates"]["cindex_mean"] <= 1
        assert rep["cross_validation"]["chosen_eta"] in (0.0, 0.5, 1.0)


class TestDeterminism:
    def test_repeated_runs_bitwise_identical(self, pdf_dataset, tmp_path):
        reports = []
        for k in (1, 2):
            out = tmp_path / f"rep{k}.json"
            assert run_cli([
                "pdf-cca",
                "--input-a", str(pdf_dataset / "group_a.csv"),
                "--input-b", str(pdf_dataset / "group_b.csv"),
                "--rank", "2", "--grid", "300", "--out", str(out),
            ]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_across_thread_settings_subprocess(self, pdf_dataset, tmp_path):
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"rep_t{threads}.json"
            env = dict(os.environ, TFCCA_NUM_THREADS=threads)
            env.pop("OPENBLAS_NUM_THREADS", None)
            env.pop("OMP_NUM_THREADS", None)
            proc = subprocess.run(
                [sys.executable, "-m", "tfcca", "pdf-cca",
                 "--input-a", str(pdf_dataset / "group_a.csv"),
                 "--input-b", str(pdf_dataset / "group_b.csv"),
                 "--rank", "2", "--grid", "300", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


def _response_text(rows):
    return "id,months\n" + "\n".join(rows) + "\n"


GOOD_RESPONSE = [f"s{i:04d},{10 + i}" for i in range(14)]

# (case, files to write, argv); "{data}" is the simulated pdf dataset and
# "{tmp}" the test's scratch directory
MALFORMED = [
    ("missing input file", {},
     ["pdf-cca", "--input-a", "{tmp}/absent.csv", "--input-b", "{tmp}/absent.csv",
      "--out", "{tmp}/r.json"]),
    ("non-numeric response", {"resp.csv": GOOD_RESPONSE[:-1] + ["s0013,soon"]},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--out", "{tmp}/r.json"]),
    ("response row with only an id", {"resp.csv": GOOD_RESPONSE[:-1] + ["s0013"]},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--out", "{tmp}/r.json"]),
    ("samples not a list", {"s.jsonl": ['{"id": "a", "samples": 5}']},
     ["pdf-cca", "--input-a", "{tmp}/s.jsonl", "--input-b", "{tmp}/s.jsonl",
      "--out", "{tmp}/r.json"]),
    ("record not an object", {"s.jsonl": ["5"]},
     ["pdf-cca", "--input-a", "{tmp}/s.jsonl", "--input-b", "{tmp}/s.jsonl",
      "--out", "{tmp}/r.json"]),
    ("non-numeric curve point",
     {"c.jsonl": ['{"id": "a", "points": [[0, 0], [1, "x"], [0, 1]]}']},
     ["shape-cca", "--input-a", "{tmp}/c.jsonl", "--input-b", "{tmp}/c.jsonl",
      "--out", "{tmp}/r.json"]),
    ("zero cvr repeats", {"resp.csv": GOOD_RESPONSE},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--repeats", "0", "--out", "{tmp}/r.json"]),
    # a directory cannot be made under a regular file, even by root
    ("unwritable output", {"file": []},
     ["pdf-cca", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--rank", "2", "--grid", "300", "--out", "{tmp}/file/r.json"]),
]


@pytest.mark.parametrize("case,files,argv", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_input_exits_2_with_reason(case, files, argv, pdf_dataset,
                                             tmp_path, capsys):
    for name, lines in files.items():
        text = _response_text(lines) if name.endswith(".csv") else "\n".join(lines)
        (tmp_path / name).write_text(text)
    argv = [a.format(data=pdf_dataset, tmp=tmp_path) for a in argv]
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2, case
    assert err.startswith("error: validation: "), err
    assert err.count("\n") == 1, err
