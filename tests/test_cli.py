import csv
import json
import os
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfcca.cli
import tfcca.cvr
from tfcca.cli import main
from tfcca.report import load_report, validate_report
from tfcca.errors import ValidationError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    def test_emit_csv_planar(self, shape_dataset, tmp_path):
        out = tmp_path / "rep.json"
        csvdir = tmp_path / "dirs"
        assert run_cli([
            "shape-cca",
            "--input-a", str(shape_dataset / "group_a.jsonl"),
            "--input-b", str(shape_dataset / "group_b.jsonl"),
            "--rank", "2", "--curve-grid", "96", "--epsilons=1,-1,0",
            "--directions", "1", "--out", str(out), "--emit-csv", str(csvdir),
        ]) == 0
        rep = load_report(str(out))
        assert sorted(os.listdir(csvdir)) == ["group_a_variate1.csv",
                                              "group_b_variate1.csv"]
        for side in ("group_a", "group_b"):
            with open(csvdir / f"{side}_variate1.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["t", "eps-1_x", "eps-1_y", "eps0_x", "eps0_y",
                               "eps1_x", "eps1_y"]
            assert len(rows) == 1 + 96
            entries = sorted(rep["variate_directions"][side], key=lambda e: e["epsilon"])
            for i, row in enumerate(rows[1:]):
                assert float(row[0]) == pytest.approx(i / 95, abs=1e-10)
                cells = [float(x) for x in row[1:]]
                assert cells == [v for e in entries for v in e["values"][i]]

    def test_four_point_curve_grid(self, shape_dataset, tmp_path):
        # three distinct samples: every smoothing width is wider than the grid
        assert run_cli([
            "shape-cca",
            "--input-a", str(shape_dataset / "group_a.jsonl"),
            "--input-b", str(shape_dataset / "group_b.jsonl"),
            "--rank", "2", "--curve-grid", "4", "--out", str(tmp_path / "rep.json"),
        ]) == 0


class TestCrossCca:
    def test_mixed_kinds(self, matched, tmp_path):
        # cvr infers each input's kind from its file: densities from the
        # CSV as input A, curves from the JSON-lines records as input B;
        # distinct responses, so every held-out pair is comparable
        resp = tmp_path / "resp.csv"
        resp.write_text("id,months\n" + "".join(f"s{i:04d},{10 + i}\n" for i in range(10)))
        out = tmp_path / "cvr.json"
        code = run_cli([
            "cvr", "--input-a", str(matched / "group_a.csv"),
            "--input-b", str(matched / "sh" / "group_a.jsonl"),
            "--response", str(resp), "--d", "1", "--rank", "2", "--grid", "300",
            "--curve-grid", "96", "--repeats", "4", "--out", str(out),
        ])
        assert code == 0
        ingestion = load_report(str(out))["metadata"]["ingestion"]
        assert ingestion["input_a"]["format"] == "csv"
        assert ingestion["input_b"]["format"] == "jsonl-curves"

    @pytest.fixture(scope="class")
    def matched(self, tmp_path_factory):
        """Ten densities and ten curves with the same ids."""
        base = tmp_path_factory.mktemp("cross")
        assert run_cli([
            "simulate", "pdf", "--groups", "1,2", "--n", "10", "--seed", "5",
            "--grid", "300", "--out-dir", str(base),
        ]) == 0
        assert run_cli([
            "simulate", "shape", "--regime", "high", "--n", "10", "--seed", "2",
            "--curve-grid", "96", "--out-dir", str(base / "sh"),
        ]) == 0
        return base

    def test_forced_separate_mode(self, matched, tmp_path, capsys):
        # the ids match, so only the layout rule can stop the run
        for mode in ("pooled", "transport"):
            code = run_cli([
                "cross-cca",
                "--pdf-input", str(matched / "group_a.csv"),
                "--shape-input", str(matched / "sh" / "group_a.jsonl"),
                "--tangent-mode", mode, "--rank", "2", "--grid", "300",
                "--curve-grid", "96", "--out", str(tmp_path / "r.json"),
            ])
            err = capsys.readouterr().err
            assert code == 2, mode
            assert err.startswith("error: validation: ") and err.count("\n") == 1, err
            assert "separate" in err, err

    def test_cross_cca_works_on_matched_ids(self, matched, tmp_path):
        base = matched
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

    def test_each_jsonl_input_parsed_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        ids = [f"s{i:04d}" for i in range(14)]
        for tag in ("a", "b"):
            (tmp_path / f"{tag}.jsonl").write_text("".join(
                json.dumps({"id": s, "samples": rng.normal(size=40).tolist()}) + "\n"
                for s in ids))
        (tmp_path / "resp.csv").write_text(
            "id,months\n" + "".join(f"{s},{10 + i}\n" for i, s in enumerate(ids)))
        calls = []
        loads = tfcca.cli.json.loads

        def counted(text, *args, **kwargs):
            calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(tfcca.cli.json, "loads", counted)
        assert run_cli([
            "cvr", "--input-a", str(tmp_path / "a.jsonl"),
            "--input-b", str(tmp_path / "b.jsonl"), "--response", str(tmp_path / "resp.csv"),
            "--d", "1", "--rank", "2", "--grid", "100", "--repeats", "4",
            "--out", str(tmp_path / "cvr.json"),
        ]) == 0
        assert len(calls) == 2 * len(ids)

    def test_report_echoes_shared_options(self, pdf_dataset, tmp_path):
        argv = self._cvr_argv(pdf_dataset, tmp_path) + ["--curve-grid", "64"]
        assert run_cli(argv) == 0
        opts = load_report(str(tmp_path / "cvr.json"))["metadata"]["effective_options"]
        shared = ("tangent_mode", "rank", "explained", "grid", "curve_grid")
        assert {k: opts[k] for k in shared} == {
            "tangent_mode": "separate", "rank": 2, "explained": None,
            "grid": 300, "curve_grid": 64,
        }

    def test_tied_held_out_split_is_null(self, tmp_path):
        # 10 subjects whose responses 10 + (3 i mod 7) tie in pairs: a split
        # that holds out a tied pair (2 of 10 rows) has no C-index, and the
        # report says null there, not NaN
        sim = tmp_path / "sim"
        assert run_cli([
            "simulate", "pdf", "--groups", "1,2", "--n", "10", "--seed", "5",
            "--grid", "300", "--out-dir", str(sim),
        ]) == 0
        resp = tmp_path / "resp.csv"
        resp.write_text("id,months\n" + "".join(
            f"s{i:04d},{10 + 3 * i % 7}\n" for i in range(10)))
        out = tmp_path / "cvr.json"
        assert run_cli([
            "cvr", "--input-a", str(sim / "group_a.csv"),
            "--input-b", str(sim / "group_b.csv"), "--response", str(resp),
            "--d", "1", "--rank", "2", "--grid", "300", "--repeats", "20",
            "--out", str(out),
        ]) == 0

        def reject(token):
            raise AssertionError(f"{token} in the report")

        rep = json.loads(out.read_text(), parse_constant=reject)
        cindex = rep["cross_validation"]["repeat_cindex"]
        scored = [c for c in cindex if c is not None]
        assert len(cindex) == 20 and 0 < len(scored) < 20
        assert rep["aggregates"]["cindex_mean"] == pytest.approx(np.mean(scored), rel=1e-12)
        assert rep["aggregates"]["cindex_sd"] == pytest.approx(np.std(scored, ddof=1),
                                                               rel=1e-12)
        assert None not in rep["cross_validation"]["repeat_mse"]
        assert len(rep["cross_validation"]["repeat_eta"]) == 20

    @staticmethod
    def _cvr_argv(data, tmp_path):
        resp = tmp_path / "resp.csv"
        resp.write_text("id,months\n" + "".join(
            f"s{i:04d},{10 + 3 * i % 7}\n" for i in range(14)))
        return ["cvr", "--input-a", str(data / "group_a.csv"),
                "--input-b", str(data / "group_b.csv"), "--response", str(resp),
                "--d", "1", "--rank", "2", "--grid", "300", "--repeats", "20",
                "--out", str(tmp_path / "cvr.json")]

    @pytest.mark.parametrize("max_iter", [None, 1])
    def test_unconverged_fits_warned_and_reported(self, max_iter, pdf_dataset,
                                                  tmp_path, monkeypatch):
        if max_iter is not None:
            monkeypatch.setattr(tfcca.cvr, "CVR_MAX_ITER", max_iter)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(self._cvr_argv(pdf_dataset, tmp_path)) == 0
        count = load_report(str(tmp_path / "cvr.json"))["cross_validation"][
            "unconverged_fits"]
        messages = [str(w.message) for w in caught if "did not converge" in str(w.message)]
        if max_iter is None:
            assert count == 0 and messages == []
        else:
            assert count > 0 and len(messages) == 1
            assert messages[0].startswith(f"cvr: {count} of 220 ")

    @pytest.mark.parametrize("case,code,reason", [
        ("rank-deficient split", 2, "error: validation: C1 is rank-deficient"),
        ("ill-conditioned view", 3, "error: numerical: C1 is ill-conditioned"),
    ], ids=["rank-deficient split", "ill-conditioned view"])
    def test_split_checks_exit_codes(self, case, code, reason, pdf_dataset,
                                     tmp_path, monkeypatch, capsys):
        # the tangent coefficients are replaced, so the cross-validation's
        # checks see a view no density input could be relied on to produce
        rng = np.random.default_rng(3)
        C1, C2 = rng.standard_normal((14, 3)), rng.standard_normal((14, 3))
        if case == "rank-deficient split":
            C1[:, 0] = 2.5  # constant on the training rows of any split
            C1[7, 0] = 3.0  # that holds row 7 out
        else:
            C1[:, 1] = C1[:, 0] + 1e-11 * C1[:, 1]
        monkeypatch.setattr(tfcca.cli, "tangent_mode_pipeline",
                            lambda *a, **k: types.SimpleNamespace(c1=C1, c2=C2))
        assert run_cli(self._cvr_argv(pdf_dataset, tmp_path)) == code
        err = capsys.readouterr().err
        assert err.startswith(reason) and err.count("\n") == 1, err


class TestSubjectOrder:
    """Subjects are taken in sorted-id order, so a report does not depend on
    the order of the subjects in input A."""

    def test_cvr_report_ignores_input_a_order(self, pdf_dataset, tmp_path):
        argv = TestCvrCommand._cvr_argv(pdf_dataset, tmp_path)
        assert run_cli(argv) == 0
        ref = (tmp_path / "cvr.json").read_bytes()
        cols = [0] + (1 + np.random.default_rng(4).permutation(14)).tolist()
        rows = [line.split(",") for line in
                (pdf_dataset / "group_a.csv").read_text().splitlines()]
        (tmp_path / "a.csv").write_text(
            "".join(",".join(row[c] for c in cols) + "\n" for row in rows))
        argv[argv.index("--input-a") + 1] = str(tmp_path / "a.csv")
        assert run_cli(argv) == 0
        assert (tmp_path / "cvr.json").read_bytes() == ref

    def test_shape_report_ignores_input_a_order(self, shape_dataset, tmp_path):
        lines = (shape_dataset / "group_a.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "a.jsonl").write_text("".join(lines[::-1]))
        blobs = []
        for path_a in (shape_dataset / "group_a.jsonl", tmp_path / "a.jsonl"):
            assert run_cli([
                "shape-cca", "--input-a", str(path_a),
                "--input-b", str(shape_dataset / "group_b.jsonl"),
                "--rank", "2", "--curve-grid", "96", "--out", str(tmp_path / "r.json"),
            ]) == 0
            blobs.append((tmp_path / "r.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestSharedOptions:
    # the smallest command line each command accepts
    REQUIRED = {
        "pdf-cca": ["--input-a", "a", "--input-b", "b"],
        "shape-cca": ["--input-a", "a", "--input-b", "b"],
        "cross-cca": ["--pdf-input", "a", "--shape-input", "b"],
        "cvr": ["--input-a", "a", "--input-b", "b", "--response", "y", "--d", "1"],
    }
    SHARED = ("rank", "explained", "tangent_mode", "grid", "curve_grid", "bins",
              "floor", "out")

    def _parse(self, cmd, *extra):
        return tfcca.cli.build_parser().parse_args(
            [cmd] + self.REQUIRED[cmd] + ["--out", "r.json"] + list(extra))

    def test_same_defaults_for_every_command(self):
        parsed = {cmd: self._parse(cmd) for cmd in self.REQUIRED}
        expected = {"rank": None, "explained": None, "tangent_mode": "separate",
                    "grid": 1000, "curve_grid": 200, "bins": 50, "floor": 1e-4,
                    "out": "r.json"}
        for cmd, args in parsed.items():
            assert {k: getattr(args, k) for k in self.SHARED} == expected, cmd

    @pytest.mark.parametrize("cmd", sorted(REQUIRED))
    def test_shared_values_parse_and_rank_excludes_explained(self, cmd, capsys):
        args = self._parse(cmd, "--rank", "4", "--tangent-mode", "transport",
                           "--grid", "300", "--curve-grid", "64", "--bins", "20",
                           "--floor", "0.01")
        assert (args.rank, args.tangent_mode, args.grid, args.curve_grid, args.bins,
                args.floor) == (4, "transport", 300, 64, 20, 0.01)
        assert self._parse(cmd, "--explained", "0.5").explained == 0.5
        for bad in (["--rank", "2", "--explained", "0.5"], ["--tangent-mode", "joint"]):
            with pytest.raises(SystemExit) as exc:
                self._parse(cmd, *bad)
            assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


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


GOOD_RESPONSE = ["id,months"] + [f"s{i:04d},{10 + i}" for i in range(14)]
PDF_HEADER = "t,s1,s2,s3"
PDF_ROWS = ["0,1,1,1", "0.5,1,1,1", "1,1,1,1"]
NOT_UTF8 = b"\xff\xfe\x00bad\n"
PDF_ARGV = ["--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
            "--rank", "2", "--grid", "300", "--out", "{tmp}/r.json"]
# 10**15 float64 samples (7.11 PiB) exceed any 47-bit address space, so the
# allocation fails at once and touches no memory
HUGE_GRID = str(10**15)
OUT_OF_MEMORY = "error: out of memory: Unable to allocate 7.11 PiB"

# (case, lines of a density CSV, text the reason must contain)
BAD_PDF_TABLES = [
    ("csv header names more subjects than the rows have",
     [PDF_HEADER, "0,1,1", "0.5,1,1", "1,1,1"], "pdf.csv:2: 3 cells, the header has 4"),
    ("csv row with a missing cell",
     [PDF_HEADER, "0,1,1,1", "0.5,1,1", "1,1,1,1"], "pdf.csv:3: 3 cells, the header has 4"),
    ("csv with only a header", [PDF_HEADER], "pdf.csv: need a header row and >= 3 data rows"),
    ("empty csv", [], "pdf.csv: need a header row and >= 3 data rows"),
    ("csv with blank data lines", [PDF_HEADER, "", "", ""],
     "pdf.csv:2: 0 cells, the header has 4"),
    ("csv with a blank line inside", [PDF_HEADER, PDF_ROWS[0], ""] + PDF_ROWS[1:],
     "pdf.csv:3: 0 cells, the header has 4"),
    ("csv with a blank line at the end", [PDF_HEADER] + PDF_ROWS + [""],
     "pdf.csv:5: 0 cells, the header has 4"),
    ("csv row with a trailing comma", [PDF_HEADER, PDF_ROWS[0] + ","] + PDF_ROWS[1:],
     "pdf.csv:2: 5 cells, the header has 4"),
    ("csv cell with a digit-grouping underscore",
     [PDF_HEADER, PDF_ROWS[0], "0.5,1_0,1,1", PDF_ROWS[2]], "pdf.csv: non-numeric cell"),
    ("csv grid value NaN", [PDF_HEADER, PDF_ROWS[0], "nan,1,1,1", PDF_ROWS[2]],
     "pdf.csv: first column must increase from 0 to 1"),
    ("csv density value NaN", [PDF_HEADER, PDF_ROWS[0], "0.5,1,nan,1", PDF_ROWS[2]],
     "pdf.csv: subject 's2' has a non-finite value"),
]

# (case, files to write as lines or raw bytes, argv, text the reason must
# contain); "{data}" is the simulated pdf dataset and "{tmp}" the test's
# scratch directory. A reason that starts with "error: " is the start of the
# line; any other follows "error: validation: ".
MALFORMED = [
    ("missing input file", {},
     ["pdf-cca", "--input-a", "{tmp}/absent.csv", "--input-b", "{tmp}/absent.csv",
      "--out", "{tmp}/r.json"], "{tmp}/absent.csv"),
    ("non-numeric response", {"resp.csv": GOOD_RESPONSE[:-1] + ["s0013,soon"]},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--out", "{tmp}/r.json"], "resp.csv:15: non-numeric response"),
    ("response row with only an id", {"resp.csv": GOOD_RESPONSE[:-1] + ["s0013"]},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--out", "{tmp}/r.json"], "resp.csv:15: need 'id,response'"),
    ("duplicate response id", {"resp.csv": GOOD_RESPONSE + ["s0003,99"]},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--out", "{tmp}/r.json"], "resp.csv:16: duplicate subject id 's0003'"),
    ("samples not a list", {"s.jsonl": ['{"id": "a", "samples": 5}']},
     ["pdf-cca", "--input-a", "{tmp}/s.jsonl", "--input-b", "{tmp}/s.jsonl",
      "--out", "{tmp}/r.json"], "'samples' of 'a' must be a list"),
    ("record not an object", {"s.jsonl": ["5"]},
     ["pdf-cca", "--input-a", "{tmp}/s.jsonl", "--input-b", "{tmp}/s.jsonl",
      "--out", "{tmp}/r.json"], "s.jsonl:1: a record must be a JSON object"),
    ("non-numeric curve point",
     {"c.jsonl": ['{"id": "a", "points": [[0, 0], [1, "x"], [0, 1]]}']},
     ["shape-cca", "--input-a", "{tmp}/c.jsonl", "--input-b", "{tmp}/c.jsonl",
      "--out", "{tmp}/r.json"], "curve points must be numbers"),
    ("zero cvr repeats", {"resp.csv": GOOD_RESPONSE},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--repeats", "0", "--out", "{tmp}/r.json"], "repeats must be >= 1"),
    # a directory cannot be made under a regular file, even by root
    ("unwritable output", {"file": []},
     ["pdf-cca", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--rank", "2", "--grid", "300", "--out", "{tmp}/file/r.json"], "{tmp}/file"),
    ("non-UTF-8 csv input", {"bin.csv": NOT_UTF8},
     ["pdf-cca", "--input-a", "{data}/group_a.csv", "--input-b", "{tmp}/bin.csv",
      "--out", "{tmp}/r.json"], "{tmp}/bin.csv: not UTF-8 text"),
    ("non-UTF-8 jsonl input", {"bin.jsonl": NOT_UTF8},
     ["cvr", "--input-a", "{tmp}/bin.jsonl", "--input-b", "{data}/group_b.csv",
      "--response", "{data}/group_b.csv", "--d", "1", "--out", "{tmp}/r.json"],
     "{tmp}/bin.jsonl: not UTF-8 text"),
    ("non-UTF-8 response", {"bin.csv": NOT_UTF8},
     ["cvr", "--response", "{tmp}/bin.csv", "--d", "1"] + PDF_ARGV,
     "{tmp}/bin.csv: not UTF-8 text"),
    ("explained above one", {},
     ["pdf-cca", "--explained", "1.5"] + PDF_ARGV[:4] + PDF_ARGV[6:],
     "explained must lie in (0, 1], got 1.5"),
    ("negative directions", {}, ["pdf-cca", "--directions", "-1"] + PDF_ARGV,
     "--directions must be >= 0, got -1"),
    ("nan ridge", {}, ["pdf-cca", "--ridge", "nan"] + PDF_ARGV,
     "ridge must be a finite number >= 0, got nan"),
    ("two simulated curves", {},
     ["simulate", "shape", "--n", "2", "--curve-grid", "60", "--out-dir", "{tmp}/sim"],
     "n must be >= 3"),
    ("negative simulate shape seed", {},
     ["simulate", "shape", "--seed", "-1", "--n", "4", "--curve-grid", "60",
      "--out-dir", "{tmp}/sim"], "rng_seed must be >= 0, got -1"),
    ("negative simulate pdf seed", {},
     ["simulate", "pdf", "--seed", "-1", "--n", "4", "--grid", "60",
      "--out-dir", "{tmp}/sim"], "rng_seed must be >= 0, got -1"),
    ("negative cvr seed", {"resp.csv": GOOD_RESPONSE},
     ["cvr", "--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
      "--response", "{tmp}/resp.csv", "--d", "1", "--rank", "2", "--grid", "300",
      "--seed", "-1", "--out", "{tmp}/r.json"], "rng_seed must be >= 0, got -1"),
    ("non-finite epsilons", {}, ["pdf-cca", "--epsilons", "0,nan"] + PDF_ARGV,
     "--epsilons values must be finite, got '0,nan'"),
    ("non-integer simulate groups", {},
     ["simulate", "pdf", "--groups", "1,x", "--out-dir", "{tmp}/sim"],
     "bad --groups '1,x'"),
    ("sample range too wide to rescale",
     {"s.jsonl": ['{"id": "a", "samples": [1e308, -1e308, 3]}',
                  '{"id": "b", "samples": [1, 2, 3]}', '{"id": "c", "samples": [1, 5, 3]}']},
     ["pdf-cca", "--input-a", "{tmp}/s.jsonl", "--input-b", "{tmp}/s.jsonl",
      "--rank", "1", "--out", "{tmp}/r.json"],
     "sample range [-1e+308, 1e+308] is too wide to rescale"),
    ("pdf grid too large to allocate", {},
     ["pdf-cca"] + PDF_ARGV[:6] + ["--grid", HUGE_GRID] + PDF_ARGV[8:], OUT_OF_MEMORY),
    ("curve grid too large to allocate",
     {"c.jsonl": ['{"id": "a", "points": [[0, 0], [1, 0], [0, 1]]}']},
     ["shape-cca", "--input-a", "{tmp}/c.jsonl", "--input-b", "{tmp}/c.jsonl",
      "--curve-grid", HUGE_GRID, "--out", "{tmp}/r.json"], OUT_OF_MEMORY),
    ("simulate grid too large to allocate", {},
     ["simulate", "pdf", "--n", "4", "--grid", HUGE_GRID, "--out-dir", "{tmp}/sim"],
     OUT_OF_MEMORY),
] + [
    (case, {"pdf.csv": lines},
     ["pdf-cca", "--input-a", "{tmp}/pdf.csv", "--input-b", "{tmp}/pdf.csv",
      "--out", "{tmp}/r.json"], reason)
    for case, lines, reason in BAD_PDF_TABLES
]


@pytest.mark.parametrize("case,files,argv,reason", MALFORMED,
                         ids=[m[0] for m in MALFORMED])
def test_malformed_input_exits_2_with_reason(case, files, argv, reason, pdf_dataset,
                                             tmp_path, capsys):
    for name, lines in files.items():
        if isinstance(lines, bytes):
            (tmp_path / name).write_bytes(lines)
        else:
            (tmp_path / name).write_text("".join(line + "\n" for line in lines))
    argv = [a.format(data=pdf_dataset, tmp=tmp_path) for a in argv]
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2, case
    start = reason if reason.startswith("error: ") else "error: validation: "
    assert err.startswith(start), err
    assert err.count("\n") == 1, err
    assert reason.format(tmp=tmp_path) in err, err


# a finite float (subnormals and -0.0 included), the spaces before and after
# its repr, and whether the cell is quoted
CSV_CELL = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", " ", "  "]), st.sampled_from(["", " "]), st.booleans(),
)


class TestPdfCsvParse:
    @pytest.mark.parametrize("case,lines,reason", BAD_PDF_TABLES,
                             ids=[b[0] for b in BAD_PDF_TABLES])
    def test_rejection_raises_no_warning(self, case, lines, reason, tmp_path):
        # pytest records warnings instead of printing them, so a warning the
        # CLI would print ahead of its one-line reason shows only here
        path = tmp_path / "pdf.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError) as info:
                tfcca.cli._read_pdf_csv(str(path), 50)
        assert reason in str(info.value)
        assert [str(w.message) for w in caught] == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda width: st.lists(
               st.lists(CSV_CELL, min_size=width, max_size=width), min_size=3, max_size=8)),
           st.sampled_from(["\n", "\r\n"]))
    def test_bulk_parse_is_per_cell_float(self, rows, end):
        def text(value, before, after, quoted):
            cell = before + repr(value) + after
            return f'"{cell}"' if quoted else cell

        header = ",".join(["t"] + [f"s{j}" for j in range(1, len(rows[0]))])
        lines = [header + end] + [",".join(text(*c) for c in row) + end for row in rows]
        ids, data = tfcca.cli._parse_pdf_table("mem.csv", lines)
        per_cell = np.array([[float(x) for x in next(csv.reader([line]))]
                             for line in lines[1:]])
        assert ids == [f"s{j}" for j in range(1, len(rows[0]))]
        assert data.tobytes() == per_cell.tobytes()
        assert data.tobytes() == np.array([[c[0] for c in row] for row in rows]).tobytes()

    def test_traced_peak_below_three_file_sizes(self, tmp_path):
        # the table is parsed in bulk, not through a Python float per cell
        n_subjects, n_rows = 400, 200
        t = np.linspace(0.0, 1.0, n_rows)
        phase = np.random.default_rng(0).uniform(0, 2 * np.pi, n_subjects)
        dens = 1.0 + 0.5 * np.sin(2 * np.pi * t[:, None] + phase)
        path = tmp_path / "pdf.csv"
        path.write_text(
            ",".join(["t"] + [f"s{j}" for j in range(n_subjects)]) + "\n"
            + "".join(",".join(map(repr, row)) + "\n"
                      for row in np.column_stack([t, dens]).tolist()))
        tracemalloc.start()
        try:
            out, _ = tfcca.cli._read_pdf_csv(str(path), n_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == n_subjects
        assert peak < 3 * path.stat().st_size, (peak, path.stat().st_size)


class TestNoNumpyRandom:
    """The analyses and cvr draw nothing from numpy.random, so a run does
    not load it (about 6 MB of resident memory); only simulate does."""

    # runs one command through cli.main; a command that succeeds but leaves
    # numpy.random loaded exits 1 with that reason
    PROBE = ("import sys\n"
             "from tfcca.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "if code == 0 and 'numpy.random' in sys.modules:\n"
             "    sys.exit('numpy.random loaded')\n"
             "sys.exit(code)\n")

    @staticmethod
    def _python(*args):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=300)

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        """Small simulate outputs, made in another process."""
        base = tmp_path_factory.mktemp("norandom")
        for argv in (["pdf", "--n", "10", "--seed", "5", "--grid", "120",
                      "--out-dir", str(base / "pdf")],
                     ["shape", "--n", "10", "--seed", "2", "--curve-grid", "48",
                      "--out-dir", str(base / "shape")]):
            proc = self._python("-m", "tfcca", "simulate", *argv)
            assert proc.returncode == 0, proc.stderr
        (base / "resp.csv").write_text(
            "id,months\n" + "".join(f"s{i:04d},{5 + 3 * i}\n" for i in range(10)))
        return base

    @pytest.mark.parametrize("command", ["pdf-cca", "shape-cca", "cross-cca", "cvr"])
    def test_command_leaves_numpy_random_unloaded(self, command, data, tmp_path):
        pdf_a, pdf_b = str(data / "pdf" / "group_a.csv"), str(data / "pdf" / "group_b.csv")
        shape_a = str(data / "shape" / "group_a.jsonl")
        shape_b = str(data / "shape" / "group_b.jsonl")
        inputs = {
            "pdf-cca": ["--input-a", pdf_a, "--input-b", pdf_b, "--directions", "1"],
            "shape-cca": ["--input-a", shape_a, "--input-b", shape_b,
                          "--directions", "1"],
            "cross-cca": ["--pdf-input", pdf_a, "--shape-input", shape_a,
                          "--directions", "1"],
            "cvr": ["--input-a", pdf_a, "--input-b", pdf_b, "--d", "1",
                    "--response", str(data / "resp.csv"), "--repeats", "5"],
        }[command]
        proc = self._python(
            "-c", self.PROBE, command, *inputs, "--rank", "2", "--grid", "120",
            "--curve-grid", "48", "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
