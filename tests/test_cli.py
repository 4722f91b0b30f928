import csv
import json
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import tfcca.cli
import tfcca.cvr
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

    def test_across_thread_settings_subprocess(self, tmp_path):
        # BLAS thread counts exported by the caller: unset, 1 and 4. At 40
        # subjects on a 400-point grid a multi-threaded BLAS changes the
        # report's bytes, so the check fails if the pin gives way.
        sim = tmp_path / "sim"
        assert run_cli([
            "simulate", "pdf", "--groups", "1,2", "--n", "40", "--seed", "7",
            "--grid", "400", "--out-dir", str(sim),
        ]) == 0
        blobs = []
        for threads in (None, "1", "4"):
            out = tmp_path / f"rep_t{threads}.json"
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(var, None)
                if threads is not None:
                    env[var] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "tfcca", "pdf-cca",
                 "--input-a", str(sim / "group_a.csv"),
                 "--input-b", str(sim / "group_b.csv"),
                 "--rank", "2", "--grid", "400", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_cvr_across_thread_settings_subprocess(self, tmp_path):
        # the stacked cross-validation descent (batched svd, solve and
        # matmul) gives the same report bytes whatever BLAS threads the
        # caller exports: unset, 1 and 4
        sim = tmp_path / "sim"
        assert run_cli([
            "simulate", "pdf", "--groups", "1,2", "--n", "40", "--seed", "7",
            "--grid", "400", "--out-dir", str(sim),
        ]) == 0
        resp = tmp_path / "resp.csv"
        rng = np.random.default_rng(2)
        resp.write_text("id,months\n" + "".join(
            f"s{i:04d},{v!r}\n" for i, v in enumerate(rng.uniform(5, 60, 40).tolist())))
        blobs = []
        for threads in (None, "1", "4"):
            out = tmp_path / f"cvr_t{threads}.json"
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(var, None)
                if threads is not None:
                    env[var] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "tfcca", "cvr",
                 "--input-a", str(sim / "group_a.csv"),
                 "--input-b", str(sim / "group_b.csv"),
                 "--response", str(resp), "--log-response", "--d", "2",
                 "--rank", "3", "--grid", "400", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


GOOD_RESPONSE = ["id,months"] + [f"s{i:04d},{10 + i}" for i in range(14)]
RAGGED_PDF_HEADER = ["t,s1,s2,s3"]
NOT_UTF8 = b"\xff\xfe\x00bad\n"
PDF_ARGV = ["--input-a", "{data}/group_a.csv", "--input-b", "{data}/group_b.csv",
            "--rank", "2", "--grid", "300", "--out", "{tmp}/r.json"]

# (case, files to write as lines or raw bytes, argv, text the reason must
# contain); "{data}" is the simulated pdf dataset and "{tmp}" the test's
# scratch directory
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
    ("csv header names more subjects than the rows have",
     {"pdf.csv": RAGGED_PDF_HEADER + ["0,1,1", "0.5,1,1", "1,1,1"]},
     ["pdf-cca", "--input-a", "{tmp}/pdf.csv", "--input-b", "{tmp}/pdf.csv",
      "--out", "{tmp}/r.json"], "pdf.csv:2: 3 cells, the header has 4"),
    ("csv row with a missing cell",
     {"pdf.csv": RAGGED_PDF_HEADER + ["0,1,1,1", "0.5,1,1", "1,1,1,1"]},
     ["pdf-cca", "--input-a", "{tmp}/pdf.csv", "--input-b", "{tmp}/pdf.csv",
      "--out", "{tmp}/r.json"], "pdf.csv:3: 3 cells, the header has 4"),
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
    ("two simulated curves", {},
     ["simulate", "shape", "--n", "2", "--curve-grid", "60", "--out-dir", "{tmp}/sim"],
     "n must be >= 3"),
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
    assert err.startswith("error: validation: "), err
    assert err.count("\n") == 1, err
    assert reason.format(tmp=tmp_path) in err, err
