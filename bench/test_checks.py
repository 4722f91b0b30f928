"""Every output check can fail: corrupted reports and exit codes are caught.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import check_command  # noqa: E402

PDF_TRUTH = {"workload": "pdf_wide", "subjects": 3, "rank": 2, "d": None,
             "canonical_correlations": [0.7, 0.28]}
SHAPE_TRUTH = {"workload": "shape_high", "subjects": 3, "rank": 2, "d": None,
               "latent_correlation": 0.995}
CVR_TRUTH = {"workload": "cvr_cv", "subjects": 3, "rank": 2, "d": 1,
             "noise_variance": 0.09}


def _analysis(correlations):
    return {
        "schema": "tfcca-report-v1", "command": "pdf-cca", "tool_version": "0",
        "mode": "separate", "subjects": ["a", "b", "c"], "ranks": [2, 2],
        "correlations": correlations,
        "weights": {"group_a": [[1.0, 0.0], [0.0, 1.0]],
                    "group_b": [[1.0, 0.0], [0.0, 1.0]]},
        "variate_directions": {"group_a": [], "group_b": []},
        "metadata": {"effective_options": {"rank": 2}},
    }


def _cvr(mse):
    return {
        "schema": "tfcca-report-v1", "command": "cvr", "tool_version": "0",
        "subjects": ["a", "b", "c"],
        "cross_validation": {"eta_grid": [0.0, 1.0], "mse_by_eta": [mse, mse],
                             "chosen_eta": 1.0},
        "aggregates": {"mse_mean": mse, "mse_sd": 0.01, "cindex_mean": 0.8,
                       "cindex_sd": 0.01},
        "full_fit": {"weights_1": [[1.0], [0.0]], "weights_2": [[0.0], [1.0]]},
        "metadata": {"effective_options": {"rank": 2, "d": 1}},
    }


GOOD = {
    "pdf": (PDF_TRUTH, _analysis([0.71, 0.27])),
    "shape": (SHAPE_TRUTH, _analysis([0.99, 0.5])),
    "cvr": (CVR_TRUTH, _cvr(0.095)),
}


def _check(tmp_path, truth, report, exit_code=0):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return check_command(truth, exit_code, str(path))


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_good_report_passes(tmp_path, kind):
    truth, report = GOOD[kind]
    res = _check(tmp_path, truth, report)
    assert res.ok, res.problems


def _wrong_rank(r):
    r["ranks"] = [1, 1]
    r["correlations"] = r["correlations"][:1]
    r["weights"] = {"group_a": [[1.0]], "group_b": [[1.0]]}
    r["metadata"]["effective_options"]["rank"] = 1


def _shift_correlations(r):
    r["correlations"] = [c - 0.1 for c in r["correlations"]]


def _drop_subject(r):
    r["subjects"] = r["subjects"][:2]


def _wrong_d(r):
    r["metadata"]["effective_options"]["d"] = 2
    r["full_fit"]["weights_1"] = [[1.0, 0.0], [0.0, 1.0]]


def _mse_above_floor(r):
    r["aggregates"]["mse_mean"] = 0.2


def _mse_below_floor(r):
    r["aggregates"]["mse_mean"] = 0.01


def _schema_break(r):
    del r["metadata"]


def _missing_fit(r):
    del r["full_fit"]


CORRUPTIONS = [
    ("pdf", _wrong_rank, "rank"),
    ("pdf", _shift_correlations, "rho_err"),
    ("pdf", _drop_subject, "subject count"),
    ("pdf", _schema_break, "does not load"),
    ("shape", _wrong_rank, "rank"),
    ("shape", _shift_correlations, "rho_err"),
    ("cvr", _wrong_d, "d"),
    ("cvr", _mse_above_floor, "cv_mse"),
    ("cvr", _mse_below_floor, "cv_mse"),
    ("cvr", _missing_fit, "malformed"),
]


@pytest.mark.parametrize("kind,corrupt,expect", CORRUPTIONS,
                         ids=[f"{k}-{f.__name__.strip('_')}" for k, f, _ in CORRUPTIONS])
def test_corrupted_report_fails(tmp_path, kind, corrupt, expect):
    truth, report = GOOD[kind]
    report = copy.deepcopy(report)
    corrupt(report)
    res = _check(tmp_path, truth, report)
    assert not res.ok
    assert any(expect in p for p in res.problems), res.problems


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_nonzero_exit_fails(tmp_path, kind):
    truth, report = GOOD[kind]
    res = _check(tmp_path, truth, report, exit_code=3)
    assert res.problems == ["exit code 3"]


def test_missing_report_fails(tmp_path):
    res = check_command(PDF_TRUTH, 0, str(tmp_path / "absent.json"))
    assert not res.ok and "does not load" in res.problems[0]
