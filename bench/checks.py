"""Output checks for one benchmark command.

`check_command` looks at the exit code, re-validates the report with
`tfcca.report.load_report`, compares the requested rank (and `d` for `cvr`)
and subject count with the report, and compares the estimates with the
generator's truth sidecar: `rho_err` for the canonical correlations, and
`cv_mse` against the known noise floor of the response. Any failed check
makes the command count as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tfcca.errors import ValidationError
from tfcca.report import load_report

# largest |reported - true| canonical correlation that counts as recovered
# (the acceptance suite's bound for the leading shape correlation)
RHO_TOL = 0.05
# held-out MSE must sit within this band around the response noise variance:
# far below it means leakage, far above it means the signal was missed
NOISE_FLOOR_BAND = (0.5, 1.5)


@dataclass
class CheckResult:
    problems: list = field(default_factory=list)
    rho_err: float | None = None
    cv_mse: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _expect(result, ok, message):
    if not ok:
        result.problems.append(message)


def check_command(truth: dict, exit_code: int, report_path: str) -> CheckResult:
    """Check one command's exit code and report against the truth sidecar."""
    res = CheckResult()
    if exit_code != 0:
        res.problems.append(f"exit code {exit_code}")
        return res
    try:
        report = load_report(report_path)
    except (OSError, ValueError, ValidationError) as exc:
        res.problems.append(f"report does not load: {exc}")
        return res
    try:
        _check_contents(res, truth, report)
    except (KeyError, TypeError, IndexError) as exc:
        res.problems.append(f"malformed report: {exc!r}")
    return res


def _check_contents(res, truth, report):
    rank, n = truth["rank"], truth["subjects"]
    opts = report["metadata"]["effective_options"]
    _expect(res, len(report.get("subjects", ())) == n, f"subject count != {n}")
    _expect(res, opts.get("rank") == rank, f"effective rank != {rank}")

    if truth["workload"] == "cvr_cv":
        d = truth["d"]
        _expect(res, report["command"] == "cvr", "not a cvr report")
        _expect(res, opts.get("d") == d, f"effective d != {d}")
        for side in ("weights_1", "weights_2"):
            W = report["full_fit"][side]
            _expect(res, len(W) == rank and all(len(row) == d for row in W),
                    f"full_fit.{side} is not {rank} x {d}")
        res.cv_mse = report["aggregates"]["mse_mean"]
        lo, hi = (b * truth["noise_variance"] for b in NOISE_FLOOR_BAND)
        _expect(res, lo <= res.cv_mse <= hi,
                f"cv_mse {res.cv_mse:.4g} outside [{lo:.4g}, {hi:.4g}]")
        return

    corr = report["correlations"]
    _expect(res, report["ranks"] == [rank, rank], f"ranks {report['ranks']} != {rank}")
    _expect(res, len(corr) == rank, f"{len(corr)} correlations != {rank}")
    if "latent_correlation" in truth:
        # shapes: only the leading correlation has a ground truth
        pairs = [(corr[0], truth["latent_correlation"])] if corr else []
    else:
        pairs = list(zip(corr, truth["canonical_correlations"]))
    if pairs:
        res.rho_err = max(abs(got - want) for got, want in pairs)
        _expect(res, res.rho_err <= RHO_TOL,
                f"rho_err {res.rho_err:.4g} > {RHO_TOL}")
