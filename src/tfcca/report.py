"""Analysis report schema, validation, and atomic serialization.

Reports are plain JSON objects: every array is labeled with the grid it
lives on, all effective options and seeds are echoed into metadata, and a
written report re-reads into an equal in-memory object (floats round-trip
exactly through JSON text).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ValidationError

SCHEMA = "tfcca-report-v1"
ANALYSIS_COMMANDS = ("pdf-cca", "shape-cca", "cross-cca")


def jsonable(obj):
    """Recursively convert numpy containers/scalars to JSON-native types."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            return obj.tolist()  # already nested lists of Python scalars
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def _require(report, key, kinds, path="report"):
    if key not in report:
        raise ValidationError(f"{path} is missing required key {key!r}")
    if kinds is not None and not isinstance(report[key], kinds):
        raise ValidationError(
            f"{path}[{key!r}] has type {type(report[key]).__name__}"
        )
    return report[key]


def _check_numbers(seq, path):
    for x in seq:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ValidationError(f"{path} must contain only numbers")


def validate_report(report: dict):
    """Schema-check a report before write or after read."""
    if not isinstance(report, dict):
        raise ValidationError("report must be a JSON object")
    if _require(report, "schema", str) != SCHEMA:
        raise ValidationError(f"unknown schema {report['schema']!r}")
    command = _require(report, "command", str)
    _require(report, "tool_version", str)
    meta = _require(report, "metadata", dict)
    _require(meta, "effective_options", dict, "metadata")

    if command in ANALYSIS_COMMANDS:
        _require(report, "mode", str)
        subjects = _require(report, "subjects", list)
        ranks = _require(report, "ranks", list)
        corr = _require(report, "correlations", list)
        _check_numbers(corr, "correlations")
        if len(corr) != min(ranks):
            raise ValidationError(
                f"correlations length {len(corr)} != min rank {min(ranks)}"
            )
        weights = _require(report, "weights", dict)
        for side, r in zip(("group_a", "group_b"), ranks):
            W = _require(weights, side, list, "weights")
            if len(W) != r:
                raise ValidationError(f"weights[{side}] must have {r} rows")
        directions = _require(report, "variate_directions", dict)
        for side in ("group_a", "group_b"):
            for entry in _require(directions, side, list, "variate_directions"):
                grid = _require(entry, "grid", dict, "direction")
                n = _require(grid, "n_points", int, "direction.grid")
                vals = _require(entry, "values", list, "direction")
                if len(vals) != n:
                    raise ValidationError(
                        f"direction array length {len(vals)} != grid size {n}"
                    )
                _require(entry, "epsilon", (int, float), "direction")
                _require(entry, "variate", int, "direction")
        if len(subjects) < 2:
            raise ValidationError("need at least two paired subjects")
    elif command == "cvr":
        cv = _require(report, "cross_validation", dict)
        grid = _require(cv, "eta_grid", list, "cross_validation")
        mse = _require(cv, "mse_by_eta", list, "cross_validation")
        _check_numbers(grid, "eta_grid")
        _check_numbers(mse, "mse_by_eta")
        if len(grid) != len(mse):
            raise ValidationError("eta_grid and mse_by_eta lengths differ")
        _require(cv, "chosen_eta", (int, float), "cross_validation")
        agg = _require(report, "aggregates", dict)
        for key in ("mse_mean", "mse_sd", "cindex_mean", "cindex_sd"):
            _require(agg, key, (int, float), "aggregates")
    elif command == "simulate":
        _require(report, "outputs", list)
    else:
        raise ValidationError(f"unknown report command {command!r}")
    return report


def write_report(report: dict, path: str):
    """Validate and write atomically (temp file + rename).

    The JSON text is streamed into the temp file, never held whole in
    memory, and the file gets the mode a plain open() would give it under
    the current umask (mkstemp creates it 0600)."""
    payload = jsonable(report)
    validate_report(payload)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_report(path: str) -> dict:
    with open(path) as fh:
        report = json.load(fh)
    return validate_report(report)
