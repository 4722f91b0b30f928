import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tfcca.report as report_module
from tfcca.report import SCHEMA, jsonable, load_report, write_report

# signed zeros, subnormals and magnitudes near the double range ends
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e300,
               -1e300, 1e-300, -1e-300)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
FLOAT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                                       max_side=5),
                          elements=FINITE)


def payload(arrays):
    return {
        "schema": SCHEMA,
        "command": "simulate",
        "tool_version": "test",
        "metadata": {"effective_options": {"seed": np.int64(3)},
                     "arrays": arrays},
        "outputs": [arrays[0], np.arange(4, dtype=np.int32),
                    np.array([True, False]), np.float32(0.1)],
    }


class TestReportRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(FLOAT_ARRAYS, min_size=1, max_size=3))
    @example([np.array(EDGE_FLOATS)])
    def test_write_then_load_equals_jsonable(self, tmp_path_factory, arrays):
        path = tmp_path_factory.mktemp("report") / "r.json"
        report = payload(arrays)
        write_report(report, str(path))
        expected = jsonable(report)
        # the streamed text is the one-shot text, byte for byte
        assert path.read_bytes() == (
            json.dumps(expected, sort_keys=True, indent=2) + "\n").encode()
        loaded = load_report(str(path))
        assert loaded == expected
        # the text tells -0.0 from 0.0, which == does not
        assert (json.dumps(loaded, sort_keys=True)
                == json.dumps(expected, sort_keys=True))
        # and the arrays come back bit for bit, -0.0 and subnormals included
        for got, arr in zip(loaded["metadata"]["arrays"], arrays):
            assert np.array(got, dtype=np.float64).tobytes() == arr.tobytes()


class TestReportWrite:
    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "r.json"
        old = os.umask(0o022)
        try:
            write_report(payload([np.zeros(3)]), str(path))
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_encoder_failure_leaves_old_target_and_no_temp(self, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "r.json"
        path.write_bytes(b"old report\n")

        def failing_dump(obj, fh, **kwargs):
            fh.write('{\n  "command": ')
            raise RuntimeError("encoder failed")

        monkeypatch.setattr(report_module.json, "dump", failing_dump)
        with pytest.raises(RuntimeError, match="encoder failed"):
            write_report(payload([np.zeros(3)]), str(path))
        assert path.read_bytes() == b"old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
