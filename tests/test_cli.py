import argparse
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matconc import cli
from matconc import martingales as mg
from matconc import scalar_e as se
from matconc.cli import main
from matconc.errors import ConfigError
from matconc.generators import GeneratorSpec
from matconc.randomizers import ScalarRandomizer
from matconc.rng import substream
from matconc.symmat import LOAD_ASYMMETRY_TOL, config_matrix


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_frames(path, mats):
    lines = [json.dumps(np.asarray(m).tolist()) for m in mats]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_verify_explicit_runs(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "runs": [
                {
                    "bound": "UMMI",
                    "generator": {"kind": "ELLIPSOID_RANK1", "dim": 2,
                                  "a": [[1.0, 0.0], [0.0, 2.0]]},
                    "trials": 3000,
                },
                {
                    "bound": "UMCI1",
                    "generator": {"kind": "GAUSSIAN_SCALED", "dim": 2,
                                  "c": [[0.5, 0.0], [0.0, 0.5]]},
                    "trials": 3000,
                },
            ]
        },
    )
    out = tmp_path / "reports.json"
    rc = main(["verify", "--config", cfg, "--seed", "5", "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "PASS UMMI[ELLIPSOID_RANK1" in captured.out
    assert "2/2 coverage checks passed" in captured.out
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    assert reports[0]["verdict"] == "PASS"
    assert reports[0]["trials"] == 3000
    # floats survive the round trip exactly
    assert isinstance(reports[1]["event_freq"], float)


def test_verify_rejects_bad_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"runs": [{"bound": "NOPE"}]})
    rc = main(["verify", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    cfg2 = write_json(tmp_path / "cfg2.json", {"suite": "exotic"})
    assert main(["verify", "--config", cfg2]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    cfg3 = write_json(
        tmp_path / "cfg3.json",
        {"runs": [{"bound": "UMMI", "generator": {"kind": "ELLIPSOID_RANK1", "dim": "two",
                                                  "a": [[1.0, 0.0], [0.0, 2.0]]}}]},
    )
    assert main(["verify", "--config", cfg3]) == 2
    assert capsys.readouterr().err.startswith("error: 'dim' must be a number")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(tmp_path, capsys, trials):
    run = {"bound": "UMCI1", "generator": {"kind": "GAUSSIAN_SCALED", "dim": 1, "c": [[0.5]]}}
    runs = write_json(tmp_path / "runs.json", {"runs": [run]})
    # the path runs of this suite take their trials from --trials
    suite = write_json(tmp_path / "suite.json", {"dims": [1], "trials_fixed": 64, "horizon": 5})
    out = tmp_path / "reports.json"
    for cfg in (runs, suite):
        rc = main(["verify", "--config", cfg, "--trials", trials, "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --trials must be >= 1, got {trials}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "bound,generator,params,key",
    [
        ("XMCI", {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.5, 0.0], [0.0, 0.5]]},
         {"n_max": "x"}, "'n_max'"),
        ("TRACE_PCHEB", {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.5, 0.0], [0.0, 0.5]]},
         {"p": None}, "'p'"),
        ("UMVI_MGF", {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.5, 0.0], [0.0, 0.5]]},
         {"alpha": "a"}, "'alpha'"),
        ("UMMI", {"kind": "ELLIPSOID_RANK1", "dim": 2, "a": [[1.0, 0.0], [0.0, 2.0]]},
         {"randomizer": ["shifted"]}, "randomizer"),
        ("UMVI_MGF", {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.5, 0.0], [0.0, 0.5]]},
         {"stopping": ["fixed"]}, "stopping"),
    ],
)
def test_verify_malformed_params_exit_2(tmp_path, capsys, bound, generator, params, key):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"runs": [{"bound": bound, "generator": generator, "params": params, "trials": 100}]},
    )
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err


def test_sequential_test_matrix_mode_rejects_shift(tmp_path):
    gen = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, m=0.8 * np.eye(2),
                        c=0.3 * np.eye(2))
    xs = gen.sample_path(substream(31, 0), 60)
    data = write_frames(tmp_path / "frames.ndjson", xs)
    cfg = write_json(
        tmp_path / "test.json",
        {
            "mode": "matrix",
            "alpha": 0.05,
            "m": [[0.0, 0.0], [0.0, 0.0]],  # wrong mean on purpose
            "v": [[0.09, 0.0], [0.0, 0.09]],
            "gamma": {"scale": 1.0},
        },
    )
    out = tmp_path / "decisions.ndjson"
    rc = main(["test", "--config", cfg, "--data", data, "--output", str(out)])
    assert rc == 0
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    summary = lines[-1]
    assert summary["decision"] == "reject"
    assert summary["rejected_at"] is not None
    assert summary["rejected_at"] == len(lines) - 1
    assert all("trace" in f for f in lines[:-1])


def test_sequential_test_matrix_mode_continues_under_null(tmp_path):
    gen = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=0.3 * np.eye(2))
    xs = gen.sample_path(substream(32, 0), 40)
    data = write_frames(tmp_path / "frames.ndjson", xs)
    cfg = write_json(
        tmp_path / "test.json",
        {
            "mode": "matrix",
            "m": [[0.0, 0.0], [0.0, 0.0]],
            "v": [[0.09, 0.0], [0.0, 0.09]],
        },
    )
    out = tmp_path / "out.ndjson"
    rc = main(["test", "--config", cfg, "--data", data, "--output", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["decision"] == "continue"
    assert summary["frames"] == 40


def test_sequential_test_scalar_mode_with_terminal_randomizer(tmp_path):
    gen = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=1, m=np.array([[0.6]]),
                        c=np.array([[0.25]]))
    xs = gen.sample_path(substream(33, 0), 50)
    data = write_frames(tmp_path / "frames.ndjson", xs)
    cfg = write_json(
        tmp_path / "test.json",
        {
            "mode": "scalar",
            "alpha": 0.05,
            "m": [[0.0]],
            "v": [[0.0625]],
            "randomizer": {"kind": "uniform01", "seed": 3},
        },
    )
    out = tmp_path / "out.ndjson"
    rc = main(["test", "--config", cfg, "--data", data, "--output", str(out)])
    assert rc == 0
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    assert lines[-1]["decision"] == "reject"
    assert all("log_value" in f for f in lines[:-1] if "u" not in f)


@pytest.mark.parametrize("mode", ["matrix", "scalar"])
def test_sequential_test_frames_excludes_randomizer_record(tmp_path, mode):
    data = write_frames(tmp_path / "frames.ndjson", [np.zeros((2, 2))] * 2)
    cfg = write_json(
        tmp_path / "test.json",
        {
            "mode": mode,
            "m": [[0.0, 0.0], [0.0, 0.0]],
            "v": [[1.0, 0.0], [0.0, 1.0]],
            "randomizer": {"kind": "uniform01", "seed": 3},
        },
    )
    out = tmp_path / "out.ndjson"
    rc = main(["test", "--config", cfg, "--data", data, "--output", str(out)])
    assert rc == 0
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    # two data frames, the terminal randomizer record, the summary
    assert len(lines) == 4 and "u" in lines[2]
    assert lines[-1]["decision"] == "continue"
    assert lines[-1]["frames"] == 2


@pytest.mark.parametrize("mode", ["matrix", "scalar"])
@pytest.mark.parametrize("seed,reject", [(7, True), (3, False)])
def test_closing_randomizer_record_is_the_stopped_event(tmp_path, mode, seed, reject):
    """No frame crosses; the record after the last one decides at the drawn
    ``u`` (0.114 at seed 7, 0.948 at seed 3) as the per-sample rules do."""
    m, v, alpha = np.zeros((2, 2)), np.eye(2), 0.05
    xs = [1.5 * np.eye(2)] * 3
    cfg = write_json(
        tmp_path / "t.json",
        {"mode": mode, "m": m.tolist(), "v": v.tolist(), "randomizer": {"kind": "uniform01", "seed": seed}},
    )
    out = tmp_path / "out.ndjson"
    assert main(["test", "--config", cfg, "--data", write_frames(tmp_path / "d.ndjson", xs),
                 "--output", str(out)]) == 0
    *frames, record, summary = [json.loads(s) for s in out.read_text().splitlines()]
    assert [f["reject"] for f in frames] == [False] * 3
    u = ScalarRandomizer("uniform01", seed=seed).sample()
    assert record == {"n": 3, "u": u, "reject": reject}
    assert summary["decision"] == ("reject" if reject else "continue")
    gamma = mg.default_gamma_schedule(1.0)
    if mode == "scalar":
        state = se.TraceExpState.start(2)
        for n, x in enumerate(xs, start=1):
            state = se.sn_process_step(state, x, m, v, gamma(n))
        assert se.ursn_event(state, alpha, u) == reject
    else:
        state = mg.MatSupermartingaleState.start(2)
        for n, x in enumerate(xs, start=1):
            state = state.step(*mg.build_factors("SELF_NORMALIZED", x, m, gamma(n), v=v))
        a = se.calibrated_threshold(alpha, (2 / alpha) * np.eye(2))
        assert mg.ville_event(state.value(), a, u) == reject


def test_sequential_test_bad_frames(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "t.json", {"mode": "scalar", "m": [[0.0]], "v": [[1.0]]}
    )
    bad = tmp_path / "bad.ndjson"
    bad.write_text('[[0.1]]\n{"not json\n')
    rc = main(["test", "--config", str(cfg), "--data", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data line 2" in err
    # asymmetric frame
    asym = tmp_path / "asym.ndjson"
    asym.write_text("[[0.0, 1.0], [0.0, 0.0]]\n")
    cfg2 = write_json(
        tmp_path / "t2.json",
        {"mode": "scalar", "m": [[0.0, 0.0], [0.0, 0.0]], "v": [[1.0, 0.0], [0.0, 1.0]]},
    )
    rc = main(["test", "--config", cfg2, "--data", str(asym)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data line 1" in err
    # wrong dimension
    wrong = tmp_path / "wrong.ndjson"
    wrong.write_text("[[0.1]]\n")
    rc = main(["test", "--config", cfg2, "--data", str(wrong)])
    assert rc == 2
    assert "data line 1" in capsys.readouterr().err
    # a string or a boolean entry is not a number
    typed = tmp_path / "typed.ndjson"
    typed.write_text('[["0.1", 0], [0, false]]\n[[0.1, 0], [0, 0.2]]\n')
    out = tmp_path / "out.ndjson"
    assert main(["test", "--config", cfg2, "--data", str(typed), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: data line 1: matrix entries must be numbers, got '0.1'\n"
    )
    assert not out.exists()


#: (config, frame on data line 2, message): a frame that the process cannot step
STEP_ERRORS = [
    ({"mode": "scalar", "v": [[1.0, 0.0], [0.0, 1.0]]}, [[1e300, 0], [0, 0.5]],
     "matrix entries must be finite"),
    ({"mode": "matrix", "v": [[1.0, 0.0], [0.0, 1.0]]}, [[1e300, 0], [0, 0.5]],
     "spectral map produced non-finite values"),
    ({"mode": "matrix", "builder": "SYMMETRIC_DIST"}, [[1e300, 0], [0, 0.5]],
     "spectral map produced non-finite values"),
    ({"mode": "matrix", "builder": "BETTING", "b": [[2.0, 0.0], [0.0, 2.0]]}, [[-5, 0], [0, 0.5]],
     "matrix is not positive semidefinite: smallest eigenvalue -2.535534e+00 below -2.536e-08"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy must not warn before the error
@pytest.mark.parametrize("cfg_obj,frame,message", STEP_ERRORS,
                         ids=["scalar", "self_normalized", "symmetric_dist", "betting"])
def test_a_frame_that_cannot_be_stepped_exits_2_with_its_line(tmp_path, capsys, cfg_obj, frame,
                                                              message):
    cfg = write_json(tmp_path / "t.json", {"m": [[0.0, 0.0], [0.0, 0.0]], **cfg_obj})
    data = tmp_path / "d.ndjson"
    data.write_text(f"[[0.1, 0], [0, 0.1]]\n{json.dumps(frame)}\n[[0.1, 0], [0, 0.1]]\n")
    out = tmp_path / "out.ndjson"
    assert main(["test", "--config", cfg, "--data", str(data), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: data line 2: {message}\n"
    assert not out.exists()


def test_invalid_utf8_exits_2_with_its_line(tmp_path, capsys):
    cfg = write_json(tmp_path / "t.json", {"mode": "scalar", "m": [[0.0]], "v": [[1.0]]})
    out = tmp_path / "out.ndjson"
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(b'[[0.1]]\r\n\n{"x": [[0.2]], "note": "\xc3\xa9"}\n[[0.\xff]]\n[[0.3]]\n')
    rc = main(["test", "--config", cfg, "--data", str(bad), "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: data line 4: not valid UTF-8\n"
    assert not out.exists()
    # the same stream up to the bad line is read as before
    bad.write_bytes(bad.read_bytes().split(b"[[0.\xff]]")[0])
    assert main(["test", "--config", cfg, "--data", str(bad), "--output", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[-1])["frames"] == 2
    # a config that is not UTF-8
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_bytes(b'{"mode": "scalar", "m": [[0.0]], "v": [[1.0]], "note": "\xe9"}')
    for argv in (["test", "--data", str(bad)], ["verify"]):
        assert main([*argv, "--config", str(bad_cfg)]) == 2
        assert capsys.readouterr().err == f"error: config {bad_cfg} is not valid UTF-8 (byte 56)\n"


#: JSON that ``json`` refuses with other than a JSONDecodeError
DEEP, LONG_INTEGER = "[" * 50_000, "[[1" + "0" * 5000 + "]]"


@pytest.mark.parametrize("line", [DEEP, LONG_INTEGER, '{"x": ' + LONG_INTEGER + "}"],
                         ids=["deep nesting", "long integer", "long integer in x"])
def test_a_data_line_json_cannot_read_exits_2_with_its_line(tmp_path, capsys, line):
    cfg = write_json(tmp_path / "t.json", {"mode": "scalar", "m": [[0.0]], "v": [[1.0]]})
    data = tmp_path / "d.ndjson"
    data.write_text(f"[[0.1]]\n{line}\n[[0.2]]\n")
    out = tmp_path / "out.ndjson"
    assert main(["test", "--config", cfg, "--data", str(data), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data line 2: invalid JSON (") and err.endswith(")\n")
    assert not out.exists()


@pytest.mark.parametrize("text", [DEEP * 2, '{"suite": ' + LONG_INTEGER + "}"],
                         ids=["deep nesting", "long integer"])
def test_a_config_json_cannot_read_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {cfg} is not valid JSON: ")


OVERFLOWS = "matrix entries are too large: the symmetric part overflows"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["matrix", "scalar"])
@pytest.mark.parametrize("frames,line", [(["[[1.7e308]]"], 1),
                                         (["[[0.1]]", "[[0.2]]", "[[1.7e308]]", "[[0.3]]"], 3)],
                         ids=["lone frame", "inside a block"])
def test_a_frame_whose_symmetric_part_overflows_exits_2_with_its_line(tmp_path, capsys, mode,
                                                                      frames, line):
    cfg = write_json(tmp_path / "t.json", {"mode": mode, "m": [[0.0]], "v": [[1.0]]})
    data = tmp_path / "d.ndjson"
    data.write_text("\n".join(frames) + "\n")
    assert main(["test", "--config", cfg, "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: data line {line}: {OVERFLOWS}\n"


@pytest.mark.filterwarnings("error")
def test_a_config_matrix_whose_symmetric_part_overflows_exits_2_naming_its_key(tmp_path, capsys):
    cfg = write_json(tmp_path / "t.json", {"mode": "scalar", "m": [[1.7e308]], "v": [[1.0]]})
    data = tmp_path / "d.ndjson"
    data.write_text("[[1.0]]\n")
    assert main(["test", "--config", cfg, "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: 'm': {OVERFLOWS}\n"


@pytest.mark.parametrize("mode", ["matrix", "scalar"])
def test_a_deeply_nested_entry_is_named_in_a_short_message(tmp_path, capsys, mode):
    cfg = write_json(tmp_path / "t.json", {"mode": mode, "m": [[0.0, 0.0], [0.0, 0.0]],
                                           "v": [[1.0, 0.0], [0.0, 1.0]]})
    data = tmp_path / "d.ndjson"
    data.write_text("[[1, 0], [0, 1]]\n" + "[" * 900 + "]" * 900 + "\n")
    assert main(["test", "--config", cfg, "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data line 2: matrix entries must be numbers, got [[[")
    assert len(err) < 120


@pytest.mark.parametrize("where", ["data line", "config"])
def test_an_over_long_integer_is_named_in_matconcs_words(tmp_path, capsys, where):
    literal = "1" * 5001
    body = {"mode": "scalar", "m": [[0.0, 0.0], [0.0, 0.0]], "v": [[1.0, 0.0], [0.0, 1.0]]}
    data = tmp_path / "d.ndjson"
    if where == "config":
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(body)[:-1] + f', "alpha": {literal}}}')
        data.write_text("[[1, 0], [0, 1]]\n")
        named = f"config {cfg} is not valid JSON: "
    else:
        cfg = write_json(tmp_path / "t.json", body)
        data.write_text(f"[[1, 0], [0, 1]]\n[[{literal}, 0], [0, 1]]\n")
        named = "data line 2: invalid JSON ("
    assert main(["test", "--config", str(cfg), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert err.startswith(f"error: {named}integer literal longer than {limit} digits")
    assert "sys" not in err.replace(str(cfg), "")


@pytest.mark.parametrize("command", ["falsify", "verify"])
def test_a_seed_that_is_not_an_integer_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("MATCONC_SEED", "abc")
    if command == "falsify":
        argv = ["falsify", "--p", "1.5", "--d", "1", "--instances", "2",
                "--trials-per-instance", "3"]
    else:
        run = {"bound": "UMCI1", "generator": {"kind": "GAUSSIAN_SCALED", "dim": 1, "c": [[0.5]]},
               "trials": 10}
        argv = ["verify", "--config", write_json(tmp_path / "cfg.json", {"runs": [run]})]
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: MATCONC_SEED must be an integer, got 'abc'\n"
    assert not out.exists()


#: One malformed data line of each kind, among 2 x 2 frames.
BAD_LINES = {
    "not utf-8": b"[[0.\xff, 0], [0, 1]]",
    "not json": b'{"not json',
    "no x": b'{"y": [[1, 0], [0, 1]]}',
    "string": b'[["0.1", 0], [0, 1]]',
    "boolean": b"[[true, 0], [0, 1]]",
    "null": b"[[null, 0], [0, 1]]",
    "huge integer": b"[[1" + b"0" * 400 + b", 0], [0, 1]]",
    "nan": b"[[NaN, 0], [0, 1]]",
    "ragged": b"[[1, 0], [0]]",
    "not square": b"[[1, 0, 0], [0, 1, 0]]",
    "asymmetric": b"[[1.0, 0.0], [1.1e-06, 1.0]]",
    "wrong dimension": b"[[0.5]]",
    "overflowing symmetric part": b"[[1.7e308, 0], [0, 1]]",
    "deep nesting": b"[" * 50_000,
    "long integer": b"[[1" + b"0" * 5000 + b", 0], [0, 1]]",
}


def frames_line_by_line(path):
    """The data reader of ``matconc test`` one line at a time, each literal
    through ``config_matrix``: the reference for ``cli._iter_frames``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ConfigError(f"data line {lineno}: not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else cli._json_error(exc)
                raise ConfigError(f"data line {lineno}: invalid JSON ({msg})") from exc
            if isinstance(obj, dict):
                if "x" not in obj:
                    raise ConfigError(f"data line {lineno}: frame object needs key 'x'")
                obj = obj["x"]
            yield lineno, config_matrix(obj, f"data line {lineno}")


def drain(frames):
    """The (line, shape, matrix bytes) of each frame, the error text or None,
    and the text of each warning raised on the way."""
    got, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for lineno, mat in frames:
                got.append((lineno, mat.shape, mat.tobytes()))
        except ConfigError as exc:
            error = str(exc)
    return got, error, [str(w.message) for w in caught]


_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**30), 10**30)
)
_frame_line = st.tuples(_number, _number, _number).map(
    lambda t: json.dumps([[t[0], t[1]], [t[1], t[2]]]).encode()
)
_good_line = st.one_of(
    _frame_line,
    _frame_line.map(lambda line: b'{"x": ' + line + b', "note": 1}'),
    st.sampled_from([b"", b"  ", b"\t"]),
)


@st.composite
def _asymmetry_edge(draw):
    """A frame whose asymmetry is at the tolerance, or one float above or below it."""
    s = draw(st.floats(0.0, 1e12))
    gap = LOAD_ASYMMETRY_TOL * max(1.0, s)
    gap = draw(st.sampled_from([gap, math.nextafter(gap, 0.0), math.nextafter(gap, math.inf)]))
    return json.dumps([[s, gap], [0.0, s]]).encode()


@st.composite
def _stream(draw):
    lines = draw(st.lists(_good_line, max_size=14))
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(BAD_LINES)).map(BAD_LINES.get),
                         _asymmetry_edge()))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return b"".join(line + end for line, end in zip(lines, ends))


@pytest.mark.parametrize("block", [1, 3, cli._FRAME_BLOCK, "stdin"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_stream())
def test_the_block_reader_reads_what_the_line_reader_reads(tmp_path, monkeypatch, block, data):
    path = tmp_path / "d.ndjson"
    path.write_bytes(data)
    if block == "stdin":  # no descriptor: one line per block
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        frames = cli._iter_frames("-")
    else:
        monkeypatch.setattr(cli, "_FRAME_BLOCK", block)
        frames = cli._iter_frames(str(path))
    assert drain(frames) == drain(frames_line_by_line(path))


_REJECTS_AT_3 = {"mode": "scalar", "m": [[0.0, 0.0], [0.0, 0.0]], "v": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("where", ["same block", "next block"])
@pytest.mark.parametrize("kind", sorted(BAD_LINES))
def test_a_bad_line_after_the_rejecting_frame_is_never_reported(tmp_path, capsys, kind, where):
    cfg = write_json(tmp_path / "t.json", _REJECTS_AT_3)
    frame = b"[[3.0, 0.0], [0.0, 3.0]]\n"
    before = 3 if where == "same block" else cli._FRAME_BLOCK
    data = tmp_path / "d.ndjson"
    data.write_bytes(frame * before + BAD_LINES[kind] + b"\n" + frame)
    out = tmp_path / "out.ndjson"
    assert main(["test", "--config", cfg, "--data", str(data), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text().splitlines()[-1])["rejected_at"] == 3


def test_reading_stdin_leaves_it_open(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "t.json", {"mode": "scalar", "m": [[0.0]], "v": [[1.0]]})
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b'[[0.1]]\n\n{"x": [[-0.2]]}\r\n')))
    outputs = []
    for i in range(2):
        out = tmp_path / f"out{i}.ndjson"
        assert main(["test", "--config", cfg, "--data", "-", "--output", str(out)]) == 0
        assert not sys.stdin.closed
        sys.stdin.buffer.seek(0)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0].splitlines()[-1])["frames"] == 2


def test_an_open_pipe_is_not_read_ahead(tmp_path):
    cfg = write_json(tmp_path / "t.json", {"mode": "scalar", "m": [[0.0]], "v": [[1.0]]})
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "matconc", "test", "--config", cfg, "--data", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        proc.stdin.write(b"[[3.0]]\n" * 3)  # rejects at frame 3; the pipe stays open
        proc.stdin.flush()
        rc = proc.wait(timeout=60)
    finally:
        proc.kill()
        out, err = proc.communicate()
    assert rc == 0, err
    assert json.loads(out.splitlines()[-1])["rejected_at"] == 3


def test_sequential_test_missing_config_keys(tmp_path, capsys):
    cfg = write_json(tmp_path / "t.json", {"mode": "matrix", "m": [[0.0]]})
    data = write_frames(tmp_path / "d.ndjson", [np.zeros((1, 1))])
    rc = main(["test", "--config", cfg, "--data", data])
    assert rc == 2
    assert "'v'" in capsys.readouterr().err
    cfg2 = write_json(tmp_path / "t2.json", {"mode": "teleport", "m": [[0.0]]})
    assert main(["test", "--config", cfg2, "--data", data]) == 2
    capsys.readouterr()
    cfg3 = write_json(
        tmp_path / "t3.json", {"mode": "scalar", "alpha": "x", "m": [[0.0]], "v": [[1.0]]}
    )
    assert main(["test", "--config", cfg3, "--data", data]) == 2
    assert capsys.readouterr().err.startswith("error: 'alpha' must be a number")


def test_power_compare(tmp_path):
    cfg = write_json(
        tmp_path / "pc.json",
        {
            "generator": {"kind": "GAUSSIAN_SCALED", "dim": 2,
                          "c": [[0.4, 0.0], [0.0, 0.4]]},
            "trials": 50,
            "horizon": 40,
            "mean_shift": [[-0.5, 0.0], [0.0, -0.5]],
        },
    )
    out = tmp_path / "pc_out.json"
    rc = main(["power-compare", "--config", str(cfg), "--seed", "2",
               "--output", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["null_is_true"] is False
    # the data mean exceeds the hypothesized one, both tests should fire
    assert res["matrix"]["reject_rate"] > 0.5
    assert res["scalar"]["reject_rate"] >= res["matrix"]["reject_rate"] - 0.1
    assert res["scalar"]["mean_stop"] <= res["matrix"]["mean_stop"] + 1e-9


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_power_compare_labels_a_psd_shift_as_the_null(tmp_path, shift):
    """The null is E X <= m0: a shift with no negative eigenvalue keeps it true."""
    cfg = write_json(
        tmp_path / "pc.json",
        {
            "generator": {"kind": "GAUSSIAN_SCALED", "dim": 2,
                          "c": [[0.4, 0.0], [0.0, 0.4]]},
            "trials": 50,
            "horizon": 40,
            "mean_shift": [[shift, 0.0], [0.0, shift]],
        },
    )
    out = tmp_path / "pc_out.json"
    assert main(["power-compare", "--config", str(cfg), "--seed", "2", "--output", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["null_is_true"] is True
    assert res["matrix"]["reject_rate"] <= 0.1 and res["scalar"]["reject_rate"] <= 0.1


BAD_STEP_SIZES = [0, -0.5, float("nan"), float("inf"), float("-inf"), "x"]


@pytest.mark.parametrize("value", BAD_STEP_SIZES)
def test_power_compare_rejects_a_bad_gamma_scale(tmp_path, capsys, value):
    cfg = write_json(
        tmp_path / "pc.json",
        {
            "generator": {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.4, 0.0], [0.0, 0.4]]},
            "trials": 5,
            "horizon": 10,
            "gamma_scale": value,
        },
    )
    out = tmp_path / "pc_out.json"
    assert main(["power-compare", "--config", cfg, "--seed", "2", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: 'gamma_scale' must be a positive finite number, got {value!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", BAD_STEP_SIZES)
@pytest.mark.parametrize("scale", [False, True])
def test_sequential_test_rejects_a_bad_gamma_before_reading_data(tmp_path, capsys, value, scale):
    gamma, name = ({"scale": value}, "'gamma' scale") if scale else (value, "'gamma'")
    if value == "x" and not scale:
        gamma, name = "x", None  # not a number or a schedule: the generic message
    cfg = write_json(
        tmp_path / "t.json", {"mode": "scalar", "m": [[0.0]], "v": [[1.0]], "gamma": gamma}
    )
    out = tmp_path / "out.ndjson"
    # the data file does not exist: reading it would be a different error
    missing = str(tmp_path / "missing.ndjson")
    assert main(["test", "--config", cfg, "--data", missing, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    if name is None:
        assert err.startswith("error: 'gamma' must be a positive number")
    else:
        assert err == f"error: {name} must be a positive finite number, got {value!r}\n"
    assert not out.exists()


def test_betting_rejects_an_inadmissible_gamma_before_reading_data(tmp_path, capsys):
    """BETTING needs ``I + gamma (X - M)`` PSD for every ``X <= B``: with
    ``M = I`` and ``B = 3 I`` that is ``gamma`` in ``(-1/2, 1)``."""
    cfg = write_json(
        tmp_path / "t.json",
        {"mode": "matrix", "builder": "BETTING", "m": [[1.0, 0.0], [0.0, 1.0]],
         "b": [[3.0, 0.0], [0.0, 3.0]], "gamma": 5},
    )
    out = tmp_path / "out.ndjson"
    # the data file does not exist: reading it would be a different error
    missing = str(tmp_path / "missing.ndjson")
    assert main(["test", "--config", cfg, "--data", missing, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: gamma 5.0 outside the open interval (-0.5, 1)\n"
    assert not out.exists()


def test_falsify_record_output(tmp_path):
    out = tmp_path / "falsify.json"
    rc = main(["falsify", "--p", "2.0", "--d", "2", "--instances", "10",
               "--trials-per-instance", "300", "--seed", "4",
               "--output", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["p"] == 2.0
    assert rec["best_ratio"] > 0.0
    assert len(rec["mats"]) >= 2


def test_float_serialization_round_trips(tmp_path):
    out = tmp_path / "o.json"
    rc = main(["falsify", "--p", "1.5", "--d", "1", "--instances", "5",
               "--trials-per-instance", "200", "--seed", "9",
               "--output", str(out)])
    assert rc == 0
    text = out.read_text()
    rec = json.loads(text)
    # serialize the parsed ratio again: the 17-digit writer must have
    # preserved the exact double
    assert repr(float(rec["best_ratio"])) != ""
    assert f'{rec["best_ratio"]:.17g}' in text.replace("e+0", "e+").replace("e-0", "e-") or str(rec["best_ratio"]) in text


def test_output_goes_to_stdout_without_flag(tmp_path, capsys):
    rc = main(["falsify", "--p", "2.0", "--d", "1", "--instances", "4",
               "--trials-per-instance", "100", "--seed", "1"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["d"] == 1


def run_module(*argv):
    """``python -m matconc *argv`` in a fresh interpreter, with a timeout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "matconc", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg = write_json(
        tmp_path / "t.json", {"mode": "scalar", "m": [[0.0]], "v": [[1.0]]}
    )
    data = write_frames(tmp_path / "d.ndjson", [np.array([[0.1]]), np.array([[-0.2]])])
    proc = run_module("test", "--config", cfg, "--data", data)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(s) for s in proc.stdout.splitlines()]
    assert [f["n"] for f in lines[:-1]] == [1, 2]
    assert lines[-1]["frames"] == 2
    assert lines[-1]["decision"] == "continue"


def test_verify_with_a_worker_pool_exits_and_matches_one_worker(tmp_path):
    # two runs of three path blocks each share the pool, which must not
    # keep the interpreter from exiting
    run = {"bound": "URSN", "trials": 2500, "horizon": 40,
           "generator": {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.5, 0.0], [0.0, 0.5]]}}
    cfg = write_json(tmp_path / "runs.json", {"runs": [run, dict(run, horizon=30)]})
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.json"
        proc = run_module("verify", "--config", cfg, "--seed", "5", "--workers", workers,
                          "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "bound,generator,field,value",
    [
        ("XMCI", {"kind": "EXCHANGEABLE_MIXTURE", "dim": 2, "d_dir": [[1.0, 0.0], [0.0, 1.0]],
                  "c": [[0.5, 0.0], [0.0, 0.5]]}, "tau", float("nan")),
        ("TRACE_PCHEB", {"kind": "SYMMETRIC_HEAVY", "dim": 2,
                         "d_dir": [[1.0, 0.0], [0.0, 1.0]]}, "tail_index", float("nan")),
        ("DOOB", {"kind": "IID_WISHART_LIKE", "dim": 2}, "scale", float("nan")),
        ("DOOB", {"kind": "IID_WISHART_LIKE", "dim": 2}, "scale", float("inf")),
    ],
)
def test_verify_rejects_a_non_finite_generator_scalar(tmp_path, capsys, bound, generator,
                                                     field, value):
    # a config error, not a coverage FAIL against a bound of nan
    run = {"bound": bound, "generator": {**generator, field: value}, "trials": 100}
    cfg = write_json(tmp_path / "cfg.json", {"runs": [run]})
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: '{field}' must be a number, got {value!r}\n"


FIXED_RUN = {"bound": "UMCI1", "generator": {"kind": "GAUSSIAN_SCALED", "dim": 2,
                                              "c": [[0.5, 0.0], [0.0, 0.5]]}, "trials": 200}


def _run_with(path, where, key, value):
    """A one-run verify config with ``key`` set to ``value`` in the run or its generator."""
    run = json.loads(json.dumps(FIXED_RUN))
    (run if where == "run" else run["generator"])[key] = value
    return write_json(path, {"runs": [run]})


@pytest.mark.parametrize("value", [2.7, True, False, 1e400])
@pytest.mark.parametrize("where,key", [("generator", "dim"), ("run", "trials"),
                                       ("run", "horizon")])
def test_verify_rejects_an_integer_field_that_is_not_an_integer(tmp_path, capsys, where, key,
                                                               value):
    cfg = _run_with(tmp_path / "cfg.json", where, key, value)
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    kind = "an integer" if value == 2.7 else "a number"
    assert captured.err == f"error: {key!r} must be {kind}, got {value!r}\n"


@pytest.mark.parametrize("key", ["trials_fixed", "trials_path", "horizon"])
def test_verify_suite_rejects_fractional_sizes(tmp_path, capsys, key):
    sizes = {"suite": "default", "dims": [1], "trials_fixed": 64, "trials_path": 64, "horizon": 5}
    for value in (64.5, True):
        cfg = write_json(tmp_path / "suite.json", {**sizes, key: value})
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key!r} must be")
    for dims, message in (([True], "'dims' entry 0 must be a number, got True"),
                          ([1, 1.5], "'dims' entry 1 must be an integer, got 1.5"),
                          ([2, "1"], "'dims' entry 1 must be a number, got '1'"),
                          ([0], "'dims' must be a list of positive integers, got [0]")):
        cfg = write_json(tmp_path / "suite.json", {**sizes, "dims": dims})
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_floats_run_as_their_integers(tmp_path):
    outs = []
    for i, (dim, trials) in enumerate(((2, 200), (2.0, 200.0))):
        run = json.loads(json.dumps(FIXED_RUN))
        run["generator"]["dim"], run["trials"] = dim, trials
        cfg = write_json(tmp_path / f"cfg{i}.json", {"runs": [run]})
        out = tmp_path / f"out{i}.json"
        assert main(["verify", "--config", cfg, "--seed", "3", "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # a suite's dims too
    sizes = {"suite": "default", "trials_fixed": 16, "trials_path": 16, "horizon": 5}
    for i, dims in enumerate(([1], [1.0])):
        cfg = write_json(tmp_path / f"suite{i}.json", {**sizes, "dims": dims})
        out = tmp_path / f"suite_out{i}.json"
        assert main(["verify", "--config", cfg, "--seed", "3", "--output", str(out)]) in (0, 1)
        outs.append(out.read_bytes())
    assert outs[2] == outs[3]


@pytest.mark.parametrize("key", ["trials", "horizon"])
def test_power_compare_rejects_fractional_sizes(tmp_path, capsys, key):
    base = {"generator": {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.4, 0.0], [0.0, 0.4]]},
            "trials": 5, "horizon": 10}
    out = tmp_path / "pc_out.json"
    for value, kind in ((7.5, "an integer"), (True, "a number")):
        cfg = write_json(tmp_path / "pc.json", {**base, key: value})
        assert main(["power-compare", "--config", cfg, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {key!r} must be {kind}, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["matrix", "scalar"])
def test_sequential_test_rejects_a_variance_bound_that_is_not_psd(tmp_path, capsys, mode):
    cfg = write_json(
        tmp_path / "t.json", {"mode": mode, "m": [[0.0, 0.0], [0.0, 0.0]], "v": [[-1, 0], [0, 1]]}
    )
    out = tmp_path / "out.ndjson"
    # the data file does not exist: reading it would be a different error
    missing = str(tmp_path / "missing.ndjson")
    assert main(["test", "--config", cfg, "--data", missing, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: 'v' must be positive semidefinite")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["matrix", "scalar"])
def test_sequential_test_takes_a_variance_bound_psd_within_tolerance(tmp_path, mode):
    # -1e-12 is a tie under TOL_PSD, as symmat.is_psd rules
    v = [[-1e-12, 0.0], [0.0, 1.0]]
    cfg = write_json(tmp_path / "t.json", {"mode": mode, "m": [[0.0, 0.0], [0.0, 0.0]], "v": v})
    xs = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=0.3 * np.eye(2)).sample_path(
        substream(5, 0), 8
    )
    data = write_frames(tmp_path / "d.ndjson", xs)
    out = tmp_path / "out.ndjson"
    assert main(["test", "--config", cfg, "--data", data, "--output", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[-1])["frames"] == 8


# ---------------------------------------------------------------------------
# configs fail loudly: strings are not numbers, and every key is known

GAUSS2 = {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.4, 0.0], [0.0, 0.4]]}
PC_BASE = {"generator": GAUSS2, "trials": 5, "horizon": 10}
TEST_BASE = {"mode": "matrix", "m": [[0.0, 0.0], [0.0, 0.0]], "v": [[0.09, 0.0], [0.0, 0.09]]}


ID2 = [[1.0, 0.0], [0.0, 1.0]]
SCAN_GEN = {"kind": "GAUSSIAN_SCALED", "dim": 2, "c": [[0.5, 0.0], [0.0, 0.5]]}
HEAVY_GEN = {"kind": "HEAVY_PSD", "dim": 2, "scale": 1.0, "tail_index": 1.75}
SHEAVY_GEN = {"kind": "SYMMETRIC_HEAVY", "dim": 2, "d_dir": [[0.2, 0.0], [0.0, 0.2]],
              "tail_index": 2.5}
BPSD_GEN = {"kind": "BOUNDED_PSD", "dim": 2, "m": ID2, "b": [[3.0, 0.0], [0.0, 3.0]]}
ELLIPSE_GEN = {"kind": "ELLIPSOID_RANK1", "dim": 2, "a": [[1.0, 0.0], [0.0, 2.0]]}
RAD_GEN = {"kind": "RADEMACHER_SCALED", "dim": 2, "c": [[0.5, 0.0], [0.0, 0.5]]}
GAMMA_MOMENTS = "parameter 'gamma' overflows the exponential moments, got "


def _one_run(bound, generator, params=None):
    run = {"bound": bound, "generator": generator, "trials": 16, "horizon": 10}
    if params is not None:
        run["params"] = params
    return {"runs": [run]}


def _verify_run(**changes):
    run = json.loads(json.dumps(FIXED_RUN))
    for key, val in changes.items():
        if key == "dim":
            run["generator"]["dim"] = val
        else:
            run[key] = val
    return {"runs": [run]}


def _run_cli(tmp_path, command, cfg_obj):
    """Exit code of ``command`` on ``cfg_obj``; ``test`` gets a data file that
    does not exist, so a config error is the only way to exit 2 before reading it."""
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    out = tmp_path / "out.json"
    argv = [command, "--config", cfg, "--output", str(out)]
    if command == "test":
        argv += ["--data", str(tmp_path / "missing.ndjson")]
    rc = main(argv)
    assert not out.exists()
    return rc


@pytest.mark.parametrize(
    "command,cfg_obj,message",
    [
        ("verify", _verify_run(dim="2"), "'dim' must be a number, got '2'"),
        ("verify", _verify_run(trials="200"), "'trials' must be a number, got '200'"),
        ("verify", _verify_run(horizon="50"), "'horizon' must be a number, got '50'"),
        ("verify", {"suite": "default", "dims": [1], "trials_fixed": "64"},
         "'trials_fixed' must be a number, got '64'"),
        ("verify", _verify_run(bound="TRACE_PCHEB", params={"p": "1.5"}),
         "parameter 'p' must be a number, got '1.5'"),
        ("power-compare", {**PC_BASE, "alpha": "0.05"}, "'alpha' must be a number, got '0.05'"),
        ("power-compare", {**PC_BASE, "trials": "200"}, "'trials' must be a number, got '200'"),
        ("power-compare", {**PC_BASE, "gamma_scale": "0.5"},
         "'gamma_scale' must be a positive finite number, got '0.5'"),
        ("test", {**TEST_BASE, "alpha": "0.05"}, "'alpha' must be a number, got '0.05'"),
        ("test", {**TEST_BASE, "gamma": {"scale": "1.0"}},
         "'gamma' scale must be a positive finite number, got '1.0'"),
        ("test", {**TEST_BASE, "randomizer": {"seed": "3"}}, "'seed' must be a number, got '3'"),
        # nor is it, or a boolean, a matrix entry
        ("verify", _one_run("UMMI", {**ELLIPSE_GEN, "a": [["1", 0], [0, True]]}),
         "run 0: generator 'a': matrix entries must be numbers, got '1'"),
        ("verify", _one_run("UMMI", ELLIPSE_GEN, {"a": [["2", 0], [0, True]]}),
         "parameter 'a': matrix entries must be numbers, got '2'"),
        ("test", {**TEST_BASE, "v": [[0.09, 0], [0, True]]},
         "'v': matrix entries must be numbers, got True"),
    ],
)
def test_a_json_string_is_not_a_number(tmp_path, capsys, command, cfg_obj, message):
    assert _run_cli(tmp_path, command, cfg_obj) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "cfg_obj,message",
    [
        (_verify_run(bound="UMCI_N", params={"n": 2.7}), "parameter 'n' must be an integer, got 2.7"),
        (_verify_run(bound="UMVI_MGF", params={"stopping": {"kind": "fixed", "n": 3.9}}),
         "parameter 'n' must be an integer, got 3.9"),
    ],
)
def test_a_fractional_integer_parameter_exits_2(tmp_path, capsys, cfg_obj, message):
    """An integer bound parameter is not truncated: 2.7 is not the sample size 2."""
    assert _run_cli(tmp_path, "verify", cfg_obj) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command,cfg_obj,message",
    [
        ("verify", {"dims": [1], "trials_fixed": 64},
         "config needs 'runs' (a list of runs) or 'suite' (\"default\")"),
        ("verify", {}, "config needs 'runs' (a list of runs) or 'suite' (\"default\")"),
        ("verify", {**_verify_run(), "dims": [1]}, "config: unknown key 'dims'"),
        ("verify", {**_verify_run(), "suite": "default"}, "config: unknown key 'suite'"),
        ("verify", {"suite": "default", "dim": [1]}, "config: unknown key 'dim'"),
        ("verify", _verify_run(trails=200), "run 0: unknown key 'trails'"),
        ("power-compare", {**PC_BASE, "mean_shfit": [[0.1, 0.0], [0.0, 0.1]]},
         "config: unknown key 'mean_shfit'"),
        ("test", {**TEST_BASE, "alhpa": 0.1}, "config: unknown key 'alhpa'"),
        ("test", {**TEST_BASE, "randomizer": {"kind": "uniform01", "sede": 1}},
         "'randomizer': unknown key 'sede'"),
        ("test", {**TEST_BASE, "gamma": {"scale": 1.0, "decay": 0.5}},
         "'gamma': unknown key 'decay'"),
        ("test", {"m": TEST_BASE["m"], "builder": "MGF",
                  "mgf": {"kind": "RADEMACHER", "matrix": [[1.0, 0.0], [0.0, 1.0]], "gamma": 1}},
         "'mgf': unknown key 'gamma'"),
        # a key that nothing reads: a bound's params, its randomizer and
        # stopping objects, a generator object
        ("verify", _one_run("XMCI", SCAN_GEN, {"p": 1.5}), "params: unknown key 'p'"),
        ("verify", _one_run("XMCI", SCAN_GEN, {"n_start": 77}), "params: unknown key 'n_start'"),
        ("verify", _one_run("XMCI2", SCAN_GEN, {"p": 1.5}), "params: unknown key 'p'"),
        ("verify", _one_run("XMPCI", HEAVY_GEN, {"n_start": 5}), "params: unknown key 'n_start'"),
        ("verify", _one_run("TRACE_PCHEB", SHEAVY_GEN, {"n_start": 5}),
         "params: unknown key 'n_start'"),
        ("verify", _one_run("MVI", BPSD_GEN, {"randomizer": "identity"}),
         "params: unknown key 'randomizer'"),
        ("verify", _one_run("MVI", BPSD_GEN, {"stopping": "first_crossing"}),
         "params: unknown key 'stopping'"),
        ("verify", _one_run("UMVI_BETTING", BPSD_GEN, {"stopping": {"kind": "geometric", "n": 5}}),
         "stopping: unknown key 'n'"),
        ("verify", _one_run("UMVI_BETTING", BPSD_GEN, {"stopping": {"kind": "fixed", "q": 0.1}}),
         "stopping: unknown key 'q'"),
        ("verify", _one_run("UMMI", ELLIPSE_GEN,
                            {"randomizer": {"kind": "scaled_identity", "sede": 3}}),
         "randomizer: unknown key 'sede'"),
        ("verify", _one_run("UMMI", {**ELLIPSE_GEN, "seed": 3}),
         "run 0: generator: unknown key 'seed'"),
        # a test key that the mode or the builder does not read
        ("test", {**TEST_BASE, "mode": "scalar", "builder": "SELF_NORMALIZED"},
         "config: unknown key 'builder'"),
        ("test", {**TEST_BASE, "mode": "scalar", "a": ID2}, "config: unknown key 'a'"),
        ("test", {**TEST_BASE, "mode": "scalar", "b": ID2}, "config: unknown key 'b'"),
        ("test", {**TEST_BASE, "mode": "scalar", "mgf": {"kind": "RADEMACHER", "matrix": ID2}},
         "config: unknown key 'mgf'"),
        ("test", {"m": TEST_BASE["m"], "builder": "BETTING", "b": ID2, "v": ID2},
         "config: unknown key 'v'"),
        ("test", {**TEST_BASE, "b": ID2}, "config: unknown key 'b'"),
        ("test", {**TEST_BASE, "builder": "SYMMETRIC_DIST",
                  "mgf": {"kind": "RADEMACHER", "matrix": ID2}}, "config: unknown key 'mgf'"),
    ],
)
def test_a_config_with_an_unknown_or_missing_key_exits_2(tmp_path, capsys, command, cfg_obj,
                                                          message):
    assert _run_cli(tmp_path, command, cfg_obj) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "bound,generator,a,message",
    [
        ("DOOB", SCAN_GEN, [[0, 0], [0, 0]], "parameter 'a' must be a positive multiple of I, got 0 I"),
        ("DOOB", SCAN_GEN, [[-1, 0], [0, -1]], "parameter 'a' must be a positive multiple of I, got -1 I"),
        ("XMCI", SCAN_GEN, 0, "parameter 'a' must be positive, got 0"),
        ("XMCI", SCAN_GEN, -1, "parameter 'a' must be positive, got -1"),
        ("XMCI2", SCAN_GEN, -2, "parameter 'a' must be positive, got -2"),
        ("XMPCI", HEAVY_GEN, 0, "parameter 'a' must be positive, got 0"),
        ("TRACE_PCHEB", SHEAVY_GEN, -1, "parameter 'a' must be positive, got -1"),
    ],
)
def test_a_scan_threshold_that_is_not_positive_exits_2(tmp_path, capsys, bound, generator, a, message):
    """A scan's threshold is positive: zero divides its bound by zero, and a
    negative one crosses at once, which would read as the bound failing."""
    assert _run_cli(tmp_path, "verify", _one_run(bound, generator, {"a": a})) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command,cfg_obj,message",
    [
        # a generator field names its run and its key
        ("verify", _one_run("UMMI", {**ELLIPSE_GEN, "a": [[1, 0.5], [0, 2]]}),
         "run 0: generator 'a': matrix is asymmetric beyond tolerance "
         "(5.000e-01 relative to 2.000e+00)"),
        ("verify", _one_run("UMMI", {**ELLIPSE_GEN, "a": [[1, 0], [0]]}),
         "run 0: generator 'a': matrix literal must be square"),
        ("verify", _one_run("UMMI", {**ELLIPSE_GEN, "a": [[1.0]]}),
         "run 0: generator 'a' has dimension 1, expected 2"),
        ("power-compare", {**PC_BASE, "generator": {**GAUSS2, "c": [[0.4, 0.1], [0.0, 0.4]]}},
         "generator 'c': matrix is asymmetric beyond tolerance"),
        # a bound parameter is read by the same rule: no silent averaging
        ("verify", _one_run("UMMI", ELLIPSE_GEN, {"a": [[1, 0.5], [0, 1]]}),
         "parameter 'a': matrix is asymmetric beyond tolerance (5.000e-01 relative to 1.000e+00)"),
        ("verify", _one_run("UMMI", ELLIPSE_GEN,
                            {"randomizer": {"kind": "shifted", "y": [[0.1, 0.2], [0, 0.1]]}}),
         "parameter 'y': matrix is asymmetric beyond tolerance"),
    ],
)
def test_every_config_matrix_is_read_by_one_rule(tmp_path, capsys, command, cfg_obj, message):
    assert _run_cli(tmp_path, command, cfg_obj) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "command,cfg_obj,message",
    [
        # a bound parameter out of range names its key before any sampling
        ("verify", _one_run("CHERNOFF_HOEFFDING", SCAN_GEN, {"gamma": 0}),
         "parameter 'gamma' must be a positive finite number, got 0.0"),
        ("verify", _one_run("CHERNOFF_HOEFFDING", SCAN_GEN, {"gamma": -1}),
         "parameter 'gamma' must be a positive finite number, got -1.0"),
        ("verify", _one_run("CHERNOFF_HOEFFDING", SCAN_GEN, {"a_scalar": 0}),
         "parameter 'a_scalar' must be positive, got 0"),
        ("verify", _one_run("CHERNOFF_HOEFFDING", SCAN_GEN, {"a_scalar": -2}),
         "parameter 'a_scalar' must be positive, got -2"),
        ("verify", _one_run("UMMI", HEAVY_GEN, {"a": [[1, 0], [0, -1]]}),
         "parameter 'a' must be positive definite, smallest eigenvalue -1"),
        ("verify", _one_run("UMCI1", SCAN_GEN, {"a": [[1, 0], [0, 0]]}),
         "parameter 'a' must be positive definite, smallest eigenvalue 0"),
        ("verify", _one_run("UMCI_N", SCAN_GEN, {"a": [[0, 1], [1, 0]]}),
         "parameter 'a' must be positive definite, smallest eigenvalue -1"),
        ("verify", _one_run("PCHEB1", SHEAVY_GEN, {"a": [[-1, 0], [0, -1]]}),
         "parameter 'a' must be positive definite, smallest eigenvalue -1"),
        # a step size whose square overflows
        ("test", {**TEST_BASE, "gamma": 1e200}, "'gamma' must be small enough to square, got 1e+200"),
        ("test", {**TEST_BASE, "mode": "scalar", "gamma": {"scale": 1e200}},
         "'gamma' scale must be small enough to square, got 1e+200"),
        ("power-compare", {**PC_BASE, "gamma_scale": 1e300},
         "'gamma_scale' must be small enough to square, got 1e+300"),
        # the step sizes used are gamma_scale / sqrt(lambda_max(V)), here 1e150 / 1e-12
        ("power-compare", {**PC_BASE, "gamma_scale": 1e150,
                           "generator": {**GAUSS2, "c": [[1e-300, 0.0], [0.0, 1e-300]]}},
         "the first step size 'gamma_scale' / sqrt(lambda_max(V)) must be small enough to square"),
        ("verify", _one_run("URSN", SCAN_GEN, {"gamma_scale": 1e300}),
         "parameter 'gamma_scale' must be small enough to square, got 1e+300"),
        ("verify", _one_run("UMVI_SELF_NORMALIZED", SCAN_GEN, {"gamma_scale": 1e200}),
         "parameter 'gamma_scale' must be small enough to square, got 1e+200"),
        ("verify", _one_run("CHERNOFF_HOEFFDING", SCAN_GEN, {"gamma": 1e200}),
         "parameter 'gamma' must be small enough to square, got 1e+200"),
        # CHERNOFF1 squares 2 gamma
        ("verify", _one_run("CHERNOFF1", SCAN_GEN, {"gamma": 1e154}),
         "twice parameter 'gamma' must be small enough to square, got 2e+154"),
        # a step size that overflows the bound's exponential moments, before any sampling
        ("verify", _one_run("CHERNOFF1", SCAN_GEN, {"gamma": 1e100}), GAMMA_MOMENTS + "1e+100"),
        ("verify", _one_run("CHERNOFF_HOEFFDING", SCAN_GEN, {"gamma": 1e100}), GAMMA_MOMENTS + "1e+100"),
        ("verify", _one_run("CHERNOFF_HOEFFDING", RAD_GEN, {"gamma": 1e100, "mgf_kind": "BENNETT_I"}),
         GAMMA_MOMENTS + "1e+100"),
    ],
)
def test_malformed_inputs_exit_2_with_one_error_line(tmp_path, capsys, command, cfg_obj, message):
    assert _run_cli(tmp_path, command, cfg_obj) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "test", "power-compare", "falsify"])
@pytest.mark.parametrize("where", ["missing directory", "directory", "empty path"])
def test_an_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --output")

    for name in ("_load_config", "run_default_suite", "falsify_conjecture"):
        monkeypatch.setattr(cli, name, no_work)
    out, reason = {
        "missing directory": (str(tmp_path / "missing" / "out.json"), "No such file or directory"),
        "directory": (str(tmp_path), "Is a directory"),
        "empty path": ("", "Is a directory"),  # the working directory
    }[where]
    argv = {"verify": [], "test": ["--config", "c.json", "--data", "d.ndjson"],
            "power-compare": ["--config", "c.json"], "falsify": ["--p", "1.5", "--d", "2"]}
    assert main([command, *argv[command], "--output", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert os.listdir(tmp_path) == []


def test_checking_the_output_leaves_only_the_output(tmp_path):
    out = tmp_path / "out.json"
    argv = ["falsify", "--p", "1.5", "--d", "2", "--instances", "2", "--trials-per-instance", "10"]
    assert main([*argv, "--output", str(out)]) == 0
    assert os.listdir(tmp_path) == ["out.json"]


def _readme_configs():
    """The JSON config examples of the README, in order."""
    text = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    return [json.loads(block.split("```")[0]) for block in text.split("```json\n")[1:]]


def test_the_readme_configs_run(tmp_path):
    configs = _readme_configs()
    assert [sorted(c)[0] for c in configs] == ["runs", "alpha", "generator"]
    runs, test_cfg, pc = configs
    for run in runs["runs"]:
        run["trials"] = 2000  # smaller than the README's, with every key kept
    assert main(["verify", "--config", write_json(tmp_path / "runs.json", runs), "--seed", "3",
                 "--output", str(tmp_path / "reports.json")]) == 0
    xs = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=0.3 * np.eye(2)).sample_path(
        substream(5, 0), 20
    )
    assert main(["test", "--config", write_json(tmp_path / "test.json", test_cfg),
                 "--data", write_frames(tmp_path / "d.ndjson", xs),
                 "--output", str(tmp_path / "out.ndjson")]) == 0
    pc.update(trials=50, horizon=20)
    assert main(["power-compare", "--config", write_json(tmp_path / "pc.json", pc), "--seed", "2",
                 "--output", str(tmp_path / "pc_out.json")]) == 0


BENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_the_benchmark_configs_run(tmp_path):
    # the pinned suite, at a few trials per run
    with open(os.path.join(BENCH, "data", "suite_runs.json")) as fh:
        suite = json.load(fh)
    for run in suite["runs"]:
        run["trials"] = 16
    assert main(["verify", "--config", write_json(tmp_path / "suite.json", suite), "--seed", "3",
                 "--output", str(tmp_path / "reports.json")]) in (0, 1)
    assert len(json.loads((tmp_path / "reports.json").read_text())) == len(suite["runs"])
    # the generated power-compare and stream configs, made by the benchmark's own code
    script = (
        "import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import run; "
        "prog = run.import_matconc(); "
        "pc = run.load_inputs(prog, 'power_compare', 1, run.SIZES['tiny'], Path(sys.argv[2])); "
        "st = run.load_inputs(prog, 'stream_test', 1, run.SIZES['tiny'], Path(sys.argv[2])); "
        "print(json.dumps([pc.pc_config, st.data, [c for _, c in st.test_configs]]))"
    )
    proc = subprocess.run([sys.executable, "-c", script, BENCH, str(tmp_path / "bench")],
                          capture_output=True, text=True, check=True)
    pc_config, data, test_configs = json.loads(proc.stdout)
    assert main(["power-compare", "--config", pc_config, "--seed", "1",
                 "--output", str(tmp_path / "pc.json")]) == 0
    assert len(test_configs) == 2
    for i, cfg in enumerate(test_configs):
        assert main(["test", "--config", cfg, "--data", data,
                     "--output", str(tmp_path / f"t{i}.ndjson")]) == 0


# ---------------------------------------------------------------------------
# output files get the mode that open(path, "w") would leave


@pytest.fixture
def umask():
    """Sets the process umask for a test; restores it afterwards."""
    saved = os.umask(0o022)
    try:
        yield os.umask
    finally:
        os.umask(saved)


def _power_compare_to(tmp_path, out):
    cfg = write_json(tmp_path / "pc.json", PC_BASE)
    return main(["power-compare", "--config", cfg, "--seed", "2", "--output", str(out)])


@pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)])
def test_a_new_output_file_gets_its_mode_from_the_umask(tmp_path, umask, mask, mode):
    umask(mask)
    out = tmp_path / "pc_out.json"
    assert _power_compare_to(tmp_path, out) == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode
    # no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pc.json", "pc_out.json"]


@pytest.mark.parametrize("mode", [0o644, 0o604])
def test_an_existing_output_file_keeps_its_mode(tmp_path, umask, mode):
    out = tmp_path / "pc_out.json"
    out.write_text("earlier output\n")
    out.chmod(mode)
    assert _power_compare_to(tmp_path, out) == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert json.loads(out.read_text())["trials"] == PC_BASE["trials"]


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    try:
        assert _power_compare_to(tmp_path, tmp_path / "a.json") == 0
        once = len(built)
        assert _power_compare_to(tmp_path, tmp_path / "b.json") == 0
    finally:
        cli._build_parser.cache_clear()
    assert once > 0 and len(built) == once


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('an argument parser was built')\n"
        "argparse.ArgumentParser.__init__ = refuse\n"
        "import matconc.cli\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_calls_of_main_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    """``verify --trials 7``, then ``verify`` without it (``trials`` reads None
    again), ``power-compare`` and ``test`` through the one cached parser print
    and write what a fresh interpreter running each one does."""
    run = {"bound": "UMCI1", "generator": GAUSS2}
    verify_cfg = write_json(tmp_path / "verify.json", {"runs": [run]})
    test_cfg = write_json(tmp_path / "test.json", {**TEST_BASE, "mode": "scalar"})
    xs = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=0.3 * np.eye(2)).sample_path(
        substream(5, 0), 20
    )
    data = write_frames(tmp_path / "d.ndjson", xs)
    calls = [
        ["verify", "--config", verify_cfg, "--trials", "7", "--seed", "3"],
        ["verify", "--config", verify_cfg, "--seed", "3"],
        ["power-compare", "--config", write_json(tmp_path / "pc.json", PC_BASE), "--seed", "2"],
        ["test", "--config", test_cfg, "--data", data],
    ]
    cli._build_parser()  # built before the first call, as in a process that already ran one
    for i, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{i}.out", tmp_path / f"fresh{i}.out"
        assert main(argv + ["--output", str(here)]) in (0, 1)
        printed = capsys.readouterr()
        proc = run_module(*argv, "--output", str(fresh))
        assert proc.returncode in (0, 1), proc.stderr
        assert (printed.out, printed.err) == (proc.stdout, proc.stderr)
        assert here.read_bytes() == fresh.read_bytes()
    # the two verify calls ran 7 and the default 10 000 trials
    trials = [json.loads((tmp_path / f"here{i}.out").read_text())[0]["trials"] for i in (0, 1)]
    assert trials == [7, 10_000]
