import json
import os
import subprocess
import sys

import numpy as np
import pytest

from matconc.cli import main
from matconc.generators import GeneratorSpec
from matconc.rng import substream


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
@pytest.mark.parametrize("where,key", [("generator", "dim"), ("generator", "seed"),
                                       ("run", "trials"), ("run", "horizon")])
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
    cfg = write_json(tmp_path / "suite.json", {**sizes, "dims": [True]})
    assert main(["verify", "--config", cfg]) == 2
    assert "'dims' must be a list of positive integers" in capsys.readouterr().err


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
        ("test", {**TEST_BASE, "builder": "MGF",
                  "mgf": {"kind": "RADEMACHER", "matrix": [[1.0, 0.0], [0.0, 1.0]], "gamma": 1}},
         "'mgf': unknown key 'gamma'"),
    ],
)
def test_a_config_with_an_unknown_or_missing_key_exits_2(tmp_path, capsys, command, cfg_obj,
                                                          message):
    assert _run_cli(tmp_path, command, cfg_obj) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


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
