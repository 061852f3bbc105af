"""Command-line front end.

Four subcommands:

``matconc verify``
    Run Monte Carlo coverage checks from a JSON config (or the built-in
    default suite) and report PASS/FAIL per bound.
``matconc test``
    Run the sequential matrix-mean test over a stream of observations
    (one JSON matrix per line), emitting a decision frame per step.
``matconc power-compare``
    Simulate the matrix-threshold and scalar-threshold versions of the
    sequential test side by side and report rejection rates and mean
    stopping times.
``matconc falsify``
    Randomized search for counterexamples to the trace p-th moment
    contraction ratio, each instance's ratio exact; prints the worst
    instance found, which refutes the conjecture if its ratio exceeds 1
    beyond rounding, and never proves it.

Exit codes: 0 success (and all verifications passed), 1 at least one
coverage FAIL verdict, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import martingales as mg
from . import rng as _rng
from . import scalar_e as se
from . import symmat as sm
from .errors import ConfigError, MatconcError, config_keys, config_number, config_step_size
from .fixed_bounds import MgfSpec
from .generators import GeneratorSpec
from .processes import FactorProcess, TraceExpProcess, sequential_test_stops
from .randomizers import ScalarRandomizer
from .simulator import McConfig, falsify_conjecture, run_coverage, run_default_suite

__all__ = ["main"]


# ---------------------------------------------------------------------------
# JSON output: floats in their shortest round-trip form


def _dump_json(obj) -> str:
    """Report text: indented JSON, one trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def _num(obj: dict, key: str, default, kind=float):
    """``obj[key]``, or ``default`` when absent, as a number of ``kind``
    (see :func:`~matconc.errors.config_number`)."""
    return config_number(obj.get(key, default), repr(key), kind)


def _matrix(
    obj: dict, key: str, d: int | None, missing: str | None = None, psd: bool = False
) -> np.ndarray:
    """The matrix literal under ``key`` (see :func:`~matconc.symmat.config_matrix`)
    and, with ``psd``, positive semidefinite (``symmat.is_psd``); ``missing`` is the
    error when absent."""
    if key not in obj:
        raise ConfigError(missing or f"config needs {key!r}")
    mat = sm.config_matrix(obj[key], repr(key), d)
    if psd and not sm.is_psd(mat):
        raise ConfigError(
            f"{key!r} must be positive semidefinite, smallest eigenvalue {sm.lambda_min(mat):g}"
        )
    return mat


def _write_atomic(path: str | None, text: str) -> None:
    """Write output all-or-nothing; partial files never appear.

    The file gets the mode ``open(path, "w")`` would leave: an existing
    file keeps its own, a new one gets ``0o666`` less the umask.
    """
    if path is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".matconc-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            os.fchmod(fh.fileno(), _file_mode(path))
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def _check_output(path: str) -> None:
    """A ConfigError now, before any work, unless ``path`` can take the
    output: it is not a directory (an empty path names the working
    directory) and its directory exists and may be written to."""
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    if os.path.isdir(target):
        reason = errno.EISDIR
    elif not os.path.isdir(directory):
        reason = errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {path}: {os.strerror(reason)}")


def _file_mode(path: str) -> int:
    """The permission bits of ``path``, or for a new file ``0o666`` less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # the umask can only be read by setting it; meanwhile 0o077 errs on the private side
        umask = os.umask(0o077)
        os.umask(umask)
        return 0o666 & ~umask


def _json_error(exc: Exception):
    """What ``json`` raised, for an error message; Python's limit on the
    digits of an integer literal is named in matconc's words, without its
    advice to raise the limit in the interpreter."""
    if type(exc) is ValueError and "integer string conversion" in str(exc):
        return f"integer literal longer than {sys.get_int_max_str_digits()} digits"
    return exc


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8 (byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:  # also an over-long integer, too deep a nesting
        raise ConfigError(f"config {path} is not valid JSON: {_json_error(exc)}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _generator_from_json(obj, where: str) -> GeneratorSpec:
    """The generator object ``obj``; errors in its fields name ``where``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    matrices, scalars = ("m", "c", "b", "d_dir", "a"), ("tail_index", "tau", "scale")
    config_keys(obj, ("kind", "dim") + matrices + scalars, where)
    if "kind" not in obj or "dim" not in obj:
        raise ConfigError(f"{where} needs at least 'kind' and 'dim'")
    kwargs = {"kind": obj["kind"], "dim": _num(obj, "dim", None, int)}
    for field in matrices:
        if obj.get(field) is not None:
            kwargs[field] = sm.config_matrix(obj[field], f"{where} {field!r}", kwargs["dim"])
    for field in scalars:
        if obj.get(field) is not None:
            kwargs[field] = _num(obj, field, None)
    return GeneratorSpec(**kwargs)


# ---------------------------------------------------------------------------
# verify


_RUN_KEYS = ("bound", "generator", "trials", "horizon", "params")
_SUITE_KEYS = ("suite", "dims", "trials_fixed", "trials_path", "horizon")


def _cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    cfg = _load_config(args.config) if args.config else {"suite": "default"}
    seed = args.seed
    reports = []
    if "runs" in cfg:
        config_keys(cfg, ("runs",), "config")
        runs = cfg["runs"]
        if not isinstance(runs, list) or not runs:
            raise ConfigError("'runs' must be a non-empty list")
        for i, run in enumerate(runs):
            if not isinstance(run, dict):
                raise ConfigError(f"run {i}: must be a JSON object")
            config_keys(run, _RUN_KEYS, f"run {i}")
            if "bound" not in run or "generator" not in run:
                raise ConfigError(f"run {i}: needs 'bound' and 'generator'")
            gen = _generator_from_json(run["generator"], f"run {i}: generator")
            mc = McConfig(
                trials=_num(run, "trials", args.trials or 10_000, int),
                horizon=_num(run, "horizon", 200, int),
                workers=args.workers,
                base_seed=seed,
            )
            params = run.get("params")
            if params is not None and not isinstance(params, dict):
                raise ConfigError(f"run {i}: 'params' must be an object")
            reports.append(run_coverage(run["bound"], gen, mc, params))
    elif "suite" not in cfg:
        raise ConfigError("config needs 'runs' (a list of runs) or 'suite' (\"default\")")
    elif cfg["suite"] == "default":
        config_keys(cfg, _SUITE_KEYS, "config")
        dims = cfg.get("dims", [1, 2, 5])
        if not isinstance(dims, list):
            raise ConfigError("'dims' must be a list of positive integers")
        dims = tuple(config_number(d, f"'dims' entry {i}", int) for i, d in enumerate(dims))
        if any(d < 1 for d in dims):
            raise ConfigError(f"'dims' must be a list of positive integers, got {list(dims)}")
        reports = run_default_suite(
            dims=dims,
            trials_fixed=_num(cfg, "trials_fixed", args.trials or 100_000, int),
            trials_path=_num(cfg, "trials_path", args.trials or 10_000, int),
            horizon=_num(cfg, "horizon", 200, int),
            workers=args.workers,
            base_seed=seed,
        )
    else:
        raise ConfigError(f"unknown suite {cfg.get('suite')!r}")
    failures = 0
    for rep in reports:
        status = "PASS" if rep.verdict else "FAIL"
        vac = " (vacuous)" if rep.vacuous else ""
        print(
            f"{status} {rep.name}: freq {rep.event_freq:.6f} "
            f"vs bound {rep.stated_bound:.6f}{vac}"
        )
        failures += 0 if rep.verdict else 1
    if args.output:
        _write_atomic(args.output, _dump_json([r.to_dict() for r in reports]))
    print(f"{len(reports) - failures}/{len(reports)} coverage checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# test


#: Lines of a regular data file that :func:`_iter_frames` reads and checks together.
_FRAME_BLOCK = 256


def _iter_frames(path: str):
    """Yield (line_number, matrix) from a stream of one-JSON-per-line.

    The stream is read as bytes and each line decoded on its own, so
    invalid UTF-8 is reported with the number of its line.  A regular
    file is read ``_FRAME_BLOCK`` lines at a time and each block's frames
    are checked as one stack (:func:`~matconc.symmat.accepted_matrices`);
    anything else (stdin from a pipe or a terminal, a FIFO) one line at a
    time, since reading ahead there waits for lines the test may not need.
    A line the stack check does not accept is read by :func:`_frame`, the
    rule for one line, when the caller asks for it, so every matrix, error
    and line number is that of reading line by line, and a bad line after
    the last frame asked for is never reported.  Only a file opened here
    is closed: ``-`` leaves stdin open.
    """
    try:
        fh = open(path, "rb") if path != "-" else contextlib.nullcontext(sys.stdin.buffer)
    except OSError as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from exc
    with fh as stream:
        try:
            regular = stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
        except (OSError, ValueError):  # no descriptor: an in-memory stream
            regular = False
        lines = enumerate(stream, start=1)
        while block := list(itertools.islice(lines, _FRAME_BLOCK if regular else 1)):
            parsed = []  # (line number, bytes, decoded literal or None), blank lines left out
            for lineno, raw in block:
                try:
                    line = raw.decode("utf-8")
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                except (ValueError, RecursionError):  # _frame raises it when the line is reached
                    obj = None
                parsed.append((lineno, raw, obj.get("x") if isinstance(obj, dict) else obj))
            mats = sm.accepted_matrices([obj for _, _, obj in parsed])
            for (lineno, raw, _), mat in zip(parsed, mats):
                yield lineno, _frame(lineno, raw) if mat is None else mat


def _frame(lineno: int, raw: bytes) -> np.ndarray:
    """The matrix on data line ``lineno``, whose bytes ``raw`` are not blank;
    a ConfigError naming the line if it holds none."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"data line {lineno}: not valid UTF-8") from None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also an over-long integer, too deep a nesting
        msg = exc.msg if isinstance(exc, json.JSONDecodeError) else _json_error(exc)
        raise ConfigError(f"data line {lineno}: invalid JSON ({msg})") from exc
    if isinstance(obj, dict):
        if "x" not in obj:
            raise ConfigError(f"data line {lineno}: frame object needs key 'x'")
        obj = obj["x"]
    return sm.config_matrix(obj, f"data line {lineno}")


def _gamma_fn(raw):
    if raw is None:
        return mg.default_gamma_schedule(1.0)
    if isinstance(raw, (int, float)):
        g = config_step_size(raw, "'gamma'")
        return lambda n: g
    if isinstance(raw, dict) and "scale" in raw:
        config_keys(raw, ("scale",), "'gamma'")
        return mg.default_gamma_schedule(config_step_size(raw["scale"], "'gamma' scale"))
    raise ConfigError("'gamma' must be a positive number or {\"scale\": s}")


_TEST_KEYS = ("mode", "alpha", "m", "gamma", "randomizer")


def _cmd_test(args) -> int:
    cfg = _load_config(args.config)
    mode = cfg.get("mode", "matrix")
    if mode not in ("matrix", "scalar"):
        raise ConfigError(f"mode must be 'matrix' or 'scalar', got {mode!r}")
    # the keys the rule reads: scalar mode's, or matrix mode's and its builder's
    if mode == "scalar":
        rule_keys = ("v",)
    else:
        builder = cfg.get("builder", "SELF_NORMALIZED")
        if builder not in mg.BUILDER_KINDS:
            raise ConfigError(f"builder must be one of {mg.BUILDER_KINDS}, got {builder!r}")
        by_builder = {"SELF_NORMALIZED": ("v",), "BETTING": ("b",), "MGF": ("mgf",)}
        rule_keys = ("builder", "a") + by_builder.get(builder, ())
    config_keys(cfg, _TEST_KEYS + rule_keys, "config")
    alpha = _num(cfg, "alpha", 0.05)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    m = _matrix(cfg, "m", None, "config needs 'm', the hypothesized mean matrix")
    d = m.shape[0]
    gamma_fn = _gamma_fn(cfg.get("gamma"))
    rand_cfg = cfg.get("randomizer")
    randomizer = None
    if rand_cfg is not None:
        if not isinstance(rand_cfg, dict):
            raise ConfigError("'randomizer' must be an object")
        config_keys(rand_cfg, ("kind", "seed"), "'randomizer'")
        seed = rand_cfg.get("seed", args.seed)
        randomizer = ScalarRandomizer(
            rand_cfg.get("kind", "uniform01"),
            seed=None if seed is None else _num(rand_cfg, "seed", seed, int),
        )

    if mode == "matrix":
        params = {}
        if builder == "SELF_NORMALIZED":
            params["v"] = _matrix(
                cfg, "v", d, "SELF_NORMALIZED needs 'v', the variance bound", psd=True
            )
        elif builder == "BETTING":
            b = _matrix(cfg, "b", d, "BETTING needs 'b', the upper bound matrix")
            # raises unless gamma_1 is admissible; gamma_n <= gamma_1 on every schedule
            mg.build_factors("BETTING", m, m, gamma_fn(1), b=b)
        elif builder == "MGF":
            row = cfg.get("mgf")
            if not isinstance(row, dict) or "kind" not in row or "matrix" not in row:
                raise ConfigError("MGF needs 'mgf': {\"kind\":..., \"matrix\":...}")
            config_keys(row, ("kind", "matrix"), "'mgf'")
            params["mgf"] = MgfSpec(row["kind"], _matrix(row, "matrix", d))
        a_thresh = _matrix(cfg, "a", d) if "a" in cfg else (d / alpha) * np.eye(d)
        a_thresh = se.calibrated_threshold(alpha, a_thresh)
        proc = FactorProcess(builder, m, a_thresh, **params)
        key = "trace"
    else:
        v = _matrix(cfg, "v", d, "scalar mode needs 'v', the variance bound", psd=True)
        proc = TraceExpProcess(m, v, alpha)
        key = "log_value"

    # each frame is one step of a matconc.processes process on its one
    # path: the step first_crossing takes for power-compare and path runs
    frames_out = []
    rejected_at = None
    n = 0
    for lineno, x in _iter_frames(args.data):
        if x.shape[0] != d:
            raise ConfigError(
                f"data line {lineno}: dimension {x.shape[0]} != mean dimension {d}"
            )
        n += 1
        gamma = gamma_fn(n)
        try:
            reject = bool(proc.step(x, gamma))
        except MatconcError as exc:
            raise ConfigError(f"data line {lineno} at step size 'gamma' = {gamma!r}: {exc}") from exc
        value = sm.trace(proc.value) if mode == "matrix" else float(proc.value)
        frames_out.append({"n": n, key: value, "reject": reject})
        if reject:
            rejected_at = n
            break
    if rejected_at is None and randomizer is not None and n > 0:
        u = randomizer.sample()
        final = bool(proc.stopped_event(proc.value, u))
        if final:
            rejected_at = n
        frames_out.append({"n": n, "u": u, "reject": final})

    summary = {
        "mode": mode,
        "alpha": alpha,
        "frames": n,
        "decision": "reject" if rejected_at is not None else "continue",
        "rejected_at": rejected_at,
    }
    # one JSON record per line so the stream stays greppable/splittable
    lines = [json.dumps(f) for f in frames_out + [summary]]
    _write_atomic(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# power-compare


_POWER_COMPARE_KEYS = ("generator", "alpha", "trials", "horizon", "gamma_scale", "mean_shift")


def _cmd_power_compare(args) -> int:
    cfg = _load_config(args.config)
    config_keys(cfg, _POWER_COMPARE_KEYS, "config")
    if "generator" not in cfg:
        raise ConfigError("config needs 'generator'")
    gen = _generator_from_json(cfg["generator"], "generator")
    d = gen.dim
    alpha = _num(cfg, "alpha", 0.05)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    trials = _num(cfg, "trials", 2000, int)
    horizon = _num(cfg, "horizon", 200, int)
    if trials < 1 or horizon < 1:
        raise ConfigError("trials and horizon must be positive")
    gamma_scale = config_step_size(cfg.get("gamma_scale", 0.5), "'gamma_scale'")
    # the hypothesized mean: the truth plus an optional shift, so
    # shift = 0 measures size and shift != 0 measures power
    m0, null_is_true = gen.mean(), True
    if cfg.get("mean_shift") is not None:
        shift = _matrix(cfg, "mean_shift", d)
        m0 = m0 + shift
        # the null E X <= m0 holds when the shift is PSD
        null_is_true = bool(sm.lambda_min(shift) >= -sm.TOL_PSD)
    try:
        v = gen.variance()
    except ConfigError as exc:
        raise ConfigError(f"power comparison needs a known variance: {exc}") from exc
    seed = args.seed if args.seed is not None else _rng.default_seed()
    lam_v = max(math.sqrt(sm.lambda_max(v)), 1e-12)
    gammas = gamma_scale / (lam_v * np.sqrt(np.arange(1, horizon + 1)))
    config_step_size(float(gammas[0]), "the first step size 'gamma_scale' / sqrt(lambda_max(V))")
    stops = sequential_test_stops(gen, m0, v, gammas, alpha, trials, seed)
    out = {
        "alpha": alpha,
        "trials": trials,
        "horizon": horizon,
        "dim": d,
        "generator": gen.kind,
        "null_is_true": null_is_true,
    }
    for rule, stop in stops.items():
        out[rule] = {
            "reject_rate": int(np.count_nonzero(stop)) / trials,
            "mean_stop": int(np.where(stop > 0, stop, horizon).sum()) / trials,
        }
    out["seed"] = seed
    _write_atomic(args.output, _dump_json(out))
    return 0


# ---------------------------------------------------------------------------
# falsify


def _cmd_falsify(args) -> int:
    rec = falsify_conjecture(p=args.p, d=args.d, instances=args.instances, seed=args.seed)
    _write_atomic(args.output, _dump_json(rec.to_dict()))
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and kept: each
    ``parse_args`` fills a namespace of its own, so calls do not share state."""
    parser = argparse.ArgumentParser(
        prog="matconc",
        description="Randomized matrix concentration bounds: verification and testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed (default: MATCONC_SEED env var or built-in)",
    )
    common.add_argument(
        "--output", default=None, help="output file (default: stdout); written atomically"
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="Monte Carlo coverage checks"
    )
    p_verify.add_argument("--config", default=None, help="JSON run config")
    p_verify.add_argument("--trials", type=int, default=None, help="trials per run")
    p_verify.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers, capped at the CPUs available; one pool per "
        "process, reused across runs",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_test = sub.add_parser(
        "test", parents=[common], help="sequential matrix-mean test on a data stream"
    )
    p_test.add_argument("--config", required=True, help="JSON test config")
    p_test.add_argument(
        "--data", required=True, help="observations, one JSON matrix per line ('-' for stdin)"
    )
    p_test.set_defaults(fn=_cmd_test)

    p_power = sub.add_parser(
        "power-compare",
        parents=[common],
        help="matrix- vs scalar-threshold sequential test, simulated head to head",
    )
    p_power.add_argument("--config", required=True, help="JSON comparison config")
    p_power.set_defaults(fn=_cmd_power_compare)

    p_fals = sub.add_parser(
        "falsify", parents=[common], help="search for trace-moment ratio counterexamples"
    )
    p_fals.add_argument("--p", type=float, required=True, help="moment order in [1,2]")
    p_fals.add_argument("--d", type=int, required=True, help="matrix dimension")
    p_fals.add_argument("--instances", type=int, default=200)
    p_fals.set_defaults(fn=_cmd_falsify)
    return parser


def main(argv=None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names; its exit code.

    The parser is built on the first call and reused by the later calls
    of the process, which each parse as a fresh interpreter would.
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.output is not None:
            _check_output(args.output)
        return args.fn(args)
    except MatconcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
