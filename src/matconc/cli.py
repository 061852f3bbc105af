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
    contraction ratio; prints the worst instance found, never a proof.

Exit codes: 0 success (and all verifications passed), 1 at least one
coverage FAIL verdict, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import martingales as mg
from . import rng as _rng
from . import scalar_e as se
from . import symmat as sm
from .errors import ConfigError, MatconcError, config_number
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


def _known_keys(obj: dict, allowed, where: str) -> None:
    """A ConfigError naming the first key of ``obj`` that is not in ``allowed``."""
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ConfigError(f"{where}: unknown key {extra[0]!r}; expected one of {sorted(allowed)}")


def _matrix(
    obj: dict, key: str, d: int | None, missing: str | None = None, psd: bool = False
) -> np.ndarray:
    """The matrix literal under ``key``, checked to be ``d x d`` unless ``d`` is None
    and, with ``psd``, positive semidefinite (``symmat.is_psd``); ``missing`` is the
    error when absent."""
    if key not in obj:
        raise ConfigError(missing or f"config needs {key!r}")
    try:
        mat = sm.parse_matrix_json(obj[key])
    except MatconcError as exc:
        raise ConfigError(f"{key!r}: {exc}") from None
    if d is not None and mat.shape[0] != d:
        raise ConfigError(f"{key!r} has dimension {mat.shape[0]}, expected {d}")
    if psd and not sm.is_psd(mat):
        raise ConfigError(
            f"{key!r} must be positive semidefinite, smallest eigenvalue {sm.lambda_min(mat):g}"
        )
    return mat


def _write_atomic(path: str | None, text: str) -> None:
    """Write output all-or-nothing; partial files never appear."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".matconc-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8 (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _generator_from_json(obj) -> GeneratorSpec:
    if not isinstance(obj, dict):
        raise ConfigError("generator must be a JSON object")
    extra = set(obj) - {f.name for f in dataclasses.fields(GeneratorSpec)}
    if extra:
        raise ConfigError(f"unknown generator fields: {sorted(extra)}")
    if "kind" not in obj or "dim" not in obj:
        raise ConfigError("generator needs at least 'kind' and 'dim'")
    kwargs = {"kind": obj["kind"], "dim": _num(obj, "dim", None, int)}
    for field in ("m", "c", "b", "d_dir", "a"):
        if obj.get(field) is not None:
            kwargs[field] = sm.parse_matrix_json(obj[field])
    for field in ("tail_index", "tau", "scale"):
        if obj.get(field) is not None:
            kwargs[field] = _num(obj, field, None)
    if obj.get("seed") is not None:
        kwargs["seed"] = _num(obj, "seed", None, int)
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
        _known_keys(cfg, ("runs",), "config")
        runs = cfg["runs"]
        if not isinstance(runs, list) or not runs:
            raise ConfigError("'runs' must be a non-empty list")
        for i, run in enumerate(runs):
            if not isinstance(run, dict):
                raise ConfigError(f"run {i}: must be a JSON object")
            _known_keys(run, _RUN_KEYS, f"run {i}")
            if "bound" not in run or "generator" not in run:
                raise ConfigError(f"run {i}: needs 'bound' and 'generator'")
            gen = _generator_from_json(run["generator"])
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
        _known_keys(cfg, _SUITE_KEYS, "config")
        dims = cfg.get("dims", [1, 2, 5])
        if not isinstance(dims, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
        ):
            raise ConfigError("'dims' must be a list of positive integers")
        reports = run_default_suite(
            dims=tuple(dims),
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


def _iter_frames(path: str):
    """Yield (line_number, matrix) from a stream of one-JSON-per-line.

    The stream is read as bytes and each line decoded on its own, so
    invalid UTF-8 is reported with the number of its line.
    """
    try:
        fh = open(path, "rb") if path != "-" else sys.stdin.buffer
    except OSError as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ConfigError(f"data line {lineno}: not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"data line {lineno}: invalid JSON ({exc.msg})") from exc
            if isinstance(obj, dict):
                if "x" not in obj:
                    raise ConfigError(f"data line {lineno}: frame object needs key 'x'")
                obj = obj["x"]
            try:
                yield lineno, sm.parse_matrix_json(obj)
            except MatconcError as exc:
                raise ConfigError(f"data line {lineno}: {exc}") from exc


def _step_size(raw, name: str) -> float:
    """``raw`` as a step size, a positive finite float; a ConfigError naming ``name``."""
    try:
        g = config_number(raw, name)
    except ConfigError:
        g = math.nan
    if not g > 0.0:
        raise ConfigError(f"{name} must be a positive finite number, got {raw!r}")
    return g


def _gamma_fn(raw):
    if raw is None:
        return mg.default_gamma_schedule(1.0)
    if isinstance(raw, (int, float)):
        g = _step_size(raw, "'gamma'")
        return lambda n: g
    if isinstance(raw, dict) and "scale" in raw:
        _known_keys(raw, ("scale",), "'gamma'")
        return mg.default_gamma_schedule(_step_size(raw["scale"], "'gamma' scale"))
    raise ConfigError("'gamma' must be a positive number or {\"scale\": s}")


_TEST_KEYS = ("mode", "alpha", "m", "v", "a", "b", "mgf", "builder", "gamma", "randomizer")


def _cmd_test(args) -> int:
    cfg = _load_config(args.config)
    _known_keys(cfg, _TEST_KEYS, "config")
    mode = cfg.get("mode", "matrix")
    if mode not in ("matrix", "scalar"):
        raise ConfigError(f"mode must be 'matrix' or 'scalar', got {mode!r}")
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
        _known_keys(rand_cfg, ("kind", "seed"), "'randomizer'")
        seed = rand_cfg.get("seed", args.seed)
        randomizer = ScalarRandomizer(
            rand_cfg.get("kind", "uniform01"),
            seed=None if seed is None else _num(rand_cfg, "seed", seed, int),
        )

    if mode == "matrix":
        builder = cfg.get("builder", "SELF_NORMALIZED")
        if builder not in mg.BUILDER_KINDS:
            raise ConfigError(
                f"builder must be one of {mg.BUILDER_KINDS}, got {builder!r}"
            )
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
            _known_keys(row, ("kind", "matrix"), "'mgf'")
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
        try:
            reject = bool(proc.step(x, gamma_fn(n)))
        except MatconcError as exc:
            raise ConfigError(f"data line {lineno}: {exc}") from exc
        value = sm.trace(proc.value) if mode == "matrix" else float(proc.value)
        frames_out.append({"n": n, key: value, "reject": reject})
        if reject:
            rejected_at = n
            break
    if rejected_at is None and randomizer is not None and n > 0:
        u = randomizer.sample()
        if mode == "matrix":
            final = mg.ville_event(proc.value, a_thresh, u)
        else:
            final = se.ursn_event(proc.state, alpha, u)
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
    _known_keys(cfg, _POWER_COMPARE_KEYS, "config")
    if "generator" not in cfg:
        raise ConfigError("config needs 'generator'")
    gen = _generator_from_json(cfg["generator"])
    d = gen.dim
    alpha = _num(cfg, "alpha", 0.05)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    trials = _num(cfg, "trials", 2000, int)
    horizon = _num(cfg, "horizon", 200, int)
    if trials < 1 or horizon < 1:
        raise ConfigError("trials and horizon must be positive")
    gamma_scale = _step_size(cfg.get("gamma_scale", 0.5), "'gamma_scale'")
    # the hypothesized mean: the truth plus an optional shift, so
    # shift = 0 measures size and shift != 0 measures power
    m0 = gen.mean()
    if cfg.get("mean_shift") is not None:
        m0 = m0 + _matrix(cfg, "mean_shift", d)
    try:
        v = gen.variance()
    except ConfigError as exc:
        raise ConfigError(f"power comparison needs a known variance: {exc}") from exc
    seed = args.seed if args.seed is not None else _rng.default_seed()
    lam_v = max(math.sqrt(sm.lambda_max(v)), 1e-12)
    gammas = gamma_scale / (lam_v * np.sqrt(np.arange(1, horizon + 1)))
    stops = sequential_test_stops(gen, m0, v, gammas, alpha, trials, seed)
    out = {
        "alpha": alpha,
        "trials": trials,
        "horizon": horizon,
        "dim": d,
        "generator": gen.kind,
        "null_is_true": cfg.get("mean_shift") is None,
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
    rec = falsify_conjecture(
        p=args.p,
        d=args.d,
        instances=args.instances,
        trials_per_instance=args.trials_per_instance,
        seed=args.seed,
    )
    _write_atomic(args.output, _dump_json(rec.to_dict()))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
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
    p_fals.add_argument("--trials-per-instance", type=int, default=1500)
    p_fals.set_defaults(fn=_cmd_falsify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MatconcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
