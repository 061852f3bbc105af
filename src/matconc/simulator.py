"""Monte Carlo coverage harness.

Every stated inequality in the library is checked the same way: pair a
bound with a generator whose relevant moments are known in closed form,
simulate many independent trials, and compare the empirical rejection
frequency against the stated bound with a Wilson interval.

Reproducibility contract
------------------------
Trials are partitioned into fixed-size blocks.  Block ``j`` of a run
draws from counter-based substreams keyed by ``(seed, tag, j)``, where
the tag identifies the bound family.  Block boundaries depend only on
the trial count and the data shape, never on the worker count, so a run
is bit-for-bit reproducible no matter how it is parallelized.

A block keeps its random numbers (:meth:`GeneratorSpec.draw`), not the
``(block, n, d, d)`` stack they stand for: a path run builds a
cache-sized run of consecutive steps at a time (:func:`first_crossing`),
and a fixed-time event on the mean of ``n`` draws receives means built a
cache-sized chunk of trials at a time.  Every matrix and every mean comes
out as it would from the whole stack.
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import fixed_bounds as fb
from . import martingales as mg
from . import rng as _rng
from . import scalar_e as se
from . import symmat as sm
from .errors import ConfigError, DomainError, IncompatiblePair, MatconcError
from .generators import Draws, GeneratorSpec
from .report import McReport

__all__ = [
    "McConfig",
    "FalsifyRecord",
    "registry_names",
    "compatible_generators",
    "default_generator",
    "run_coverage",
    "FactorProcess",
    "TraceExpProcess",
    "first_crossing",
    "sequential_test_stops",
    "default_run_specs",
    "run_default_suite",
    "falsify_conjecture",
]

# Cells of the (block, n, d, d) stack a block stands for.  It sets the
# block boundaries, and so which substream draws each trial: it is part
# of the reproducibility contract, not a bound on memory (a block keeps
# only its draws and builds its matrices a step or a chunk at a time).
_CELL_BUDGET = 1 << 24
# Cells built at once: the step-major draws of a chunk of trials whose
# means are summed (_block_means), and the matrices of the block of
# consecutive steps a path run takes (first_crossing).
_MEAN_CHUNK_CELLS = 1 << 16
_FIXED_BLOCK_CAP = 8192
_PATH_BLOCK_CAP = 1024

_STOPPING_KINDS = ("first_crossing", "fixed", "geometric")


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class McConfig:
    """Size and execution parameters of one coverage run."""

    trials: int = 100_000
    horizon: int = 200
    workers: int = 1
    base_seed: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def seed(self) -> int:
        return self.base_seed if self.base_seed is not None else _rng.default_seed()


#: the numeric parameters and their type, cast by :func:`_take`
_NUMBER_PARAMS = {
    "n": int,
    "n_start": int,
    "n_max": int,
    "target": float,
    "p": float,
    "gamma": float,
    "a_scalar": float,
    "alpha0": float,
    "alpha": float,
    "gamma_scale": float,
}


def _number(val, key: str, kind=float):
    """``kind(val)`` for a finite number, or a ConfigError naming the parameter
    ``key``; a string or a boolean is not a number."""
    try:
        out = math.nan if isinstance(val, (bool, str)) else kind(val)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out):
        raise ConfigError(f"parameter {key!r} must be a finite number, got {val!r}")
    return out


def _matrix(val, key: str, dim: int) -> np.ndarray:
    """The symmetric ``dim x dim`` matrix ``val``, or a ConfigError naming ``key``."""
    try:
        mat = sm.symmat(val)
    except (TypeError, ValueError, MatconcError) as exc:
        raise ConfigError(f"parameter {key!r} must be a symmetric matrix: {exc}") from None
    if mat.shape[0] != dim:
        raise ConfigError(f"parameter {key!r} has dimension {mat.shape[0]}, expected {dim}")
    return mat


def _take(params: dict | None, defaults: dict) -> dict:
    """``params`` over ``defaults``, numeric ones cast (None keeps a None default)."""
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"params must be an object, got {params!r}")
    merged = dict(defaults)
    for key, val in (params or {}).items():
        if key not in defaults:
            raise ConfigError(
                f"unknown parameter {key!r}; expected one of {sorted(defaults)}"
            )
        merged[key] = val
    for key, val in merged.items():
        if key in _NUMBER_PARAMS and not (val is None and defaults[key] is None):
            merged[key] = _number(val, key, _NUMBER_PARAMS[key])
    # every default threshold divides by its target tail probability
    if "target" in merged and merged["target"] <= 0.0:
        raise ConfigError(f"target must be positive, got {merged['target']}")
    return merged


def _norm_stopping(raw, horizon: int) -> dict:
    if raw is None:
        raw = {"kind": "first_crossing"}
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"stopping must be a kind name or an object, got {raw!r}")
    kind = raw.get("kind")
    if kind not in _STOPPING_KINDS:
        raise ConfigError(f"stopping kind must be one of {_STOPPING_KINDS}, got {kind!r}")
    out = {"kind": kind}
    if kind == "fixed":
        n = _number(raw.get("n", horizon), "n", int)
        if not 1 <= n <= horizon:
            raise ConfigError(f"fixed stopping time {n} outside 1..{horizon}")
        out["n"] = n
    elif kind == "geometric":
        q = _number(raw.get("q", 0.02), "q")
        if not 0.0 < q < 1.0:
            raise ConfigError(f"geometric parameter must be in (0,1), got {q}")
        out["q"] = q
    return out


def _norm_randomizer(raw, dim: int) -> tuple[str, np.ndarray | None]:
    if raw is None:
        raw = "scaled_identity"
    if isinstance(raw, str):
        kind, shift = raw, None
    elif isinstance(raw, dict):
        kind = raw.get("kind", "scaled_identity")
        shift = raw.get("y")
    else:
        raise ConfigError(f"randomizer must be a kind name or an object, got {raw!r}")
    if kind not in ("identity", "scaled_identity", "shifted"):
        raise ConfigError(f"unsupported randomizer kind {kind!r}")
    if kind == "shifted":
        if shift is None:
            raise ConfigError("shifted randomizer needs the offset matrix y")
        shift = _matrix(shift, "y", dim)
        if not sm.is_psd(shift):
            raise ConfigError("randomizer offset must be PSD")
    else:
        shift = None
    return kind, shift


def _draw_us(plan: dict, g_rand: np.random.Generator, size: int) -> np.ndarray:
    """Randomizer draws: one ``u`` per trial standing for ``u I``, or the
    stack ``u I + Y`` for the shifted randomizer."""
    us = np.ones(size) if plan["rand_kind"] == "identity" else 1.0 - g_rand.random(size)
    shift = plan.get("shift")
    if shift is None:
        return us
    return us[:, None, None] * np.eye(shift.shape[0]) + shift


def _gamma_array(scale: float, horizon: int) -> np.ndarray:
    return scale / np.sqrt(np.arange(1, horizon + 1, dtype=np.float64))


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, "_Entry"] = {}


@dataclass(frozen=True)
class _Entry:
    name: str
    family: str  # "fixed" | "path"
    compatible: tuple[str, ...]
    prepare: callable = field(repr=False, compare=False, default=None)
    default_kind: str = ""
    tag: int = 0


def _register(name, family, compatible, default_kind):
    def deco(fn):
        _REGISTRY[name] = _Entry(
            name, family, tuple(compatible), fn, default_kind, len(_REGISTRY)
        )
        return fn

    return deco


def registry_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def compatible_generators(bound: str) -> tuple[str, ...]:
    return _entry(bound).compatible


def _entry(bound: str) -> _Entry:
    try:
        return _REGISTRY[bound]
    except KeyError:
        raise ConfigError(
            f"unknown bound {bound!r}; known bounds: {', '.join(_REGISTRY)}"
        ) from None


def _check_pair(entry: _Entry, gen: GeneratorSpec) -> None:
    if gen.kind not in entry.compatible:
        raise IncompatiblePair(
            f"{entry.name} has no exact moment recipe for {gen.kind}; "
            f"compatible kinds: {', '.join(entry.compatible)}"
        )


def _moment(gen: GeneratorSpec, method: str, *args):
    try:
        return getattr(gen, method)(*args)
    except ConfigError as exc:
        raise IncompatiblePair(f"{gen.kind}: {exc}") from exc


# --- fixed-time entries ----------------------------------------------------


@_register("UMMI", "fixed", ("ELLIPSOID_RANK1", "HEAVY_PSD", "BOUNDED_PSD"), "ELLIPSOID_RANK1")
def _prep_ummi(params, gen, mc):
    p = _take(params, {"a": None, "randomizer": None, "target": 0.5})
    mean_x = gen.mean()
    if p["a"] is not None:
        a = _matrix(p["a"], "a", gen.dim)
    elif gen.kind == "ELLIPSOID_RANK1":
        a = gen.a.copy()  # the supporting ellipsoid: equality case
    else:
        a = (sm.trace(mean_x) / p["target"]) * np.eye(gen.dim)
    rand_kind, shift = _norm_randomizer(p["randomizer"], gen.dim)
    return {
        "event": partial(fb.ummi_event, a=a),
        "n_per": 1,
        "rand_kind": rand_kind,
        "shift": shift,
        "bound": fb.ummi_bound(mean_x, a),
    }


def _prep_cheb(params, gen, mc, n_fixed):
    p = _take(params, {"a": None, "n": n_fixed, "randomizer": None, "target": 0.2})
    n = p["n"]
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if n > 1 and gen.kind == "EXCHANGEABLE_MIXTURE":
        raise IncompatiblePair("variance of the running mean needs independent draws")
    v = _moment(gen, "variance")
    if p["a"] is not None:
        a = _matrix(p["a"], "a", gen.dim)
    else:
        a = math.sqrt(sm.trace(v) / (p["target"] * n)) * np.eye(gen.dim)
    rand_kind, shift = _norm_randomizer(p["randomizer"], gen.dim)
    return {
        "event": partial(fb.chebyshev_n_event, m=gen.mean(), a=a),
        "averaged": True,
        "n_per": n,
        "rand_kind": rand_kind,
        "shift": shift,
        "bound": fb.chebyshev_n_bound(v, a, n),
    }


@_register(
    "UMCI1",
    "fixed",
    (
        "GAUSSIAN_SCALED",
        "RADEMACHER_SCALED",
        "BOUNDED_PSD",
        "SYMMETRIC_HEAVY",
        "EXCHANGEABLE_MIXTURE",
        "IID_WISHART_LIKE",
    ),
    "GAUSSIAN_SCALED",
)
def _prep_umci1(params, gen, mc):
    return _prep_cheb(params, gen, mc, n_fixed=1)


@_register(
    "UMCI_N",
    "fixed",
    ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
    "RADEMACHER_SCALED",
)
def _prep_umci_n(params, gen, mc):
    plan = _prep_cheb(params, gen, mc, n_fixed=50)
    if plan["n_per"] < 2:
        raise ConfigError("UMCI_N is the n-sample variant; use UMCI1 for n = 1")
    return plan


@_register(
    "PCHEB1",
    "fixed",
    ("SYMMETRIC_HEAVY", "GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD"),
    "SYMMETRIC_HEAVY",
)
def _prep_pcheb1(params, gen, mc):
    p = _take(params, {"p": 1.5, "a": None, "randomizer": None, "target": 0.1})
    pw = p["p"]
    if not 1.0 <= pw <= 2.0:
        raise ConfigError(f"p must lie in [1, 2], got {pw}")
    vp = _moment(gen, "pth_central", pw)
    if p["a"] is not None:
        a = _matrix(p["a"], "a", gen.dim)
    else:
        a = (sm.trace(vp) / p["target"]) ** (1.0 / pw) * np.eye(gen.dim)
    rand_kind, shift = _norm_randomizer(p["randomizer"], gen.dim)
    return {
        "event": partial(fb.pcheb1_event, m=gen.mean(), a=a, p=pw),
        "n_per": 1,
        "p": pw,
        "rand_kind": rand_kind,
        "shift": shift,
        "bound": fb.pcheb1_bound(vp, a, pw),
    }


@_register("CHERNOFF1", "fixed", ("RADEMACHER_SCALED", "GAUSSIAN_SCALED"), "RADEMACHER_SCALED")
def _prep_chernoff1(params, gen, mc):
    p = _take(params, {"gamma": 1.0, "a": None, "randomizer": None, "target": 0.15})
    gamma = p["gamma"]
    if gamma <= 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    m, c = gen.m, gen.c
    if sm.spectral_norm(m @ c - c @ m) > 1e-10 * max(1.0, sm.spectral_norm(m @ c)):
        raise IncompatiblePair(
            "closed-form exponential moment needs commuting mean and scale"
        )
    # With [M, C] = 0 the tilted mean splits: E e^{2g X} = e^{2g M} E e^{2g W C}.
    two_g = 2.0 * gamma
    if gen.kind == "RADEMACHER_SCALED":
        half = sm.mat_exp(two_g * c) + sm.mat_exp(-two_g * c)
        exp_moment = sm.mat_exp(two_g * m) @ (half / 2.0)
    else:
        exp_moment = sm.mat_exp(two_g * m + (two_g**2 / 2.0) * (c @ c))
    exp_moment = sm.symmat(exp_moment, copy=False)
    if p["a"] is not None:
        a = _matrix(p["a"], "a", gen.dim)
    else:
        a = (math.log(sm.trace(exp_moment) / p["target"]) / two_g) * np.eye(gen.dim)
    rand_kind, shift = _norm_randomizer(p["randomizer"], gen.dim)
    return {
        "event": partial(fb.chernoff1_event, a=a, gamma=gamma),
        "n_per": 1,
        "gamma": gamma,
        "rand_kind": rand_kind,
        "shift": shift,
        "bound": fb.chernoff1_bound(exp_moment, a, gamma),
    }


_CH_ROWS = {
    "RADEMACHER": ("RADEMACHER_SCALED",),
    "UNI_GAUSSIAN": ("GAUSSIAN_SCALED",),
    "BENNETT_I": ("RADEMACHER_SCALED", "BOUNDED_PSD"),
    "BENNETT_II": ("RADEMACHER_SCALED", "BOUNDED_PSD"),
    "SYM_HOEFFDING": ("RADEMACHER_SCALED", "BOUNDED_PSD"),
}


@_register(
    "CHERNOFF_HOEFFDING",
    "fixed",
    ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD"),
    "RADEMACHER_SCALED",
)
def _prep_ch(params, gen, mc):
    p = _take(
        params,
        {
            "mgf_kind": None,
            "n": 100,
            "gamma": None,
            "a_scalar": None,
            "randomizer": None,
            "alpha0": 0.05,
        },
    )
    n = p["n"]
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    mgf_kind = p["mgf_kind"] or {
        "RADEMACHER_SCALED": "RADEMACHER",
        "GAUSSIAN_SCALED": "UNI_GAUSSIAN",
        "BOUNDED_PSD": "SYM_HOEFFDING",
    }[gen.kind]
    if not isinstance(mgf_kind, str) or mgf_kind not in _CH_ROWS:
        raise ConfigError(f"unknown MGF family {mgf_kind!r}")
    if gen.kind not in _CH_ROWS[mgf_kind]:
        raise IncompatiblePair(f"{mgf_kind} assumptions do not hold for {gen.kind}")
    scale_mat = gen.c if gen.kind in ("RADEMACHER_SCALED", "GAUSSIAN_SCALED") else gen._spread
    if mgf_kind in ("RADEMACHER", "UNI_GAUSSIAN"):
        row_mat = scale_mat
        lam = sm.spectral_norm(row_mat) ** 2
    elif mgf_kind == "SYM_HOEFFDING":
        row_mat = _moment(gen, "sq_dev_bound")
        lam = sm.lambda_max(row_mat)
    else:
        if sm.spectral_norm(scale_mat) > 1.0 + sm.TOL_PSD:
            raise IncompatiblePair("one-sided Bernstein rows need deviations <= 1")
        row_mat = _moment(gen, "variance")
        if mgf_kind == "BENNETT_II":
            row_mat = row_mat + 0.05 * np.eye(gen.dim)
        lam = sm.lambda_max(row_mat)
    alpha0 = p["alpha0"]
    if not 0.0 < alpha0 < gen.dim:
        raise ConfigError(f"alpha0 must be in (0, {gen.dim}), got {alpha0}")
    gamma = p["gamma"] if p["gamma"] is not None else math.sqrt(
        2.0 * n * math.log(gen.dim / alpha0) / lam
    )
    a_scalar = (
        p["a_scalar"]
        if p["a_scalar"] is not None
        else 2.0 * math.log(gen.dim / alpha0) / gamma
    )
    spec = fb.MgfSpec(mgf_kind, row_mat)
    rand_kind, shift = _norm_randomizer(p["randomizer"], gen.dim)
    return {
        "event": partial(
            fb.chernoff_hoeffding_event, m=gen.mean(), a_scalar=a_scalar, gamma=gamma
        ),
        "averaged": True,
        "n_per": n,
        "gamma": gamma,
        "a_scalar": a_scalar,
        "rand_kind": rand_kind,
        "shift": shift,
        "bound": fb.chernoff_hoeffding_bound(spec, gamma, n, a_scalar),
        "mgf_kind": mgf_kind,
    }


# --- sequential entries ----------------------------------------------------


def _umvi_common(params, gen, mc, builder):
    p = _take(
        params,
        {
            "alpha": 0.05,
            "gamma_scale": None,
            "randomizer": None,
            "stopping": None,
        },
    )
    alpha = p["alpha"]
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    horizon = mc.horizon
    d = gen.dim
    m = gen.mean()
    plan = {
        "kind": "UMVI",
        "builder": builder,
        "horizon": horizon,
        "m": m,
        "a_scalar": d / alpha,
        "bound": alpha,
        "stopping": _norm_stopping(p["stopping"], horizon),
    }
    plan["rand_kind"], plan["shift"] = _norm_randomizer(p["randomizer"], d)
    if builder == "MGF":
        row_kind = {
            "RADEMACHER_SCALED": "RADEMACHER",
            "GAUSSIAN_SCALED": "UNI_GAUSSIAN",
            "BOUNDED_PSD": "SYM_HOEFFDING",
        }[gen.kind]
        row_mat = gen.c if row_kind != "SYM_HOEFFDING" else _moment(gen, "sq_dev_bound")
        scale_ref = (
            sm.spectral_norm(row_mat)
            if row_kind != "SYM_HOEFFDING"
            else math.sqrt(sm.lambda_max(row_mat))
        )
        plan["mgf"] = fb.MgfSpec(row_kind, row_mat)
        default_scale = 0.5 / max(scale_ref, 1e-12)
    elif builder == "BETTING":
        _moment(gen, "betting_upper")  # the factor needs 0 <= X <= B surely
        hi = 1.0 / sm.lambda_max(m)
        default_scale = 0.4 * hi
        plan["gamma_hi"] = hi
    elif builder == "SELF_NORMALIZED":
        v = _moment(gen, "variance")
        plan["v"] = v
        default_scale = 0.5 / max(math.sqrt(sm.lambda_max(v)), 1e-12)
    else:  # SYMMETRIC_DIST
        if not gen.deviations_symmetric():
            raise IncompatiblePair("needs conditionally symmetric deviations")
        if gen.kind in ("RADEMACHER_SCALED", "GAUSSIAN_SCALED"):
            ref = gen.c
        elif gen.kind == "BOUNDED_PSD":
            ref = gen._spread
        else:
            ref = gen.d_dir
        default_scale = 0.3 / max(sm.spectral_norm(ref), 1e-12)
    scale = p["gamma_scale"] if p["gamma_scale"] is not None else default_scale
    if scale <= 0.0:
        raise ConfigError(f"gamma_scale must be positive, got {scale}")
    plan["gammas"] = _gamma_array(scale, horizon)
    if builder == "BETTING" and plan["gammas"][0] >= plan["gamma_hi"]:
        raise ConfigError(
            f"gamma schedule starts at {plan['gammas'][0]:.6g}, outside the "
            f"admissible interval (0, {plan['gamma_hi']:.6g})"
        )
    return plan


@_register(
    "UMVI_MGF",
    "path",
    ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD"),
    "RADEMACHER_SCALED",
)
def _prep_umvi_mgf(params, gen, mc):
    return _umvi_common(params, gen, mc, "MGF")


@_register("UMVI_BETTING", "path", ("BOUNDED_PSD",), "BOUNDED_PSD")
def _prep_umvi_betting(params, gen, mc):
    return _umvi_common(params, gen, mc, "BETTING")


@_register(
    "UMVI_SELF_NORMALIZED",
    "path",
    ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
    "GAUSSIAN_SCALED",
)
def _prep_umvi_sn(params, gen, mc):
    return _umvi_common(params, gen, mc, "SELF_NORMALIZED")


@_register(
    "UMVI_SYMMETRIC",
    "path",
    ("SYMMETRIC_HEAVY", "RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD"),
    "SYMMETRIC_HEAVY",
)
def _prep_umvi_sym(params, gen, mc):
    return _umvi_common(params, gen, mc, "SYMMETRIC_DIST")


@_register("MVI", "path", ("BOUNDED_PSD",), "BOUNDED_PSD")
def _prep_mvi(params, gen, mc):
    plan = _umvi_common(params, gen, mc, "BETTING")
    plan["kind"] = "MVI"
    # "exists n" scans are never randomized: the threshold would have to
    # be known before the scan starts for the crossing to define a
    # stopping time, so the plain version is the honest one.
    plan["rand_kind"] = "identity"
    plan["shift"] = None
    plan["stopping"] = {"kind": "first_crossing"}
    return plan


@_register(
    "DOOB",
    "path",
    ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
    "GAUSSIAN_SCALED",
)
def _prep_doob(params, gen, mc):
    p = _take(params, {"a": None, "n": 100, "target": 0.1})
    n = p["n"]
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    v = _moment(gen, "variance")
    if p["a"] is not None:
        a = _matrix(p["a"], "a", gen.dim)
        a_scalar = float(a[0, 0])
        if not np.array_equal(a, a_scalar * np.eye(gen.dim)):
            raise ConfigError("the squared-mean scan needs a scalar threshold a I")
    else:
        a_scalar = sm.trace(v) / p["target"]
    return {
        "kind": "DOOB",
        "horizon": n,
        "m": gen.mean(),
        "a_scalar": float(a_scalar),
        "bound": sm.trace(v) / float(a_scalar),
        "rand_kind": "identity",
    }


def _scan_common(params, gen, mc, kind, default_target):
    p = _take(params, {"a": None, "p": 1.5, "n_start": 10, "n_max": 300, "target": default_target})
    n_max = p["n_max"]
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    plan = {"kind": kind, "horizon": n_max, "rand_kind": "identity"}
    if kind in ("XMCI", "XMCI2"):
        v = _moment(gen, "variance")
        tr_ref = sm.trace(v)
        plan["m"] = gen.mean()
    elif kind == "XMPCI":
        pw = p["p"]
        if not 1.0 <= pw <= 2.0:
            raise ConfigError(f"p must lie in [1, 2], got {pw}")
        vp = _moment(gen, "pth_raw", pw)
        plan["p"] = pw
    else:  # TRACE_PCHEB
        pw = p["p"]
        if pw < 1.0:
            raise ConfigError(f"p must be >= 1, got {pw}")
        vp = _moment(gen, "pth_central", pw)
        plan["p"] = pw
        plan["m"] = gen.mean()
    if kind == "XMCI":
        a_scalar = (
            _number(p["a"], "a") if p["a"] is not None else math.sqrt(tr_ref / p["target"])
        )
        plan["a_scalar"] = a_scalar
        plan["bound"] = tr_ref / a_scalar**2
    elif kind == "XMCI2":
        n_start = p["n_start"]
        if not 1 <= n_start <= n_max:
            raise ConfigError(f"n_start {n_start} outside 1..{n_max}")
        a_scalar = (
            _number(p["a"], "a")
            if p["a"] is not None
            else math.sqrt(tr_ref / (p["target"] * n_start))
        )
        plan["a_scalar"] = a_scalar
        plan["n_start"] = n_start
        plan["bound"] = tr_ref / (a_scalar**2 * n_start)
    elif kind == "XMPCI":
        a_scalar = (
            _number(p["a"], "a")
            if p["a"] is not None
            else (sm.trace(vp) / p["target"]) ** (1.0 / pw)
        )
        plan["a_scalar"] = a_scalar
        plan["bound"] = sm.trace(vp) / a_scalar**pw
    else:
        tr_vp = sm.trace(vp)
        a_scalar = (
            _number(p["a"], "a") if p["a"] is not None else (tr_vp / p["target"]) ** (1.0 / pw)
        )
        plan["a_scalar"] = a_scalar
        plan["bound"] = tr_vp / a_scalar**pw
    return plan


@_register(
    "XMCI",
    "path",
    (
        "EXCHANGEABLE_MIXTURE",
        "GAUSSIAN_SCALED",
        "RADEMACHER_SCALED",
        "BOUNDED_PSD",
        "IID_WISHART_LIKE",
    ),
    "EXCHANGEABLE_MIXTURE",
)
def _prep_xmci(params, gen, mc):
    return _scan_common(params, gen, mc, "XMCI", 0.25)


@_register(
    "XMCI2",
    "path",
    ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
    "GAUSSIAN_SCALED",
)
def _prep_xmci2(params, gen, mc):
    # The sharper 1/n variant needs vanishing anticommutator cross terms;
    # i.i.d. centered increments give that, a shared latent shift does not.
    return _scan_common(params, gen, mc, "XMCI2", 0.1)


@_register("XMPCI", "path", ("HEAVY_PSD",), "HEAVY_PSD")
def _prep_xmpci(params, gen, mc):
    return _scan_common(params, gen, mc, "XMPCI", 0.1)


@_register(
    "TRACE_PCHEB",
    "path",
    ("SYMMETRIC_HEAVY", "GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD"),
    "SYMMETRIC_HEAVY",
)
def _prep_trace_pcheb(params, gen, mc):
    return _scan_common(params, gen, mc, "TRACE_PCHEB", 0.2)


def _trace_exp_common(params, gen, mc, kind, moment, scale_coeff, what):
    """URSN and USMHI both run the self-normalized trace-exp process: URSN
    tests its value with the variance V, USMHI the Hoeffding e-process
    derived from it with the square-deviation bound B."""
    p = _take(
        params,
        {"alpha": 0.05, "gamma_scale": None, "randomizer": None, "stopping": None},
    )
    alpha = p["alpha"]
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    v = _moment(gen, moment)
    scale = (
        p["gamma_scale"]
        if p["gamma_scale"] is not None
        else scale_coeff / max(math.sqrt(sm.lambda_max(v)), 1e-12)
    )
    if scale <= 0.0:
        raise ConfigError(f"gamma_scale must be positive, got {scale}")
    rand_kind, _ = _norm_randomizer(p["randomizer"], gen.dim)
    if rand_kind == "shifted":
        raise ConfigError(f"the {what} test uses a scalar randomizer")
    return {
        "kind": kind,
        "horizon": mc.horizon,
        "m": gen.mean(),
        "v": v if kind == "URSN" else None,
        "b": v if kind == "USMHI" else None,
        "alpha": alpha,
        "gammas": _gamma_array(scale, mc.horizon),
        "stopping": _norm_stopping(p["stopping"], mc.horizon),
        "rand_kind": rand_kind,
        "bound": alpha,
    }


@_register(
    "URSN",
    "path",
    ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
    "GAUSSIAN_SCALED",
)
def _prep_ursn(params, gen, mc):
    return _trace_exp_common(params, gen, mc, "URSN", "variance", 0.5, "trace-exp")


@_register("USMHI", "path", ("RADEMACHER_SCALED", "BOUNDED_PSD"), "RADEMACHER_SCALED")
def _prep_usmhi(params, gen, mc):
    return _trace_exp_common(params, gen, mc, "USMHI", "sq_dev_bound", 0.3, "stopped Hoeffding")


# ---------------------------------------------------------------------------
# block runners


def _block_size(n_per: int, d: int, cap: int) -> int:
    per_trial = max(1, n_per * d * d)
    return max(64, min(cap, _CELL_BUDGET // per_trial))


def _block_means(draws) -> np.ndarray:
    """Mean of each trial's ``n`` matrices, summed a chunk of trials at a time.

    At ``d >= 2`` a chunk of ``rows`` trials is taken step-major once
    (``Draws.transposed``; ``n * rows * d`` cells for the vectors of the
    rank-one kinds) and summed one upper-triangle entry ``(a, b)`` at a
    time: the step-major ``(n, rows)`` plane of that entry
    (``Draws.entry``) is summed over the steps in step order
    (:func:`_sum_steps`) into ``(a, b)``, which is mirrored to ``(b, a)``
    (every drawn matrix is exactly symmetric) before all is divided by
    ``n``.  At ``d = 1`` the chunk is built trial-major, ``(rows, n)``,
    and each trial's steps are summed pairwise, as ``np.mean`` sums a
    contiguous axis.  Either way the result is
    ``np.mean(draws[:, :], axis=1)`` bit for bit.
    """
    size, n, d = draws.shape[:3]
    rows = max(1, _MEAN_CHUNK_CELLS // (n * d))
    out = np.empty((size, d, d))
    upper = np.triu_indices(d)
    for lo in range(0, size, rows):
        hi = min(size, lo + rows)
        if d == 1:
            np.add.reduce(draws[lo:hi][:, :, 0, 0], axis=1, out=out[lo:hi, 0, 0])
            continue
        chunk = draws.transposed(lo, hi)
        for a, b in zip(*upper):
            _sum_steps(chunk.entry(a, b), out[lo:hi, a, b])
    out[:, upper[1], upper[0]] = out[:, upper[0], upper[1]]
    out /= n
    return out


def _sum_steps(plane: np.ndarray, out: np.ndarray) -> None:
    """Sum of a step-major ``(n, rows)`` plane over its steps, in step order.

    ``np.add.reduce`` adds step after step across a row of several trials
    but sums a one-trial column pairwise; ``np.add.accumulate`` keeps step
    order there.
    """
    if plane.shape[1] > 1:
        np.add.reduce(plane, axis=0, out=out)
    else:
        out[:] = np.add.accumulate(plane, axis=0)[-1]


def _fixed_block(plan, gen, size, seed, tag, block_idx) -> int:
    """Events of a fixed-time bound: its ``fixed_bounds`` predicate on a block of trials."""
    g_data, g_rand = _rng.spawn_pair(seed, tag, block_idx)
    draws = gen.draw(g_data, size, plan["n_per"])
    u = _draw_us(plan, g_rand, size)
    # an event on the average of n observations gets each trial's mean
    # as its one observation: the mean of one matrix is that matrix
    x = _block_means(draws)[:, None] if plan.get("averaged") else draws[:, 0]
    return int(np.count_nonzero(plan["event"](x, u=u)))


class _Process:
    """A sequential statistic on a stack of paths (or on one path).

    :meth:`step` takes one step: ``x`` is the step's ``(trials, d, d)``
    stack (``(d, d)`` for one path) and ``gamma`` its float step size.  It
    advances the state and returns :meth:`decide`, the crossing event of
    each trial's current state.  Between two steps the caller may
    ``freeze`` rows; the next step sees the frozen state.  ``value`` is
    the statistic per trial, formed when it is read and kept until the
    next step; ``freeze(rows)`` forms it on those trials only and copies
    it into ``at_stop``.  A stack of trials decides most rows from an
    exact norm bound, without the statistic: only rows near the level and
    rows that stop need it.

    :func:`first_crossing` takes ``k`` steps at a time in two parts.
    ``_block(xs, gammas)`` runs the recurrence: one kernel call does the
    state-free work of the ``k`` steps (``_prepare``), then the state
    advances step by step and each step's state goes into a step-major
    buffer.  ``xs`` holds each trial's next ``k`` observations,
    ``(k, trials, d, d)``, and ``gammas`` their ``k`` step sizes (None
    entries for the scans).  It returns the block: a tuple of arrays
    shaped ``(n, trials, ...)`` (or None), the states of the first ``n``
    steps.  ``n`` is ``k`` unless a state has a non-finite entry, and then
    the block ends just before it.  ``_events(*states)`` is the decision
    rule, one call on any stack of states, and ``_values(*states)`` forms
    the statistic of the states it is given.  Every event and value equals
    that of stepping one observation at a time, bit for bit.
    """

    at_stop = None
    _value = None

    def _prepare(self, xs, gammas):
        """The state-free work of the steps ``xs``: stacks with one entry per step."""
        raise NotImplementedError

    def _block(self, xs, gammas):
        """Advance through the steps ``xs``; returns the block of their states."""
        raise NotImplementedError

    def _events(self, *states):
        """Crossing events of a stack of states."""
        raise NotImplementedError

    def _values(self, *states):
        """The statistic of a stack of states."""
        raise NotImplementedError

    def _stop(self, block, steps, rows):
        """Record in ``at_stop`` the value of trial ``rows[i]`` at block step ``steps[i]``."""
        self._keep(rows, self._values(*(s if s is None else s[steps, rows] for s in block)), block[0].shape[1])

    @property
    def value(self):
        if self._value is None:
            self._value = self._form(None)
        return self._value

    def _form(self, rows):
        """The statistic of every trial (``rows`` None) or of the trials at ``rows``."""
        raise NotImplementedError

    def _rows(self, rows):
        return self._form(rows) if self._value is None else self._value[rows]

    def _keep(self, rows, frozen, size: int) -> None:
        if self.at_stop is None:
            self.at_stop = np.empty((size,) + frozen.shape[1:], dtype=frozen.dtype)
        self.at_stop[rows] = frozen

    def freeze(self, rows) -> None:
        self._keep(rows, self._rows(rows), len(rows))


class FactorProcess(_Process):
    """``Y_n = L_n L_n^T`` from one factor builder; crosses when ``Y_n`` is not <= ``a``.

    ``a`` is a threshold matrix or a scalar standing for ``a I``; ``mgf``
    and ``v`` are the builder's parameters (see
    :func:`~matconc.martingales.factor_pair`).

    A stack of trials with a threshold ``a I`` is decided without ``Y``
    where an exact bound allows: ``lambda_max(Y) = ||L||_2^2 <= ||L||_F^2
    = tr Y``, so a trial whose ``||L||_F^2`` sits below ``a`` by the
    margin of :func:`~matconc.symmat.settles` at ``power = 2`` has not
    crossed.  The margin covers the rounding of the ``d^2`` squares, of
    the product ``L L^T`` (``d`` ulps of ``||L||_F^2``) and LAPACK's error
    in the eigenvalues of ``Y``, so the rule on ``Y`` would find that trial
    ordered too.  ``Y`` is formed only on the other trials, each matrix
    bitwise as in the whole stack's product, and decided by
    :func:`~matconc.martingales.exceeds` as before.  A lone trial, whose
    value ``matconc test`` reads at every step, is decided on ``Y``, and
    raises DomainError when ``Y`` holds a NaN.  In a stack, a non-finite
    trial is never settled and takes the rule on ``Y`` as before.

    The block of :func:`first_crossing` holds ``L_n`` of every step.  A
    trial that stops inside a block keeps multiplying to the block's end
    and restarts there, so its product may overflow: the recurrence and
    the rule run with overflow warnings off, and a non-finite trial is
    crossed in any case.
    """

    def __init__(self, builder, m, a, mgf=None, v=None):
        self.builder, self.m, self.a = builder, m, a
        self.params = {"mgf": mgf, "v": v}
        self.state = mg.MatSupermartingaleState.start(m.shape[0])
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 2 and np.array_equal(a, a[0, 0] * np.eye(a.shape[0])):
            a = a[0, 0]
        self._level = None if a.ndim else a

    def _prepare(self, xs, gammas):
        return mg.factor_pair(self.builder, xs - self.m, gammas, root=True, **self.params)

    def step(self, x, gamma=None):
        """Absorb one observation per trial; returns the crossing events."""
        self.state = self.state.advance(*self._prepare(x, gamma))
        return self.decide()

    def _block(self, xs, gammas):
        sqrt_a, lefts = self._prepare(xs, gammas)
        left = self.state.left
        with np.errstate(over="ignore", invalid="ignore"):
            # each step's L_n takes the place of its factor E_n^{1/2}: a
            # block allocates no buffer of its own
            for j, sqrt_e in enumerate(lefts):
                step = sqrt_e if sqrt_a is None else sqrt_a[j] @ sqrt_e
                left = np.matmul(left, step, out=sqrt_e)
        self.state = mg.MatSupermartingaleState(left, self.state.n + len(lefts))
        self._value = None
        return (lefts,)

    def decide(self):
        """Crossing event of each trial's current state."""
        self._value = None
        left, level = self.state.left, self._level
        if left.ndim > 2:
            return self._events(left)
        if np.isnan(self.value).any():
            # the kernels do not re-validate their stacks: a non-finite
            # exponent shows as NaN in the factors
            raise DomainError("process state is not finite")
        return mg.exceeds(self.value, self.a if level is None else level)

    @np.errstate(over="ignore", invalid="ignore")
    def _events(self, left):
        level = self._level
        if level is None:
            return mg.exceeds(self._values(left), self.a)
        sq = np.einsum("...ij,...ij->...", left, left)
        settled = sm.settles(sq, level, left.shape[-1], power=2.0)
        return sm.unsettled_events(settled, lambda rows: mg.exceeds(self._values(left[rows]), level))

    def _values(self, left):
        return mg.MatSupermartingaleState(left).value()

    def _form(self, rows):
        left = self.state.left
        return self._values(left if rows is None else left[rows])

    def _stop(self, block, steps, rows):
        super()._stop(block, steps, rows)
        self._restart(rows)

    def freeze(self, rows) -> None:
        super().freeze(rows)
        self._restart(rows)

    def _restart(self, rows):
        # a stopped trial's value is recorded; restarting it keeps its product bounded
        self.state.left[rows] = np.eye(self.m.shape[0])
        self._value = None


class TraceExpProcess(_Process):
    """The self-normalized trace-exp process in log space, or with ``b`` the
    Hoeffding e-process derived from it; crosses at ``log(d / alpha)``.

    A stack of trials is decided without an eigenvalue per trial where an
    exact bound allows.  The trace-exp value obeys ``log tr e^S <= log d +
    lambda_max(S) <= log d + ||S||_F``; the Hoeffding value
    ``lambda_max(G) - lambda_max(B_n) / 2`` (``G`` the tilt, ``B_n = sum
    gamma_i^2 B_i`` shared by all trials, one ``eigvalsh`` per step, or per
    block of steps) obeys ``lambda_max(G) <= ||G||_F``.  A trial whose
    bound sits below the level by the margin of
    :func:`~matconc.symmat.settles` has not crossed: the margin also covers
    the rounding of ``log d`` and of the shifted log-sum-exp.  The
    statistic is formed on the other trials only.  A lone trial is decided
    on its value.  A state with a non-finite entry raises DomainError, as
    the validated kernels did; in :func:`first_crossing`, only when no
    step before it stopped every trial.
    """

    _half_top_b = None

    def __init__(self, m, v, alpha, b=None):
        self.m, self.v, self.b = m, v, b
        self.state = se.TraceExpState.start(m.shape[0])
        self.level = se.log_level(m.shape[0], alpha)

    def _prepare(self, xs, gammas):
        return se.sn_increments(xs - self.m, self.v, gammas, self.b)

    def step(self, x, gamma=None):
        """Absorb one observation per trial; returns the crossing events."""
        self.state = se._advance(self.state, gamma, *self._prepare(x, gamma))
        return self.decide()

    def _block(self, xs, gammas):
        mats, dc, db = self._prepare(xs, gammas)
        st, hoeffding = self.state, self.b is not None
        sum_b, half = st.sum_gamma_sq_b, None
        if db is not None:
            db[0] += sum_b
            sums = np.add.accumulate(db, axis=0, out=db)
            sum_b, half = sums[-1], 0.5 * se._top(sums)
        sum_gamma = st.sum_gamma
        for gamma in gammas:
            sum_gamma += gamma
        gz, gz_carry, pc, pc_carry = st.gz, st.gz_carry, st.pc, st.pc_carry
        # the states after the last trial's stop are formed too, unread
        with np.errstate(over="ignore", invalid="ignore"):
            # each step's exponent S (the tilt G for Hoeffding), before
            # symmetrizing, takes the place of its tilt increment
            for j, dz in enumerate(mats):
                gz, gz_carry = se._kahan_add(gz, gz_carry, dz, out=dz if hoeffding else None)
                if dc is not None:
                    pc, pc_carry = se._kahan_add(pc, pc_carry, dc[j])
                if not hoeffding:
                    np.subtract(gz, pc, out=dz)
            mat = sm.symmat_stack(mats, trusted=True)
            sq = sm._eig_frobenius_sq(mat)
        self.state = se.TraceExpState(gz, gz_carry, pc, pc_carry, sum_gamma, sum_b, st.n + len(mats))
        self._value, self._mat = None, mat[-1]
        if half is not None:
            self._half_top_b = half[-1]
            half = np.broadcast_to(half[:, None], sq.shape)
        n = len(mat)
        bad = ~np.isfinite(sq).all(axis=1)
        if bad.any():
            # a stack is finite where ||S||_F^2 is, short of overflowing squares
            bad[bad] = ~np.isfinite(mat[bad]).all(axis=(1, 2, 3))
            if bad.any():
                n = int(bad.argmax())
        return mat[:n], None if half is None else half[:n], sq[:n]

    def decide(self):
        """Crossing event of each trial's current state."""
        self._value = None
        if self.b is None:
            self._mat = self.state.exponent()
        else:
            # the symmetric tilt that the eigenvalue rule reads, so that the norm bounds it
            self._mat = sm.symmat_stack(self.state.gz, trusted=True)
            self._half_top_b = 0.5 * se._top(self.state.sum_gamma_sq_b)
        if self._mat.ndim == 2:
            if not np.isfinite(self._mat).all():
                raise DomainError("matrix entries must be finite")
            return self.value >= self.level
        sq = sm._eig_frobenius_sq(self._mat)
        # a stack is finite where ||S||_F^2 is, short of overflowing squares
        if not np.isfinite(sq).all() and not np.isfinite(self._mat).all():
            raise DomainError("matrix entries must be finite")
        return self._events(self._mat, self._half_top_b, sq)

    def _events(self, mat, half, sq):
        d = mat.shape[-1]
        if self.b is None:
            level, offset = self.level, math.log(d)
        else:
            half = np.broadcast_to(half, sq.shape)
            level, offset = self.level + half, 0.0
        settled = sm.settles(sq, level, d, offset=offset)
        return sm.unsettled_events(
            settled, lambda rows: self._values(mat[rows], None if half is None else half[rows]) >= self.level
        )

    def _values(self, mat, half, sq=None):
        if self.b is None:
            return se.log_trace_exp(mat)
        return np.linalg.eigvalsh(mat)[..., -1] - half

    def _form(self, rows):
        stat = self._values(self._mat if rows is None else self._mat[rows], self._half_top_b)
        return se._float_or_stack(stat) if rows is None else stat


class _MeanScan(_Process):
    """Running means ``Xbar_n`` tested by :func:`~matconc.martingales.scan_exceeds`
    from ``n_start`` on; the value is the crossing event itself.

    Its state-free work already decides: the block's running sums and the
    scan test of every step are one call, which overwrites the block with
    its running sums (:meth:`step` hands it a copy of ``x`` as a one-step
    block).
    """

    def __init__(self, kind, m, a, p=None, n_start=1):
        self.kind, self.m, self.a, self.p, self.n_start = kind, m, a, p, n_start
        self.total, self.n = 0.0, 0

    def step(self, x, gamma=None):
        (events,) = self._prepare(np.array(x, dtype=np.float64)[None], None)
        self._value = events[0]
        return self._value

    def _prepare(self, xs, gammas):
        # running sums in step order, in place: + the total so far (0.0 at
        # first, which turns a -0.0 into 0.0 as 0.0 + x does), then each
        # step's slice plus the one before
        xs[0] += self.total
        for j in range(1, len(xs)):
            xs[j] += xs[j - 1]
        self.total = xs[-1]
        # steps before n_start are not tested
        first = max(self.n + 1, self.n_start)
        counts = np.arange(first, self.n + len(xs) + 1)
        live = len(xs) - len(counts)
        self.n += len(xs)
        events = np.zeros(xs.shape[:-2], dtype=bool)
        if len(counts):
            means = xs[live:] / counts.reshape((-1,) + (1,) * (xs.ndim - 1))
            events[live:] = mg.scan_exceeds(self.kind, means, self.m, self.a, self.p)
        return (events,)

    def _block(self, xs, gammas):
        block = self._prepare(xs, gammas)
        self._value = block[0][-1]
        return block

    def _events(self, events):
        return events

    _values = _events


def _step_blocks(proc: _Process, xs, gammas, horizon: int):
    """The blocks of ``proc`` along ``xs`` up to ``horizon``, ``k`` steps each,
    ``k`` sized by ``_MEAN_CHUNK_CELLS``: yields ``(lo, hi, block)`` for
    the steps ``lo + 1 .. hi`` (see :class:`_Process`)."""
    size, d = xs.shape[0], xs.shape[-1]
    k = max(1, _MEAN_CHUNK_CELLS // (size * d * d))
    for lo in range(0, horizon, k):
        hi = min(lo + k, horizon)
        if isinstance(xs, Draws):
            steps = xs.steps(lo, hi)
        else:
            steps = np.array(np.swapaxes(xs[:, lo:hi], 0, 1), order="C")
        gs = [None] * (hi - lo) if gammas is None else [float(g) for g in gammas[lo:hi]]
        yield lo, hi, proc._block(steps, gs)


def first_crossing(proc: _Process, xs, gammas=None, taus=None) -> np.ndarray:
    """Step ``proc`` along stacked paths ``xs`` of shape (trials, horizon, d, d).

    ``xs`` is the stack or the :class:`~matconc.generators.Draws` that
    stand for it.  The steps go to ``proc`` in blocks of ``k`` consecutive
    steps, ``k = max(1, _MEAN_CHUNK_CELLS // (trials d^2))``: a block is
    built step-major, ``(k, trials, d, d)``
    (:meth:`~matconc.generators.Draws.steps`), the process runs its
    recurrence through the block and keeps each step's state, and one call
    of its decision rule gives the events of all ``k * trials`` states
    (see :class:`_Process`).  Step ``n`` uses ``gammas[n - 1]``.  A trial
    stops at its first crossing, or at its entry of ``taus`` (in
    ``1..horizon``) when given, found with one ``argmax`` over the block's
    steps; with ``taus`` no event is computed.  ``at_stop`` takes the
    value of the state at the stopping step.  A stopped trial keeps running
    to the end of its block, where a :class:`FactorProcess` restarts it.
    Every stop and value equals that of stepping one observation at a time
    and freezing each stopped trial before the next step, bit for bit; a
    state with a non-finite entry raises DomainError only at a step that
    such stepping would reach.
    Returns each trial's stopping step, 0 for a trial that never stopped;
    ``proc.at_stop`` then holds the value at the stopping step, or at
    the last step run for trials that never stopped.
    """
    # every trial has stopped by the largest of taus: no block runs past it
    horizon = xs.shape[1] if taus is None else min(xs.shape[1], int(taus.max()))
    stop = np.zeros(xs.shape[0], dtype=np.int64)
    for lo, hi, block in _step_blocks(proc, xs, gammas, horizon):
        n = len(block[0])
        if taus is None:
            crossed = proc._events(*block)
        else:
            crossed = taus == np.arange(lo + 1, lo + n + 1)[:, None]
        newly = (stop == 0) & crossed.any(axis=0)
        if newly.any():
            rows = np.flatnonzero(newly)
            steps = crossed[:, rows].argmax(axis=0)
            stop[rows] = lo + 1 + steps
            proc._stop(block, steps, rows)
            if stop.all():
                break
        if n < hi - lo:
            raise DomainError("matrix entries must be finite")
    proc.freeze(stop == 0)
    return stop


def sequential_test_stops(gen, m, v, gammas, alpha: float, trials: int, seed: int) -> dict:
    """Stopping steps of the MATRIX and SCALAR sequential tests on simulated paths.

    Trial ``t`` draws its path from ``substream(seed, 0xC0DE, t)``, with
    the RNG calls of :meth:`~matconc.generators.GeneratorSpec.sample_path`;
    the draws of a block of trials, sized by the cell budget, are joined
    into one :class:`~matconc.generators.Draws`, and each step builds only
    its own matrices.  Both rules run the
    self-normalized process with variance bound ``v`` against the
    hypothesized mean ``m`` with step sizes ``gammas``: MATRIX rejects
    when ``Y_n`` escapes ``(d / alpha) I``, SCALAR when ``L_n`` reaches
    ``d / alpha``.  Returns ``{"matrix": steps, "scalar": steps}``, a
    step of 0 marking a trial that never rejected.
    """
    d, horizon = gen.dim, len(gammas)
    block = _block_size(horizon, d, _PATH_BLOCK_CAP)
    stops = {"matrix": [], "scalar": []}
    for lo in range(0, trials, block):
        xs = Draws.join([
            gen.draw(_rng.substream(seed, 0xC0DE, t), 1, horizon)
            for t in range(lo, min(trials, lo + block))
        ])
        matrix = FactorProcess("SELF_NORMALIZED", m, d / alpha, v=v)
        stops["matrix"].append(first_crossing(matrix, xs, gammas))
        stops["scalar"].append(first_crossing(TraceExpProcess(m, v, alpha), xs, gammas))
    return {rule: np.concatenate(s) for rule, s in stops.items()}


def _path_process(plan) -> _Process:
    kind = plan["kind"]
    if kind in ("UMVI", "MVI"):
        return FactorProcess(
            plan["builder"], plan["m"], plan["a_scalar"], mgf=plan.get("mgf"), v=plan.get("v")
        )
    if kind in ("URSN", "USMHI"):
        return TraceExpProcess(plan["m"], plan["v"], plan["alpha"], plan["b"])
    return _MeanScan(kind, plan.get("m"), plan["a_scalar"], plan.get("p"), plan.get("n_start", 1))


def _path_events(plan, xs, g_rand: np.random.Generator) -> np.ndarray:
    """Per-trial events of a path bound on stacked paths ``xs`` (see :func:`first_crossing`)."""
    size, horizon, d = xs.shape[0], xs.shape[1], xs.shape[-1]
    kind = plan["kind"]
    stopping = plan.get("stopping", {"kind": "first_crossing"})
    taus = None
    if stopping["kind"] == "geometric":
        taus = np.minimum(g_rand.geometric(stopping["q"], size), horizon)
    elif stopping["kind"] == "fixed":
        taus = np.full(size, stopping["n"])
    proc = _path_process(plan)
    stop = first_crossing(proc, xs, plan.get("gammas"), taus)
    if kind not in ("UMVI", "URSN", "USMHI"):
        # "exists n" scans: the crossing itself is the event, never randomized
        return stop > 0
    us = _draw_us(plan, g_rand, size)
    if kind != "UMVI":
        return proc.at_stop >= se.log_level(d, plan["alpha"], us)
    return mg.ville_event(proc.at_stop, plan["a_scalar"] * np.eye(d), us)


def _path_block(plan, gen, size, seed, tag, block_idx) -> int:
    g_data, g_rand = _rng.spawn_pair(seed, tag, block_idx)
    draws = gen.draw(g_data, size, plan["horizon"])
    return int(_path_events(plan, draws, g_rand).sum())


def _block_task(args) -> int:
    family, plan, gen, size, seed, tag, block_idx = args
    runner = _fixed_block if family == "fixed" else _path_block
    return runner(plan, gen, size, seed, tag, block_idx)


def _pool_size(workers: int) -> int:
    """Workers a run gets: ``workers``, capped at the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


class _WorkerPool:
    """The process's one pool of block workers, kept alive across runs.

    The pool starts on first use and is reused by every later run of the
    same size; a run of another size shuts it down (joining its manager
    thread) before the new one starts.  A pool found broken (a worker
    died, even while idle) is discarded and the run's blocks are mapped
    once more on a fresh pool: blocks are pure functions of
    ``(seed, tag, block_idx)``, so the counts are the same.  A second
    break propagates.  At interpreter exit ``concurrent.futures`` joins
    the workers and :meth:`close` drops the pool while the modules it
    needs are still loaded.  :meth:`close` terminates the workers before
    the shutdown, so that one that died just before cannot hang it.
    """

    def __init__(self):
        self._pool = None
        self._size = 0

    def map(self, fn, tasks, size: int) -> list:
        # imported on demand: the pool's modules add about 2 MB to every
        # process, and serial runs, `test` and `power-compare` never use them
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        for retry in (False, True):
            if self._pool is None or self._size != size:
                self.close()
                self._pool, self._size = ProcessPoolExecutor(max_workers=size), size
            try:
                return list(self._pool.map(fn, tasks))
            except BrokenProcessPool:
                self.close()
                if retry:
                    raise

    def close(self) -> None:
        if self._pool is not None:
            pool, self._pool = self._pool, None
            # an idle worker waits for work holding the call queue's read
            # lock; if another one died just before, the shutdown could join
            # a worker that never gets the lock: stop them all first
            for worker in list((getattr(pool, "_processes", None) or {}).values()):
                worker.terminate()
            pool.shutdown(wait=True)


_POOL = _WorkerPool()
atexit.register(_POOL.close)


# ---------------------------------------------------------------------------
# public run entry points


def run_coverage(
    bound: str,
    gen: GeneratorSpec,
    mc: McConfig | None = None,
    params: dict | None = None,
) -> McReport:
    """Estimate the rejection frequency of one bound on one generator.

    All validation happens up front: unknown bounds, incompatible
    pairings, and malformed parameters raise before any sampling.

    With ``mc.workers > 1`` the blocks go to the process's one worker
    pool (:class:`_WorkerPool`) of ``min(mc.workers, CPUs available)``
    workers, started on first use and reused by later runs of that size.
    Where the pool forks its workers (the default on Linux), they are
    forked once and run the module state of the moment the pool
    started: a module attribute patched later is not seen by them.  The
    counts never depend on the worker count.
    """
    mc = mc or McConfig()
    entry = _entry(bound)
    _check_pair(entry, gen)
    plan = entry.prepare(params, gen, mc)
    seed = mc.seed()
    n_per = plan.get("n_per", plan.get("horizon", 1))
    cap = _FIXED_BLOCK_CAP if entry.family == "fixed" else _PATH_BLOCK_CAP
    block = _block_size(n_per, gen.dim, cap)
    sizes = [block] * (mc.trials // block)
    if mc.trials % block:
        sizes.append(mc.trials % block)
    tasks = [
        (entry.family, plan, gen, size, seed, entry.tag, idx)
        for idx, size in enumerate(sizes)
    ]
    pool_size = _pool_size(mc.workers)
    if pool_size == 1:
        counts = [_block_task(t) for t in tasks]
    else:
        counts = _POOL.map(_block_task, tasks, pool_size)
    hits = int(sum(counts))
    name = f"{bound}[{gen.kind},d={gen.dim}]"
    meta = {
        "bound": bound,
        "generator": gen.kind,
        "dim": gen.dim,
        "seed": seed,
        "randomizer": plan.get("rand_kind", "identity"),
    }
    for key in ("p", "gamma", "a_scalar", "alpha", "n_per", "horizon", "mgf_kind"):
        if key in plan and np.isscalar(plan[key]):
            meta[key] = plan[key]
    return McReport.from_counts(
        name=name,
        events=hits,
        trials=mc.trials,
        stated_bound=float(plan["bound"]),
        meta=meta,
    )


def _default_rad(d, lam_top=0.8, mean_scale=0.2):
    diag = lam_top * (0.5 + 0.5 * np.arange(1, d + 1) / d)
    return GeneratorSpec(
        "RADEMACHER_SCALED", d, c=np.diag(diag), m=mean_scale * np.eye(d)
    )


def _default_gauss(d):
    diag = 0.5 * (0.5 + 0.5 * np.arange(1, d + 1) / d)
    return GeneratorSpec("GAUSSIAN_SCALED", d, c=np.diag(diag), m=0.1 * np.eye(d))


def _default_bpsd(d):
    spread = np.linspace(0.0, 0.2, d) if d > 1 else np.zeros(1)
    m = np.eye(d) + np.diag(spread)
    return GeneratorSpec("BOUNDED_PSD", d, m=m, b=3.0 * np.eye(d))


def _default_sheavy(d, tail):
    diag = 0.2 * (0.5 + 0.5 * np.arange(1, d + 1) / d)
    return GeneratorSpec("SYMMETRIC_HEAVY", d, d_dir=np.diag(diag), tail_index=tail)


def _default_mixture(d):
    return GeneratorSpec(
        "EXCHANGEABLE_MIXTURE",
        d,
        d_dir=0.6 * np.eye(d),
        tau=0.5,
        c=0.3 * np.eye(d),
    )


def _default_wishart(d):
    return GeneratorSpec("IID_WISHART_LIKE", d, scale=0.5)


def _default_hpsd(d, tail):
    return GeneratorSpec("HEAVY_PSD", d, scale=1.0, tail_index=tail)


def _default_ellip(d):
    return GeneratorSpec("ELLIPSOID_RANK1", d, a=np.diag(np.arange(1.0, d + 1.0)))


def default_generator(bound: str, kind: str, d: int) -> GeneratorSpec:
    """A generator of the given kind sized sensibly for the given bound."""
    entry = _entry(bound)
    if kind not in entry.compatible:
        raise IncompatiblePair(f"{bound} is not verified against {kind}")
    if kind == "RADEMACHER_SCALED":
        return _default_rad(d)
    if kind == "GAUSSIAN_SCALED":
        return _default_gauss(d)
    if kind == "BOUNDED_PSD":
        return _default_bpsd(d)
    if kind == "SYMMETRIC_HEAVY":
        # keep requested p-th moments finite for the default p values
        return _default_sheavy(d, 1.75 if bound == "PCHEB1" else 2.5)
    if kind == "EXCHANGEABLE_MIXTURE":
        return _default_mixture(d)
    if kind == "IID_WISHART_LIKE":
        return _default_wishart(d)
    if kind == "HEAVY_PSD":
        return _default_hpsd(d, 1.75 if bound == "XMPCI" else 1.5)
    if kind == "ELLIPSOID_RANK1":
        return _default_ellip(d)
    raise ConfigError(f"unknown generator kind {kind!r}")


#: extra pairings (bound, generator kind, params) run on top of each
#: entry's designated default generator
_EXTRA_RUNS = (
    ("UMMI", "HEAVY_PSD", None),
    ("CHERNOFF_HOEFFDING", "GAUSSIAN_SCALED", None),
    ("CHERNOFF_HOEFFDING", "RADEMACHER_SCALED", {"mgf_kind": "BENNETT_I"}),
    ("CHERNOFF_HOEFFDING", "RADEMACHER_SCALED", {"mgf_kind": "BENNETT_II"}),
    ("CHERNOFF_HOEFFDING", "BOUNDED_PSD", {"mgf_kind": "SYM_HOEFFDING"}),
    ("TRACE_PCHEB", "SYMMETRIC_HEAVY", {"p": 1.2}),
)


def default_run_specs(dims=(1, 2, 5)) -> list[tuple[str, GeneratorSpec, dict | None]]:
    """The standard verification matrix: every bound, its default
    generator, plus a few extra moment-family pairings, at each dim."""
    out = []
    for d in dims:
        for name, entry in _REGISTRY.items():
            out.append((name, default_generator(name, entry.default_kind, d), None))
        for name, kind, params in _EXTRA_RUNS:
            if params and params.get("p") is not None:
                gen = _default_sheavy(d, 1.5)
            else:
                gen = default_generator(name, kind, d)
            out.append((name, gen, params))
    return out


def run_default_suite(
    dims=(1, 2, 5),
    trials_fixed: int = 100_000,
    trials_path: int = 10_000,
    horizon: int = 200,
    workers: int = 1,
    base_seed: int | None = None,
) -> list[McReport]:
    """Run the whole default verification matrix and return the reports."""
    reports = []
    for bound, gen, params in default_run_specs(dims):
        family = _entry(bound).family
        mc = McConfig(
            trials=trials_fixed if family == "fixed" else trials_path,
            horizon=horizon,
            workers=workers,
            base_seed=base_seed,
        )
        reports.append(run_coverage(bound, gen, mc, params))
    return reports


# ---------------------------------------------------------------------------
# conjecture search


@dataclass(frozen=True)
class FalsifyRecord:
    """Largest observed trace-moment ratio over a randomized search.

    The ratio compared is ``tr E|S_n|^p`` against ``n * tr V_p`` for
    centered sums of sign-symmetric matrix increments.  A ratio is an
    observation, never a proof; ``stderr`` quantifies the Monte Carlo
    noise of the winning estimate.
    """

    p: float
    d: int
    best_ratio: float
    stderr: float
    n: int
    mats: tuple
    instances: int
    trials_per_instance: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "best_ratio": self.best_ratio,
            "stderr": self.stderr,
            "n": self.n,
            "mats": [m.tolist() for m in self.mats],
            "instances": self.instances,
            "trials_per_instance": self.trials_per_instance,
            "seed": self.seed,
        }


def falsify_conjecture(
    p: float,
    d: int,
    instances: int = 200,
    trials_per_instance: int = 1500,
    seed: int | None = None,
) -> FalsifyRecord:
    """Search for instances pushing ``tr E|S_n|^p`` past ``n tr V_p``.

    Instances are mixtures ``X = R D_J`` of a fair sign times one of a
    few random symmetric directions, for which ``V_p`` is available in
    closed form (``mean_k |D_k|^p``).  Returns the largest observed
    ratio; at ``p = 2`` the ratio is exactly 1 in expectation, which
    doubles as a calibration check of the estimator.
    """
    if not 1.0 <= p <= 2.0:
        raise ConfigError(f"p must lie in [1, 2], got {p}")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if instances < 1 or trials_per_instance < 2:
        raise ConfigError("need at least 1 instance and 2 trials per instance")
    base = seed if seed is not None else _rng.default_seed()
    best = None
    for i in range(instances):
        g = _rng.substream(base, 0xF415, i)
        k = int(g.integers(2, 4))
        raw = g.standard_normal((k, d, d))
        mats = (raw + np.transpose(raw, (0, 2, 1))) / 2.0
        n = int(g.integers(2, 31))
        idx = g.integers(0, k, size=(trials_per_instance, n))
        signs = g.integers(0, 2, size=(trials_per_instance, n)) * 2.0 - 1.0
        sums = (signs[..., None, None] * mats[idx]).sum(axis=1)
        w = np.linalg.eigvalsh(sums)
        tvals = (np.abs(w) ** p).sum(axis=-1)
        tr_vp = float(
            np.mean([sm.trace(sm.mat_pow(sm.mat_abs(mk), p)) for mk in mats])
        )
        denom = n * tr_vp
        ratio = float(tvals.mean()) / denom
        err = float(tvals.std(ddof=1)) / math.sqrt(trials_per_instance) / denom
        if best is None or ratio > best[0]:
            best = (ratio, err, n, tuple(mats))
    return FalsifyRecord(
        p=float(p),
        d=d,
        best_ratio=best[0],
        stderr=best[1],
        n=best[2],
        mats=best[3],
        instances=instances,
        trials_per_instance=trials_per_instance,
        seed=base,
    )
