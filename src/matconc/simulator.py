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
the trial count and the data shape (through the cell budget of
:mod:`matconc.processes`), never on the worker count, so a run is
bit-for-bit reproducible no matter how it is parallelized.

One run loop runs every bound: each plan carries a process and a
stopping rule, and a block keeps its random numbers
(:meth:`GeneratorSpec.draw`), not the ``(block, n, d, d)`` stack they
stand for, steps the process a cache-sized run of steps at a time to its
stop (:func:`~matconc.processes.first_crossing`) and decides there.  A
fixed-time run is the running mean stopped at ``n``: a
:class:`~matconc.processes.MeanScan` that tests no step, its ``at_stop =
Xbar_n`` decided by the bound's ``fixed_bounds`` event.  Every matrix
and every mean comes out as from the whole stack.
"""

from __future__ import annotations

import atexit
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import fixed_bounds as fb
from . import processes as pr
from . import rng as _rng
from . import symmat as sm
from .errors import ConfigError, DomainError, IncompatiblePair, config_keys, config_number
from .errors import config_step_size
from .generators import GeneratorSpec
from .randomizers import MatrixRandomizer
from .report import McReport

__all__ = [
    "McConfig",
    "FalsifyRecord",
    "registry_names",
    "compatible_generators",
    "default_generator",
    "run_coverage",
    "default_run_specs",
    "run_default_suite",
    "falsify_conjecture",
]

_FIXED_BLOCK_CAP = 8192

#: the keys of a stopping object of each kind
_STOPPING_KEYS = {"first_crossing": ("kind",), "fixed": ("kind", "n"), "geometric": ("kind", "q")}


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


def _take(params: dict | None, defaults: dict) -> dict:
    """``params`` over ``defaults``, numeric ones cast (None keeps a None default);
    a key outside ``defaults`` is an error."""
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ConfigError(f"params must be an object, got {params!r}")
    config_keys(params, defaults, "params")
    merged = {**defaults, **params}
    for key, val in merged.items():
        if key in _NUMBER_PARAMS and not (val is None and defaults[key] is None):
            merged[key] = config_number(val, f"parameter {key!r}", _NUMBER_PARAMS[key])
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
    if not isinstance(kind, str) or kind not in _STOPPING_KEYS:
        raise ConfigError(
            f"stopping kind must be one of {tuple(_STOPPING_KEYS)}, got {kind!r}"
        )
    config_keys(raw, _STOPPING_KEYS[kind], "stopping")
    out = {"kind": kind}
    if kind == "fixed":
        n = config_number(raw.get("n", horizon), "parameter 'n'", int)
        if not 1 <= n <= horizon:
            raise ConfigError(f"fixed stopping time {n} outside 1..{horizon}")
        out["n"] = n
    elif kind == "geometric":
        q = config_number(raw.get("q", 0.02), "parameter 'q'")
        if not 0.0 < q < 1.0:
            raise ConfigError(f"geometric parameter must be in (0,1), got {q}")
        out["q"] = q
    return out


def _norm_randomizer(raw, dim: int) -> MatrixRandomizer:
    if raw is None:
        raw = "scaled_identity"
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"randomizer must be a kind name or an object, got {raw!r}")
    config_keys(raw, ("kind", "y"), "randomizer")
    shift = raw.get("y")
    if shift is not None:
        shift = sm.config_matrix(shift, "parameter 'y'", dim)
    try:
        return MatrixRandomizer(raw.get("kind", "scaled_identity"), dim, shift)
    except DomainError as exc:
        raise ConfigError(f"randomizer: {exc}") from None


def _gamma_array(scale: float, horizon: int) -> np.ndarray:
    return scale / np.sqrt(np.arange(1, horizon + 1, dtype=np.float64))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class _Entry:
    name: str
    family: str  # "fixed" | "path"
    compatible: tuple[str, ...]  # the default generator kind first
    prepare: callable = field(repr=False, compare=False)
    tag: int  # the bound's place in _BOUNDS, which keys its substreams


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


def _threshold(p: dict, gen: GeneratorSpec, default_scale, pd=True) -> np.ndarray:
    """The threshold matrix ``a``: parameter ``a`` when given, positive
    definite with ``pd``, else ``default_scale() I``, the bound's default
    (computed only then)."""
    if p["a"] is None:
        return default_scale() * np.eye(gen.dim)
    a = sm.config_matrix(p["a"], "parameter 'a'", gen.dim)
    if pd and sm.lambda_min(a) <= 0.0:
        raise ConfigError(
            f"parameter 'a' must be positive definite, smallest eigenvalue {sm.lambda_min(a):g}"
        )
    return a


def _fixed_time(n: int, params: dict, gen: GeneratorSpec, **plan) -> dict:
    """A fixed-time plan: the mean ``Xbar_n`` of a scan stopped at ``n``,
    decided by ``event`` with the randomizer ``params["randomizer"]``."""
    plan["randomizer"] = _norm_randomizer(params["randomizer"], gen.dim)
    return {"process": pr.MeanScan, "stopping": {"kind": "fixed", "n": n}, "n_per": n, **plan}


def _prep_ummi(params, gen, mc):
    p = _take(params, {"a": None, "randomizer": None, "target": 0.5})
    mean_x = gen.mean()
    if p["a"] is None and gen.kind == "ELLIPSOID_RANK1":
        a = gen.a.copy()  # the supporting ellipsoid: equality case
    else:
        a = _threshold(p, gen, lambda: sm.trace(mean_x) / p["target"])
    return _fixed_time(
        1, p, gen,
        event=partial(fb.ummi_event, a=a),
        bound=fb.ummi_bound(mean_x, a),
    )


def _prep_cheb(params, gen, mc, n_fixed):
    p = _take(params, {"a": None, "n": n_fixed, "randomizer": None, "target": 0.2})
    n = p["n"]
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if n == 1 < n_fixed:
        raise ConfigError("UMCI_N is the n-sample variant; use UMCI1 for n = 1")
    if n > 1 and gen.kind == "EXCHANGEABLE_MIXTURE":
        raise IncompatiblePair("variance of the running mean needs independent draws")
    v = _moment(gen, "variance")
    a = _threshold(p, gen, lambda: math.sqrt(sm.trace(v) / (p["target"] * n)))
    return _fixed_time(
        n, p, gen,
        event=partial(fb.chebyshev_event, m=gen.mean(), a=a),
        bound=fb.chebyshev_n_bound(v, a, n),
    )


def _prep_pcheb1(params, gen, mc):
    p = _take(params, {"p": 1.5, "a": None, "randomizer": None, "target": 0.1})
    pw = p["p"]
    if not 1.0 <= pw <= 2.0:
        raise ConfigError(f"p must lie in [1, 2], got {pw}")
    vp = _moment(gen, "pth_central", pw)
    a = _threshold(p, gen, lambda: (sm.trace(vp) / p["target"]) ** (1.0 / pw))
    return _fixed_time(
        1, p, gen,
        event=partial(fb.pcheb1_event, m=gen.mean(), a=a, p=pw),
        p=pw,
        bound=fb.pcheb1_bound(vp, a, pw),
    )


@contextmanager
def _overflow_names(key: str, what: str):
    """Computing ``what`` from parameter ``key``: an overflow is a ConfigError naming it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (DomainError, OverflowError):
        raise ConfigError(f"parameter {key!r} overflows {what}") from None


def _prep_chernoff1(params, gen, mc):
    p = _take(params, {"gamma": 1.0, "a": None, "randomizer": None, "target": 0.15})
    gamma = config_step_size(p["gamma"], "parameter 'gamma'")
    m, c = gen.m, gen.c
    if sm.spectral_norm(m @ c - c @ m) > 1e-10 * max(1.0, sm.spectral_norm(m @ c)):
        raise IncompatiblePair(
            "closed-form exponential moment needs commuting mean and scale"
        )
    # With [M, C] = 0 the tilted mean splits: E e^{2g X} = e^{2g M} E e^{2g W C}.
    two_g = config_step_size(2.0 * gamma, "twice parameter 'gamma'")  # squared below
    with _overflow_names("gamma", f"the exponential moments, got {gamma!r}"):
        if gen.kind == "RADEMACHER_SCALED":
            half = sm.mat_exp(two_g * c) + sm.mat_exp(-two_g * c)
            exp_moment = sm.mat_exp(two_g * m) @ (half / 2.0)
        else:
            exp_moment = sm.mat_exp(two_g * m + (two_g**2 / 2.0) * (c @ c))
        exp_moment = sm.symmat(exp_moment)
    # Chernoff's bound holds for any symmetric threshold
    a = _threshold(p, gen, lambda: math.log(sm.trace(exp_moment) / p["target"]) / two_g, pd=False)
    with _overflow_names("a", "the bound's exponential e^(-2 gamma a)"):
        bound = fb.chernoff1_bound(exp_moment, a, gamma)
    return _fixed_time(
        1, p, gen, event=partial(fb.chernoff1_event, a=a, gamma=gamma), gamma=gamma, bound=bound
    )


_CH_ROWS = {
    "RADEMACHER": ("RADEMACHER_SCALED",),
    "UNI_GAUSSIAN": ("GAUSSIAN_SCALED",),
    "BENNETT_I": ("RADEMACHER_SCALED", "BOUNDED_PSD"),
    "BENNETT_II": ("RADEMACHER_SCALED", "BOUNDED_PSD"),
    "SYM_HOEFFDING": ("RADEMACHER_SCALED", "BOUNDED_PSD"),
}


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
    mgf_kind = p["mgf_kind"] or gen.mgf_row()[0]
    if not isinstance(mgf_kind, str) or mgf_kind not in _CH_ROWS:
        raise ConfigError(f"unknown MGF family {mgf_kind!r}")
    if gen.kind not in _CH_ROWS[mgf_kind]:
        raise IncompatiblePair(f"{mgf_kind} assumptions do not hold for {gen.kind}")
    if mgf_kind in ("RADEMACHER", "UNI_GAUSSIAN"):
        row_mat = gen.spread
        lam = sm.spectral_norm(row_mat) ** 2
    elif mgf_kind == "SYM_HOEFFDING":
        row_mat = _moment(gen, "sq_dev_bound")
        lam = sm.lambda_max(row_mat)
    else:
        if sm.spectral_norm(gen.spread) > 1.0 + sm.TOL_PSD:
            raise IncompatiblePair("one-sided Bernstein rows need deviations <= 1")
        row_mat = _moment(gen, "variance")
        if mgf_kind == "BENNETT_II":
            row_mat = row_mat + 0.05 * np.eye(gen.dim)
        lam = sm.lambda_max(row_mat)
    alpha0 = p["alpha0"]
    if not 0.0 < alpha0 < gen.dim:
        raise ConfigError(f"alpha0 must be in (0, {gen.dim}), got {alpha0}")
    gamma = (
        config_step_size(p["gamma"], "parameter 'gamma'")
        if p["gamma"] is not None
        else math.sqrt(2.0 * n * math.log(gen.dim / alpha0) / lam)
    )
    if p["a_scalar"] is not None and p["a_scalar"] <= 0.0:
        raise ConfigError(f"parameter 'a_scalar' must be positive, got {p['a_scalar']:g}")
    a_scalar = (
        p["a_scalar"]
        if p["a_scalar"] is not None
        else 2.0 * math.log(gen.dim / alpha0) / gamma
    )
    with _overflow_names("gamma", f"the exponential moments, got {gamma!r}"):
        bound = fb.chernoff_hoeffding_bound(fb.MgfSpec(mgf_kind, row_mat), gamma, n, a_scalar)
    return _fixed_time(
        n, p, gen,
        event=partial(fb.sum_tail_event, m=gen.mean(), a_scalar=a_scalar, gamma=gamma),
        gamma=gamma,
        a_scalar=a_scalar,
        bound=bound,
        mgf_kind=mgf_kind,
    )


# --- sequential entries ----------------------------------------------------


def _sequential_params(params, gen, mc, randomized=True) -> dict:
    """The ``alpha``, ``gamma_scale`` (None for the bound's default),
    ``randomizer`` and ``stopping`` of a sequential bound.  Without
    ``randomized`` the last two are not keys: the randomizer is ``U = I``
    and ``stopping`` None, as the crossing itself is the event."""
    defaults = {"alpha": 0.05, "gamma_scale": None}
    if randomized:
        defaults.update(randomizer=None, stopping=None)
    p = _take(params, defaults)
    if not 0.0 < p["alpha"] < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {p['alpha']}")
    if p["gamma_scale"] is not None:
        config_step_size(p["gamma_scale"], "parameter 'gamma_scale'")
    if randomized:
        p["randomizer"] = _norm_randomizer(p["randomizer"], gen.dim)
        p["stopping"] = _norm_stopping(p["stopping"], mc.horizon)
    else:
        p["randomizer"], p["stopping"] = MatrixRandomizer("identity", gen.dim), None
    return p


def _umvi_common(params, gen, mc, builder, randomized=True):
    p = _sequential_params(params, gen, mc, randomized)
    m = gen.mean()
    kwargs = {}  # the builder's parameters
    if builder == "MGF":
        row_kind, row_mat = _moment(gen, "mgf_row")
        scale_ref = (
            sm.spectral_norm(row_mat)
            if row_kind != "SYM_HOEFFDING"
            else math.sqrt(sm.lambda_max(row_mat))
        )
        kwargs["mgf"] = fb.MgfSpec(row_kind, row_mat)
        default_scale = 0.5 / max(scale_ref, 1e-12)
    elif builder == "BETTING":
        _moment(gen, "betting_upper")  # the factor needs 0 <= X <= B surely
        hi = 1.0 / sm.lambda_max(m)
        default_scale = 0.4 * hi
    elif builder == "SELF_NORMALIZED":
        v = kwargs["v"] = _moment(gen, "variance")
        default_scale = 0.5 / max(math.sqrt(sm.lambda_max(v)), 1e-12)
    else:  # SYMMETRIC_DIST
        if not gen.deviations_symmetric():
            raise IncompatiblePair("needs conditionally symmetric deviations")
        default_scale = 0.3 / max(sm.spectral_norm(gen.spread), 1e-12)
    scale = default_scale if p["gamma_scale"] is None else p["gamma_scale"]
    gammas = _gamma_array(scale, mc.horizon)
    if builder == "BETTING" and gammas[0] >= hi:
        raise ConfigError(
            f"gamma schedule starts at {gammas[0]:.6g}, outside the "
            f"admissible interval (0, {hi:.6g})"
        )
    a_scalar = gen.dim / p["alpha"]
    return {
        "process": partial(pr.FactorProcess, builder=builder, m=m, a=a_scalar, **kwargs),
        "horizon": mc.horizon,
        "a_scalar": a_scalar,
        "bound": p["alpha"],
        "stopping": p["stopping"],
        "randomizer": p["randomizer"],
        "gammas": gammas,
    }


def _prep_doob(params, gen, mc):
    p = _take(params, {"a": None, "n": 100, "target": 0.1})
    n = p["n"]
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    v = _moment(gen, "variance")
    if p["a"] is not None:
        a = sm.config_matrix(p["a"], "parameter 'a'", gen.dim)
        a_scalar = float(a[0, 0])
        if not np.array_equal(a, a_scalar * np.eye(gen.dim)):
            raise ConfigError("the squared-mean scan needs a scalar threshold a I")
        if a_scalar <= 0.0:
            raise ConfigError(f"parameter 'a' must be a positive multiple of I, got {a_scalar:g} I")
    else:
        a_scalar = sm.trace(v) / p["target"]
    return {
        "process": partial(pr.MeanScan, kind="DOOB", m=gen.mean(), a=float(a_scalar)),
        "horizon": n,
        "a_scalar": float(a_scalar),
        "bound": sm.trace(v) / float(a_scalar),
        "randomizer": MatrixRandomizer("identity", gen.dim),
    }


def _scan_common(params, gen, mc, kind, default_target):
    """The running-mean scans: ``tr`` is the trace of the variance (XMCI,
    XMCI2) or of the ``p``-th moment (XMPCI raw, TRACE_PCHEB central), and
    the default threshold ``a = (tr / (target n_start))^(1/p)`` meets the
    bound ``tr / (a^p n_start)`` at ``target`` (``p = 2`` for the variance
    scans, ``n_start = 1`` unless XMCI2)."""
    defaults = {"a": None, "n_max": 300, "target": default_target}
    if kind == "XMCI2":
        defaults["n_start"] = 10
    if kind in ("XMPCI", "TRACE_PCHEB"):
        defaults["p"] = 1.5
    p = _take(params, defaults)
    n_max = p["n_max"]
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    n_start = p.get("n_start", 1)
    if not 1 <= n_start <= n_max:
        raise ConfigError(f"n_start {n_start} outside 1..{n_max}")
    plan = {"horizon": n_max, "randomizer": MatrixRandomizer("identity", gen.dim)}
    if kind == "XMPCI":
        plan["p"] = pw = p["p"]
        if not 1.0 <= pw <= 2.0:
            raise ConfigError(f"p must lie in [1, 2], got {pw}")
        tr = sm.trace(_moment(gen, "pth_raw", pw))
    elif kind == "TRACE_PCHEB":
        plan["p"] = pw = p["p"]
        if pw < 1.0:
            raise ConfigError(f"p must be >= 1, got {pw}")
        tr = sm.trace(_moment(gen, "pth_central", pw))
    else:
        pw = 2
        tr = sm.trace(_moment(gen, "variance"))
    if p["a"] is not None:
        a_scalar = config_number(p["a"], "parameter 'a'")
        if a_scalar <= 0.0:
            raise ConfigError(f"parameter 'a' must be positive, got {a_scalar:g}")
    else:
        ratio = tr / (p["target"] * n_start)
        a_scalar = math.sqrt(ratio) if pw == 2 else ratio ** (1.0 / pw)
    plan["a_scalar"] = a_scalar
    plan["bound"] = tr / (a_scalar**pw * n_start)
    m = None if kind == "XMPCI" else gen.mean()
    plan["process"] = partial(
        pr.MeanScan, kind=kind, m=m, a=a_scalar, p=plan.get("p"), n_start=n_start
    )
    return plan


def _trace_exp_common(params, gen, mc, kind, moment, scale_coeff, what):
    """URSN and USMHI both run the self-normalized trace-exp process: URSN
    tests its value with the variance V, USMHI the Hoeffding e-process
    derived from it with the square-deviation bound B."""
    p = _sequential_params(params, gen, mc)
    if p["randomizer"].kind == "shifted":
        raise ConfigError(f"the {what} test uses a scalar randomizer")
    v = _moment(gen, moment)
    scale = (
        scale_coeff / max(math.sqrt(sm.lambda_max(v)), 1e-12)
        if p["gamma_scale"] is None
        else p["gamma_scale"]
    )
    v, b = (v, None) if kind == "URSN" else (None, v)
    return {
        "process": partial(pr.TraceExpProcess, m=gen.mean(), v=v, alpha=p["alpha"], b=b),
        "horizon": mc.horizon,
        "alpha": p["alpha"],
        "gammas": _gamma_array(scale, mc.horizon),
        "stopping": p["stopping"],
        "randomizer": p["randomizer"],
        "bound": p["alpha"],
    }


#: every bound: its name, family, compatible generator kinds (the default
#: first) and the function that turns (params, generator, McConfig) into
#: the plan of a run.  A bound's place here is the ``tag`` that keys its
#: substreams, so new bounds go at the end.
_BOUNDS = (
    ("UMMI", "fixed", ("ELLIPSOID_RANK1", "HEAVY_PSD", "BOUNDED_PSD"), _prep_ummi),
    (
        "UMCI1",
        "fixed",
        ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "SYMMETRIC_HEAVY",
         "EXCHANGEABLE_MIXTURE", "IID_WISHART_LIKE"),
        partial(_prep_cheb, n_fixed=1),
    ),
    (
        "UMCI_N",
        "fixed",
        ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
        partial(_prep_cheb, n_fixed=50),
    ),
    (
        "PCHEB1",
        "fixed",
        ("SYMMETRIC_HEAVY", "GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD"),
        _prep_pcheb1,
    ),
    ("CHERNOFF1", "fixed", ("RADEMACHER_SCALED", "GAUSSIAN_SCALED"), _prep_chernoff1),
    (
        "CHERNOFF_HOEFFDING",
        "fixed",
        ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD"),
        _prep_ch,
    ),
    (
        "UMVI_MGF",
        "path",
        ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD"),
        partial(_umvi_common, builder="MGF"),
    ),
    ("UMVI_BETTING", "path", ("BOUNDED_PSD",), partial(_umvi_common, builder="BETTING")),
    (
        "UMVI_SELF_NORMALIZED",
        "path",
        ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
        partial(_umvi_common, builder="SELF_NORMALIZED"),
    ),
    (
        "UMVI_SYMMETRIC",
        "path",
        ("SYMMETRIC_HEAVY", "RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD"),
        partial(_umvi_common, builder="SYMMETRIC_DIST"),
    ),
    # "exists n" scans are never randomized: the threshold would have to be
    # known before the scan starts for the crossing to define a stopping
    # time, so the plain version is the honest one.
    ("MVI", "path", ("BOUNDED_PSD",), partial(_umvi_common, builder="BETTING", randomized=False)),
    (
        "DOOB",
        "path",
        ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
        _prep_doob,
    ),
    (
        "XMCI",
        "path",
        ("EXCHANGEABLE_MIXTURE", "GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD",
         "IID_WISHART_LIKE"),
        partial(_scan_common, kind="XMCI", default_target=0.25),
    ),
    (
        # The sharper 1/n variant needs E[D_i D_j + D_j D_i] = 0 for i != j;
        # i.i.d. centered increments give that, a shared latent shift does not.
        "XMCI2",
        "path",
        ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
        partial(_scan_common, kind="XMCI2", default_target=0.1),
    ),
    ("XMPCI", "path", ("HEAVY_PSD",), partial(_scan_common, kind="XMPCI", default_target=0.1)),
    (
        "TRACE_PCHEB",
        "path",
        ("SYMMETRIC_HEAVY", "GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD"),
        partial(_scan_common, kind="TRACE_PCHEB", default_target=0.2),
    ),
    (
        "URSN",
        "path",
        ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD", "IID_WISHART_LIKE"),
        partial(_trace_exp_common, kind="URSN", moment="variance", scale_coeff=0.5,
                what="trace-exp"),
    ),
    (
        "USMHI",
        "path",
        ("RADEMACHER_SCALED", "BOUNDED_PSD"),
        partial(_trace_exp_common, kind="USMHI", moment="sq_dev_bound", scale_coeff=0.3,
                what="stopped Hoeffding"),
    ),
)

_REGISTRY = {
    name: _Entry(name, family, compatible, prepare, tag)
    for tag, (name, family, compatible, prepare) in enumerate(_BOUNDS)
}


# ---------------------------------------------------------------------------
# block runners


def _path_events(plan, xs, g_rand: np.random.Generator) -> np.ndarray:
    """Per-trial events of a bound on stacked paths ``xs`` (see ``processes.first_crossing``)."""
    size, horizon = xs.shape[0], xs.shape[1]
    stopping = plan.get("stopping") or {}
    taus = None
    if stopping.get("kind") == "geometric":
        taus = np.minimum(g_rand.geometric(stopping["q"], size), horizon)
    elif stopping.get("kind") == "fixed":
        taus = np.full(size, stopping["n"])
    proc = plan["process"]()
    stop = pr.first_crossing(proc, xs, plan.get("gammas"), taus)
    if not stopping:
        # "exists n" scans: the crossing itself is the event, never randomized
        return stop > 0
    event = plan.get("event") or proc.stopped_event
    return event(proc.at_stop, u=plan["randomizer"].draw(g_rand, size))


def _block_task(args) -> int:
    """The event count of one block of trials, every bound's one run loop."""
    plan, gen, size, steps, seed, tag, block_idx = args
    g_data, g_rand = _rng.spawn_pair(seed, tag, block_idx)
    return int(np.count_nonzero(_path_events(plan, gen.draw(g_data, size, steps), g_rand)))


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
    steps = plan.get("n_per", plan.get("horizon"))
    cap = _FIXED_BLOCK_CAP if entry.family == "fixed" else pr._PATH_BLOCK_CAP
    block = pr._block_size(steps, gen.dim, cap)
    sizes = [block] * (mc.trials // block)
    if mc.trials % block:
        sizes.append(mc.trials % block)
    tasks = [(plan, gen, size, steps, seed, entry.tag, idx) for idx, size in enumerate(sizes)]
    pool_size = _pool_size(mc.workers)
    try:
        if pool_size == 1:
            counts = [_block_task(t) for t in tasks]
        else:
            counts = _POOL.map(_block_task, tasks, pool_size)
    except DomainError as exc:
        if "gammas" not in plan:
            raise
        # the generators draw finite data: a process that overflows does so by its step sizes
        raise ConfigError(
            f"parameter 'gamma_scale' overflows the process at the first step size "
            f"{plan['gammas'][0]:g}: {exc}"
        ) from None
    hits = int(sum(counts))
    name = f"{bound}[{gen.kind},d={gen.dim}]"
    meta = {
        "bound": bound,
        "generator": gen.kind,
        "dim": gen.dim,
        "seed": seed,
        "randomizer": plan["randomizer"].kind,
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


def _default_sheavy(d, tail):
    diag = 0.2 * (0.5 + 0.5 * np.arange(1, d + 1) / d)
    return GeneratorSpec("SYMMETRIC_HEAVY", d, d_dir=np.diag(diag), tail_index=tail)


def default_generator(bound: str, kind: str, d: int) -> GeneratorSpec:
    """A generator of the given kind sized sensibly for the given bound."""
    entry = _entry(bound)
    if kind not in entry.compatible:
        raise IncompatiblePair(f"{bound} is not verified against {kind}")
    ramp = 0.5 + 0.5 * np.arange(1, d + 1) / d  # diagonal scales, 1/2 + 1/(2d) up to 1
    if kind == "RADEMACHER_SCALED":
        return GeneratorSpec(kind, d, c=np.diag(0.8 * ramp), m=0.2 * np.eye(d))
    if kind == "GAUSSIAN_SCALED":
        return GeneratorSpec(kind, d, c=np.diag(0.5 * ramp), m=0.1 * np.eye(d))
    if kind == "BOUNDED_PSD":
        m = np.eye(d) + np.diag(np.linspace(0.0, 0.2, d))
        return GeneratorSpec(kind, d, m=m, b=3.0 * np.eye(d))
    if kind == "SYMMETRIC_HEAVY":
        # keep requested p-th moments finite for the default p values
        return _default_sheavy(d, 1.75 if bound == "PCHEB1" else 2.5)
    if kind == "EXCHANGEABLE_MIXTURE":
        return GeneratorSpec(kind, d, d_dir=0.6 * np.eye(d), tau=0.5, c=0.3 * np.eye(d))
    if kind == "IID_WISHART_LIKE":
        return GeneratorSpec(kind, d, scale=0.5)
    if kind == "HEAVY_PSD":
        return GeneratorSpec(kind, d, scale=1.0, tail_index=1.75 if bound == "XMPCI" else 1.5)
    if kind == "ELLIPSOID_RANK1":
        return GeneratorSpec(kind, d, a=np.diag(np.arange(1.0, d + 1.0)))
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
            out.append((name, default_generator(name, entry.compatible[0], d), None))
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
    """Largest exact trace-moment ratio over a randomized search.

    The ratio compared is ``tr E|S_n|^p`` against ``n * tr V_p`` for
    centered sums of sign-symmetric matrix increments, computed exactly
    on each instance's finite law.  A ratio above 1 beyond float rounding
    refutes the conjecture for the instance ``mats``, ``n``; no ratio
    proves it.
    """

    p: float
    d: int
    best_ratio: float
    n: int
    mats: tuple
    instances: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "best_ratio": self.best_ratio,
            "n": self.n,
            "mats": [m.tolist() for m in self.mats],
            "instances": self.instances,
            "seed": self.seed,
        }


@lru_cache(maxsize=None)
def _walk_law(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of ``c`` in ``Z^k`` after ``n`` steps ``±e_j``, each with
    probability ``1/(2k)``: its atoms ``(atoms, k)`` and their
    probabilities, read-only, grown from the law at ``n - 1``."""
    if n == 0:
        atoms, probs = np.zeros((1, k), dtype=np.int64), np.ones(1)
    else:
        prev, prev_probs = _walk_law(n - 1, k)
        # cell c + n of a grid holds the probability of c
        grid = np.zeros((2 * n + 1,) * k)
        for j in range(k):
            for sign in (-1, 1):
                cells = prev + n
                cells[:, j] += sign
                grid[tuple(cells.T)] += prev_probs / (2 * k)
        atoms, probs = np.argwhere(grid) - n, grid[grid != 0]
    atoms.flags.writeable = probs.flags.writeable = False
    return atoms, probs


def _trace_abs_pow(stack: np.ndarray, p: float) -> np.ndarray:
    """``tr |A|^p`` of each matrix of a stack."""
    return (np.abs(np.linalg.eigvalsh(stack)) ** p).sum(axis=-1)


def _instance(base: int, i: int, d: int) -> tuple[np.ndarray, int]:
    """Instance ``i`` of a search: its ``k`` in {2, 3} directions ``(k, d, d)`` and its ``n``."""
    g = _rng.substream(base, 0xF415, i)
    k = int(g.integers(2, 4))
    raw = g.standard_normal((k, d, d))
    return (raw + np.transpose(raw, (0, 2, 1))) / 2.0, int(g.integers(2, 31))


def _exact_ratio(mats: np.ndarray, n: int, p: float) -> float:
    """``tr E|S_n|^p / (n tr V_p)`` for the sum of ``n`` steps ``±D_j``, each
    with probability ``1/(2k)``: ``S_n = sum_j c_j D_j`` over the atoms of
    :func:`_walk_law`, one batched ``eigvalsh``."""
    atoms, probs = _walk_law(n, len(mats))
    sums = np.tensordot(atoms.astype(np.float64), mats, axes=1)
    return float(probs @ _trace_abs_pow(sums, p)) / (n * float(_trace_abs_pow(mats, p).mean()))


def falsify_conjecture(p: float, d: int, instances: int = 200, seed: int | None = None) -> FalsifyRecord:
    """Search for instances pushing ``tr E|S_n|^p`` past ``n tr V_p``.

    Instances are mixtures ``X = R D_J`` of a fair sign times one of
    ``k`` random symmetric directions, for which ``V_p = mean_j |D_j|^p``,
    and each ratio is exact (:func:`_exact_ratio`).  Returns the largest;
    at ``p = 2`` every ratio is 1 up to rounding.
    """
    if not 1.0 <= p <= 2.0:
        raise ConfigError(f"p must lie in [1, 2], got {p}")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if instances < 1:
        raise ConfigError("need at least 1 instance")
    base = seed if seed is not None else _rng.default_seed()
    best = None
    for i in range(instances):
        mats, n = _instance(base, i, d)
        ratio = _exact_ratio(mats, n, p)
        if best is None or ratio > best[0]:
            best = (ratio, n, tuple(mats))
    return FalsifyRecord(
        p=float(p), d=d, best_ratio=best[0], n=best[1], mats=best[2], instances=instances, seed=base
    )
