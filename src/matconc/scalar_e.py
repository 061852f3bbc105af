"""Scalar supermartingales and e-processes built from matrix streams.

The master object is the trace-exp process

    L_n = tr exp( sum_i gamma_i Z_i - sum_i psi(gamma_i) (C_i + C_i') )

which is a nonnegative scalar supermartingale with ``L_0 = d`` whenever
each increment satisfies the corresponding exponential-moment relation.
It always dominates the spectral e-process

    exp( lambda_max(sum gamma_i Z_i) - lambda_max(sum psi(gamma_i)(C_i + C_i')) ).

Two instances ship: the self-normalized process (``psi(x) = x^2 / 2``,
``C_n = (X_n - M_n)^2 / 3``, ``C_n' = 2 V_n / 3``), whose compensator
subtracts ``(gamma_i^2 / 6)((X_i - M_i)^2 + 2 V_i)``, and — derived from
it with the variance replaced by the square-deviation bound ``B_n`` —
the Hoeffding e-process and its stopped closed-form threshold.

The state takes stacks ``(..., d, d)`` of independent processes: the
kernels :func:`sn_increments` (also on a block of consecutive steps),
:func:`sn_advance`, :meth:`TraceExpState.log_value`,
:func:`log_hoeffding_eprocess_value` and :func:`log_level` serve the
Monte Carlo harness and the CLI, and the per-sample functions are their
batch-of-one wrappers.

The module also hosts the two sequential mean-test decision rules: the
MATRIX rule rejects when the matrix process escapes a threshold matrix
``A`` with ``tr(A^{-1}) = alpha``; the SCALAR rule rejects when the
trace-exp value reaches ``d u / alpha``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import martingales as mg
from . import symmat as sm
from .errors import (
    AssumptionViolated,
    ConfigError,
    DimMismatch,
    DomainError,
    PreconditionFailed,
)

__all__ = [
    "PSI_QUADRATIC",
    "TraceExpState",
    "sn_increments",
    "sn_advance",
    "sn_process_step",
    "log_level",
    "log_trace_exp",
    "ursn_event",
    "hoeffding_eprocess_value",
    "log_hoeffding_eprocess_value",
    "usmhi_threshold",
    "usmhi_threshold_from_state",
    "usmhi_event",
    "mhi_threshold",
    "matrix_test_decide",
    "scalar_test_decide",
    "calibrated_threshold",
    "oracle_A_choice",
]


def PSI_QUADRATIC(g: float) -> float:
    """The only shipped psi: ``psi(x) = x^2 / 2``."""
    return g * g / 2.0


#: Threshold-matrix calibration must hit alpha at least this closely
#: before auto-rescaling kicks in.
ALPHA_CAL_TOL = 1e-10


@dataclass(frozen=True)
class TraceExpState:
    """Accumulated state of the trace-exp scalar process.

    The tilt ``sum gamma_i Z_i`` and the compensator
    ``sum psi(gamma_i)(C_i + C_i')`` are kept separately, each with a
    Kahan compensation carry, so long streams of tiny increments do not
    lose mass; the exponent matrix is their difference.
    ``sum_gamma_sq_b`` tracks ``sum gamma_i^2 B_i`` when square-deviation
    bounds are supplied, feeding the Hoeffding threshold family.

    Starting from ``start(dim)``, stepping with stacked increments
    broadcasts the matrix fields to the stack's shape; ``sum_gamma`` and
    ``sum_gamma_sq_b`` stay shared, since gammas and bounds are
    predictable.
    """

    gz: np.ndarray
    gz_carry: np.ndarray
    pc: np.ndarray
    pc_carry: np.ndarray
    sum_gamma: float
    sum_gamma_sq_b: np.ndarray
    n: int

    @classmethod
    def start(cls, dim: int) -> "TraceExpState":
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim}")
        z = np.zeros((dim, dim))
        return cls(
            gz=z.copy(),
            gz_carry=z.copy(),
            pc=z.copy(),
            pc_carry=z.copy(),
            sum_gamma=0.0,
            sum_gamma_sq_b=z.copy(),
            n=0,
        )

    @property
    def dim(self) -> int:
        return self.gz.shape[-1]

    def exponent(self) -> np.ndarray:
        """The matrix ``S_n`` inside the trace-exp.

        The accumulators are built from finite data, so they are not
        re-validated; they are symmetrized, since the compensator's
        ``dev @ dev`` terms need not be bitwise symmetric.
        """
        return sm.symmat_stack(self.gz - self.pc, trusted=True)

    def log_value(self):
        """``log L_n``, computed with an eigenvalue shift against overflow.

        A float, or an array with one value per process of a stacked state.
        """
        return _float_or_stack(log_trace_exp(self.exponent()))

    def value(self) -> float:
        """``L_n = tr exp(S_n)``; ``d`` at n = 0, inf past float range."""
        return _exp_or_inf(self.log_value())

    def log_spectral_lower_bound(self) -> float:
        """Log of the dominated e-process value."""
        return float(_top(self.gz) - _top(self.pc))

    def weighted_dev_mean(self) -> np.ndarray:
        """Gamma-weighted average deviation ``(sum gamma_i Z_i) / sum gamma_i``."""
        if self.sum_gamma <= 0.0:
            raise DomainError("no positive-gamma steps accumulated yet")
        return sm.symmat(self.gz / self.sum_gamma)


def log_trace_exp(s: np.ndarray) -> np.ndarray:
    """``log tr exp(S)`` per matrix of a symmetric stack ``s`` (..., d, d),
    as ``lambda_max + log sum_i exp(w_i - lambda_max)`` against overflow.

    Each matrix's value depends on that matrix only, so the value of a
    row subset equals the same rows of the whole stack's, bit for bit.
    """
    w = np.linalg.eigvalsh(s)
    top = w[..., -1]
    return top + np.log(np.exp(w - top[..., None]).sum(axis=-1))


def _kahan_add(total: np.ndarray, carry: np.ndarray, delta: np.ndarray, out=None, work=None):
    """``total + delta`` with Kahan compensation: the new total and carry.

    ``out`` receives the total.  With ``work``, a buffer shaped like the
    sum, the step allocates nothing: ``work`` takes the compensated
    increment and the new carry overwrites ``carry``.  The outputs go in
    positionally, which a ufunc call parses faster than ``out=``.
    """
    y = np.subtract(delta, carry, work)
    t = np.add(total, y, out)
    c = np.subtract(t, total, None if work is None else carry)
    return t, np.subtract(c, y, None if work is None else c)


def log_level(d: int, alpha: float, u=1.0):
    """``log(d u / alpha)``, the level a stopped log e-process must reach.

    ``u`` may be an array of randomizer draws, one per trial.
    """
    return math.log(d / alpha) + np.log(u)


def _advance(state: TraceExpState, gamma: float, dz, dc=None, db=None) -> TraceExpState:
    """Kahan-compensated step, stack-aware: ``+ dz`` to the tilt, ``+ dc``
    to the compensator and ``+ db`` to ``sum_gamma_sq_b`` (each unless
    None), ``+ gamma`` to ``sum_gamma``."""
    gz, gz_carry = _kahan_add(state.gz, state.gz_carry, dz)
    pc, pc_carry = state.pc, state.pc_carry
    if dc is not None:
        pc, pc_carry = _kahan_add(pc, pc_carry, dc)
    sum_b = state.sum_gamma_sq_b if db is None else state.sum_gamma_sq_b + db
    return TraceExpState(gz, gz_carry, pc, pc_carry, state.sum_gamma + gamma, sum_b, state.n + 1)


def _check_step(state: TraceExpState, gamma: float, *mats: np.ndarray) -> None:
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if any(a.shape != (state.dim, state.dim) for a in mats):
        raise DimMismatch("increment dimensions do not match the state")


def sn_increments(dev, v, gamma, b: np.ndarray | None = None, out=None):
    """The state-free part of self-normalized steps on deviations ``dev = X - M``.

    Returns the tilt increment ``gamma dev``, the compensator increment
    ``(gamma^2/6)(dev^2 + 2V)``, written ``psi(gamma)(dev^2/3 + 2V/3)``,
    and ``gamma^2 B``; the second is None without ``v`` (the Hoeffding
    e-process reads only the tilt and ``sum_gamma_sq_b``), the third
    None without ``b``.  ``gamma`` is one step's size with a stack ``dev``
    of shape ``(..., d, d)``, or ``k`` step sizes with a block ``(k, ...,
    d, d)`` whose leading axis is the step; each step's scalars are those
    of a single step (see :func:`~matconc.martingales.factor_pair`).

    ``out``, for a block, is a ``(2, k, ..., d, d)`` buffer (``(1, k, ...,
    d, d)`` without ``v``), or a view of one such as a step-major buffer
    with its first two axes swapped: the tilt increments are written to
    ``out[0]`` and the compensator increments to ``out[1]``, so that one
    Kahan add per step takes both sums; the first two returns are those
    views.
    """
    nd = dev.ndim - 1
    g, psi, g_sq = mg._per_step(gamma, lambda g: (g, float(PSI_QUADRATIC(g)), g**2), nd, nd, 2)
    tilt, dc = (None, None) if out is None else (out[0], out[1] if v is not None else None)
    if v is not None:
        # each operation that of psi * ((dev @ dev) / 3 + (2/3) V), in place
        # in a buffer of its own but the last: in-place operations run
        # slower on a strided ``out``
        sq = dev @ dev
        sq /= 3.0
        sq += (2.0 / 3.0) * v
        dc = np.multiply(sq, psi, out=sq if dc is None else dc)
    return np.multiply(g, dev, out=tilt), dc, None if b is None else g_sq * b


def sn_advance(
    state: TraceExpState, dev, v, gamma: float, b: np.ndarray | None = None
) -> TraceExpState:
    """Self-normalized step for a stack of deviations ``dev = X - M``; no validation.

    Adds the increments of :func:`sn_increments` to the state.
    """
    return _advance(state, gamma, *sn_increments(dev, v, gamma, b))


def sn_process_step(
    state: TraceExpState,
    x: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    gamma: float,
    b: np.ndarray | None = None,
) -> TraceExpState:
    """Self-normalized instance: subtracts ``(gamma^2/6)((X-M)^2 + 2V)``.

    ``v`` is the predictable conditional variance (bound).  When the
    square-deviation bound ``b`` is also known, pass it to accumulate
    ``sum gamma_i^2 B_i`` for the Hoeffding thresholds; a realized
    ``(X - M)^2`` escaping ``b`` triggers an AssumptionViolated warning
    but does not stop the stream.
    """
    x = sm.symmat(x)
    m = sm.symmat(m)
    v = sm.symmat(v)
    _check_step(state, gamma, x, m, v)
    dev = x - m
    if b is not None:
        b = sm.symmat(b)
        if not sm.loewner_leq(dev @ dev, b):
            warnings.warn(
                "realized squared deviation exceeds the declared bound B",
                AssumptionViolated,
                stacklevel=2,
            )
    return sn_advance(state, dev, v, gamma, b)


def ursn_event(state: TraceExpState, alpha: float, u: float) -> bool:
    """Randomized stopped rejection ``L_tau >= d u / alpha``."""
    _check_alpha(alpha)
    if u <= 0.0:
        raise DomainError(f"u must be positive, got {u}")
    return bool(state.log_value() >= log_level(state.dim, alpha, u))


def _top(a: np.ndarray) -> np.ndarray:
    """``lambda_max`` per matrix of an accumulator built from finite data."""
    return np.linalg.eigvalsh(sm.symmat_stack(a, trusted=True))[..., -1]


def _float_or_stack(x: np.ndarray):
    """A float for one process, the array for a stack of them."""
    return float(x) if x.ndim == 0 else x


def log_hoeffding_eprocess_value(state: TraceExpState):
    """Log of ``exp(lambda_max(sum gamma_i (X_i - M_i)) - lambda_max(sum gamma_i^2 B_i)/2)``.

    The stopped Hoeffding test rejects when it reaches :func:`log_level`.
    A float, or an array with one value per process of a stacked state.
    """
    return _float_or_stack(_top(state.gz) - 0.5 * _top(state.sum_gamma_sq_b))


def hoeffding_eprocess_value(state: TraceExpState) -> float:
    """The bounded-deviations e-process value; always <= the trace-exp value,
    inf past float range."""
    return _exp_or_inf(log_hoeffding_eprocess_value(state))


def _exp_or_inf(log_value: float) -> float:
    """``exp(log_value)``, or inf exactly where that overflows the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def usmhi_threshold(
    gammas: Sequence[float],
    bs,
    alpha: float,
    u: float,
    d: int,
) -> float:
    """Stopped Hoeffding rejection threshold.

    ``(log(d u / alpha) + lambda_max(sum gamma_i^2 B_i) / 2) / sum gamma_i``,
    to be compared against ``lambda_max`` of the gamma-weighted average
    deviation at the stopping time.
    """
    gam = np.asarray(gammas, dtype=np.float64)
    if gam.size == 0 or np.any(gam <= 0.0):
        raise DomainError("need at least one positive gamma")
    acc = None
    for g, b_raw in zip(gam, bs, strict=True):
        b = sm.symmat(b_raw)
        acc = g * g * b if acc is None else acc + g * g * b
    return _hoeffding_threshold(d, alpha, u, acc, float(np.sum(gam)))


def usmhi_threshold_from_state(state: TraceExpState, alpha: float, u: float) -> float:
    """Threshold computed from a state's running accumulators."""
    if state.sum_gamma <= 0.0:
        raise DomainError("no positive-gamma steps accumulated yet")
    return _hoeffding_threshold(state.dim, alpha, u, state.sum_gamma_sq_b, state.sum_gamma)


def _hoeffding_threshold(d, alpha, u, sum_gamma_sq_b, sum_gamma) -> float:
    _check_alpha(alpha)
    if u <= 0.0:
        raise DomainError(f"u must be positive, got {u}")
    return float((log_level(d, alpha, u) + 0.5 * _top(sum_gamma_sq_b)) / sum_gamma)


def usmhi_event(weighted_dev_mean: np.ndarray, threshold: float) -> bool:
    """Rejection event ``lambda_max(weighted mean deviation) >= threshold``."""
    return bool(_top(sm.symmat(weighted_dev_mean)) >= threshold)


def mhi_threshold(b_opnorm: float, n: int, d: int, alpha: float) -> float:
    """Classical fixed-n bounded-deviations threshold ``sqrt(8 log(d/alpha) b / n)``.

    Reference point only: the stopped randomized threshold above beats
    it by a factor approaching 2 at ``u = 1``.
    """
    _check_alpha(alpha)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return math.sqrt(8.0 * b_opnorm * math.log(d / alpha) / n)


def matrix_test_decide(y: np.ndarray, a_thresh: np.ndarray) -> bool:
    """MATRIX rule: reject when ``Y_n`` is not below the threshold matrix."""
    a = sm.symmat(a_thresh)
    if sm.lambda_min(a) <= 0.0:
        raise DomainError("threshold matrix must be positive definite")
    return bool(mg.exceeds(sm.symmat(y), a))


def scalar_test_decide(l_value: float, d: int, alpha: float, u: float = 1.0) -> bool:
    """SCALAR rule: reject when ``L_n >= d u / alpha``."""
    _check_alpha(alpha)
    if u <= 0.0:
        raise DomainError(f"u must be positive, got {u}")
    return l_value >= d * u / alpha


def calibrated_threshold(alpha: float, a: np.ndarray) -> np.ndarray:
    """The threshold matrix of the MATRIX rule, rescaled so that
    ``tr(A^{-1}) == alpha`` (exactly, up to float rounding); inputs
    already within ``1e-10`` are kept as given.
    """
    _check_alpha(alpha)
    a = sm.symmat(a)
    if sm.lambda_min(a) <= 0.0:
        raise ConfigError("threshold matrix must be positive definite")
    t = sm.trace(sm.mat_inv(a))
    if abs(t - alpha) > ALPHA_CAL_TOL:
        a = (t / alpha) * a
        t2 = sm.trace(sm.mat_inv(a))
        if abs(t2 - alpha) > ALPHA_CAL_TOL:
            raise ConfigError(
                f"could not calibrate threshold: tr(A^-1) = {t2!r} vs alpha = {alpha!r}"
            )
    return a


def oracle_A_choice(y1_known: np.ndarray, alpha: float, epsilon: float) -> np.ndarray:
    """Threshold matrix that rejects a known-in-advance first value.

    For ``Y_1`` with top eigenvalue above ``1/alpha``, builds
    ``A = (d-1)/epsilon * (P_1 + ... + P_{d-1}) + (alpha - epsilon)^{-1} P_d``
    from the eigenprojectors of ``Y_1`` (``P_d`` belonging to the top
    eigenvalue).  Then ``tr(A^{-1}) = alpha`` and ``Y_1`` escapes ``A``
    along the top eigendirection.  At ``d = 1`` the sum is empty and the
    single coefficient becomes ``1/alpha`` to keep the calibration.
    """
    _check_alpha(alpha)
    y1 = sm.symmat(y1_known)
    dec = sm.eigh_decomp(y1)
    lam_top = float(dec.eigenvalues[-1])
    if lam_top <= 1.0 / alpha:
        raise PreconditionFailed(
            f"top eigenvalue {lam_top:.6g} must exceed 1/alpha = {1.0 / alpha:.6g}"
        )
    d = dec.dim
    if d == 1:
        return np.array([[1.0 / alpha]])
    if not (0.0 < epsilon < alpha - 1.0 / lam_top):
        raise PreconditionFailed(
            f"epsilon must lie in (0, {alpha - 1.0 / lam_top:.6g}), got {epsilon}"
        )
    q = dec.eigenvectors
    rest = q[:, : d - 1] @ q[:, : d - 1].T
    top = np.outer(q[:, -1], q[:, -1])
    a = ((d - 1) / epsilon) * rest + (1.0 / (alpha - epsilon)) * top
    return sm.symmat(a)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
