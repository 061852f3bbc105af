"""Fixed-time randomized tail bounds for random symmetric matrices.

Each inequality is shipped as a pair of pure functions:

* an *event predicate* deciding, for one realization of the data and one
  randomizer draw, whether the tail event occurred, and
* a *bound evaluator* returning the probability bound from the relevant
  moment information.

The Monte Carlo engine pairs the two: over many trials the empirical
event frequency must not exceed the evaluated bound.  A bound larger
than one is legal but uninformative; evaluators return it verbatim and
reports flag it as vacuous.

The predicates are also the engine's batched kernels.  ``x`` is one
matrix or a stack ``(..., d, d)`` of trials; events on a mean take
``xs`` of shape ``(..., n, d, d)``.  They return a ``bool`` for one
trial and a bool array for a stack.

Conventions: ``a`` is the positive definite threshold matrix, ``gamma``
a positive tilt parameter, ``p`` an exponent in ``[1, 2]``.  The
randomizer draw ``u`` follows :func:`~matconc.symmat.exceeds`: a matrix
``U`` (or one per trial) is the general form; a scalar (or one per
trial) stands for ``u I`` and takes the event's closed-form threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symmat as sm
from .errors import DimMismatch, DomainError, ParamMismatch

__all__ = [
    "MgfSpec",
    "markov_threshold",
    "ummi_event",
    "ummi_bound",
    "chebyshev_event",
    "chebyshev1_bound",
    "chebyshev_n_event",
    "chebyshev_n_bound",
    "pcheb1_event",
    "pcheb1_bound",
    "chernoff1_event",
    "chernoff1_bound",
    "mgf_trace_bound",
    "chernoff_hoeffding_event",
    "chernoff_hoeffding_bound",
    "sum_pth_moment_bound",
    "vector_pcheb_bound",
    "vec_pcheb_event",
    "spectral_pcheb_moment_bound",
    "MGF_KINDS",
]

MGF_KINDS = ("RADEMACHER", "UNI_GAUSSIAN", "BENNETT_I", "BENNETT_II", "SYM_HOEFFDING")

#: Matrix parameter expected by each MGF family.
_MGF_PARAM_ROLE = {
    "RADEMACHER": "C",
    "UNI_GAUSSIAN": "C",
    "BENNETT_I": "V",
    "BENNETT_II": "V",
    "SYM_HOEFFDING": "B",
}


@dataclass(frozen=True)
class MgfSpec:
    """One row of the matrix moment-generating-function menu.

    ``matrix`` plays the role the family requires: the scale ``C`` for
    Rademacher / uniformly-bounded-Gaussian deviations, the variance
    (bound) ``V`` for the Bennett families, the square-deviation bound
    ``B`` for symmetric Hoeffding.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in MGF_KINDS:
            raise ParamMismatch(f"unknown MGF kind {self.kind!r}")
        object.__setattr__(self, "matrix", sm.symmat(self.matrix))
        role = _MGF_PARAM_ROLE[self.kind]
        if role in ("V", "B") and not sm.is_psd(self.matrix):
            raise ParamMismatch(f"{self.kind} needs a PSD parameter {role}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_pd(a: np.ndarray) -> np.ndarray:
    a = sm.symmat(a, copy=False)
    if sm.lambda_min(a) <= 0.0:
        raise DomainError("threshold matrix must be positive definite")
    return a


def _randomizer(u, d: int) -> np.ndarray:
    """The randomizer ``u`` (see the module doc), checked against dimension ``d``."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim >= 2 and u.shape[-2:] != (d, d):
        raise DimMismatch(f"randomizer shape {u.shape} does not match dimension {d}")
    return u


def _event(hit):
    """A ``bool`` for one matrix, the bool array for a stack."""
    return bool(hit) if np.ndim(hit) == 0 else hit


def _abs_dev_event(x, m, thr):
    """``abs(X - M) not <= thr``, the Chebyshev-type event."""
    dev = np.asarray(x, dtype=np.float64) - sm.symmat(m, copy=False)
    return _event(sm.exceeds(dev, thr, np.abs))


def _log_or_singular(u: np.ndarray):
    """``(log U, singular)``: a draw with an eigenvalue below the log floor
    puts the Chernoff thresholds at minus infinity, an event by convention;
    its logarithm is taken with those eigenvalues set to one."""
    if u.ndim < 2:
        singular = u < sm.LOG_EIG_FLOOR
        return np.log(np.where(singular, 1.0, u)), singular
    singular = np.linalg.eigvalsh(u)[..., 0] < sm.LOG_EIG_FLOOR
    safe_log = lambda w: np.log(np.where(w < sm.LOG_EIG_FLOOR, 1.0, w))  # noqa: E731
    return sm.apply_spectral(safe_log, u), singular


def markov_threshold(a: np.ndarray, u) -> np.ndarray:
    """Randomized Markov threshold ``A^{1/2} U A^{1/2}``; ``u A`` for ``U = u I``."""
    a = _require_pd(a)
    u = _randomizer(u, a.shape[0])
    if u.ndim < 2:
        return u[..., None, None] * a
    root = sm.mat_sqrt(a)
    return sm.symmat_stack(root @ u @ root)


def ummi_event(x, a: np.ndarray, u):
    """Markov tail event ``X not <= A^{1/2} U A^{1/2}`` for PSD ``X``."""
    if np.shape(x)[-2:] != np.shape(a):
        raise DimMismatch("x, a, u must share one dimension")
    return _event(sm.exceeds(x, markov_threshold(a, u)))


def ummi_bound(mean_x: np.ndarray, a: np.ndarray) -> float:
    """Markov bound ``tr((E X) A^{-1})``."""
    return sm.trace_product(sm.symmat(mean_x, copy=False), sm.mat_inv(_require_pd(a)))


def chebyshev_event(x, m: np.ndarray, a: np.ndarray, u):
    """Chebyshev tail event ``abs(X - M) not <= (A U A)^{1/2}``.

    For ``U = u I`` the threshold is ``sqrt(u) abs(A)``.
    """
    a = _require_pd(a)
    u = _randomizer(u, a.shape[0])
    if u.ndim < 2:
        thr = np.sqrt(u)[..., None, None] * sm.mat_abs(a)
    else:
        thr = sm.mat_sqrt(a @ u @ a)
    return _abs_dev_event(x, m, thr)


def chebyshev1_bound(v: np.ndarray, a: np.ndarray) -> float:
    """One-observation Chebyshev bound ``tr(V A^{-2})``."""
    return sm.trace_product(sm.symmat(v, copy=False), sm.mat_pow(_require_pd(a), -2.0))


def chebyshev_n_event(xs, m: np.ndarray, a: np.ndarray, u):
    """Chebyshev event on the average of the ``n`` observations ``xs`` (..., n, d, d)."""
    return chebyshev_event(np.mean(np.asarray(xs, dtype=np.float64), axis=-3), m, a, u)


def chebyshev_n_bound(v: np.ndarray, a: np.ndarray, n: int) -> float:
    """n-observation Chebyshev bound ``tr(V A^{-2}) / n``.

    Valid when the summands share mean ``M``, have variances dominated
    by ``V``, and pairwise deviations anticommute in expectation
    (independence suffices).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return chebyshev1_bound(v, a) / n


def _check_p(p: float) -> float:
    if not (1.0 <= p <= 2.0):
        raise DomainError(f"p must lie in [1, 2], got {p}")
    return float(p)


def pcheb1_event(x, m: np.ndarray, a: np.ndarray, u, p: float):
    """p-Chebyshev event ``abs(X - M) not <= (A^{p/2} U A^{p/2})^{1/p}``.

    For ``U = u I`` the threshold is ``u^{1/p} A``.
    """
    p = _check_p(p)
    a = _require_pd(a)
    u = _randomizer(u, a.shape[0])
    if u.ndim < 2:
        thr = (u ** (1.0 / p))[..., None, None] * a
    else:
        half = sm.mat_pow(a, p / 2.0)
        thr = sm.mat_pow(half @ u @ half, 1.0 / p)
    return _abs_dev_event(x, m, thr)


def pcheb1_bound(vp: np.ndarray, a: np.ndarray, p: float) -> float:
    """p-Chebyshev bound ``tr(V_p A^{-p})``."""
    p = _check_p(p)
    return sm.trace_product(sm.symmat(vp, copy=False), sm.mat_pow(_require_pd(a), -p))


def chernoff1_event(x, a: np.ndarray, u, gamma: float):
    """Chernoff event ``X not <= (1/2 gamma) log(e^{gamma A} U e^{gamma A})``.

    For ``U = u I`` the threshold is ``A + log(u) / (2 gamma) I``.  A
    singular randomizer drives the threshold to minus infinity along
    some direction, so the event is declared true by convention.
    """
    if gamma == 0.0:
        raise DomainError("gamma must be nonzero")
    a = sm.symmat(a, copy=False)
    u = _randomizer(u, a.shape[0])
    if u.ndim < 2:
        log_u, singular = _log_or_singular(u)
        thr = a + (log_u / (2.0 * gamma))[..., None, None] * np.eye(a.shape[0])
    else:
        w = sm.mat_exp(gamma * a)
        log_inner, singular = _log_or_singular(w @ u @ w)
        thr = log_inner / (2.0 * gamma)
    return _event(np.logical_or(singular, sm.exceeds(x, thr)))


def chernoff1_bound(exp_moment: np.ndarray, a: np.ndarray, gamma: float) -> float:
    """Chernoff bound ``tr(e^{-2 gamma A} E e^{2 gamma X})``."""
    if gamma == 0.0:
        raise DomainError("gamma must be nonzero")
    a = sm.symmat(a, copy=False)
    return sm.trace_product(sm.mat_exp(-2.0 * gamma * a), sm.symmat(exp_moment, copy=False))


def mgf_trace_bound(spec: MgfSpec, gamma: float, n: int) -> float:
    """Trace bound on ``E exp(gamma (Xbar_n - M))`` for one MGF family.

    Rademacher, uniformly-bounded Gaussian, and symmetric Hoeffding rows
    give ``tr exp(gamma^2 P^2 / (2n))`` with ``P`` the family parameter
    (``P^2 = B`` directly for Hoeffding); the Bennett rows give
    ``tr exp(n (e^{gamma/n} - gamma/n - 1) V)``.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    mat = spec.matrix
    if spec.kind in ("RADEMACHER", "UNI_GAUSSIAN"):
        inner = (gamma**2 / (2.0 * n)) * sm.mat_pow(mat, 2.0)
    elif spec.kind == "SYM_HOEFFDING":
        inner = (gamma**2 / (2.0 * n)) * mat
    else:
        # expm1 keeps the small-argument regime accurate where the naive
        # difference would cancel catastrophically.
        g = gamma / n
        coeff = n * (math.expm1(g) - g)
        inner = coeff * mat
    return sm.trace(sm.mat_exp(inner))


def chernoff_hoeffding_event(xs, m: np.ndarray, a_scalar: float, gamma: float, u):
    """Sum-tail event ``Xbar_n - M not <= a I + log(U) / gamma`` on ``xs`` (..., n, d, d).

    For ``U = u I`` the threshold is ``(a + log(u) / gamma) I``.  A
    singular ``U`` makes the threshold unbounded below, so the event
    is true by convention.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if a_scalar <= 0.0:
        raise DomainError(f"scalar threshold must be positive, got {a_scalar}")
    m = sm.symmat(m, copy=False)
    dev = np.mean(np.asarray(xs, dtype=np.float64), axis=-3) - m
    eye = np.eye(m.shape[0])
    log_u, singular = _log_or_singular(_randomizer(u, m.shape[0]))
    if log_u.ndim < 2:
        thr = (a_scalar + log_u / gamma)[..., None, None] * eye
    else:
        thr = a_scalar * eye + log_u / gamma
    return _event(np.logical_or(singular, sm.exceeds(dev, thr)))


def chernoff_hoeffding_bound(spec: MgfSpec, gamma: float, n: int, a_scalar: float) -> float:
    """Sum-tail bound ``mgf_trace_bound * e^{-gamma a}``."""
    if a_scalar <= 0.0:
        raise DomainError(f"scalar threshold must be positive, got {a_scalar}")
    return mgf_trace_bound(spec, gamma, n) * math.exp(-gamma * a_scalar)


def sum_pth_moment_bound(vp: float, n: int, p: float) -> float:
    """Scalar contraction: ``E|sum of n centered terms|^p <= 2^{2-p} n v_p``."""
    p = _check_p(p)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return 2.0 ** (2.0 - p) * n * vp


def vector_pcheb_bound(vp: float, d: int, n: int, p: float, a_scalar: float) -> float:
    """Euclidean-norm tail bound ``2^{2-p} d^{1-p} v_p / (n^{p-1} a^p)``."""
    p = _check_p(p)
    if a_scalar <= 0.0:
        raise DomainError(f"scalar threshold must be positive, got {a_scalar}")
    return 2.0 ** (2.0 - p) * float(d) ** (1.0 - p) * vp / (float(n) ** (p - 1.0) * a_scalar**p)


def vec_pcheb_event(xs, mu, a_scalar: float) -> bool:
    """Vector-mean tail event ``||xbar_n - mu|| >= a``."""
    arr = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    mu = np.asarray(mu, dtype=np.float64)
    if arr.shape[1] != mu.shape[0]:
        raise DimMismatch("observations and mean have different dimensions")
    return bool(np.linalg.norm(arr.mean(axis=0) - mu) >= a_scalar)


def spectral_pcheb_moment_bound(vp_spec: float, d: int, n: int, p: float) -> float:
    """Operator-norm moment bound ``2^{2-p} d^{2-p/2} n v_p``.

    Bounds ``E || X_1 + ... + X_n - n M ||^p`` for i.i.d. summands, where
    ``v_p = E || X_1 - M ||^p`` is the p-th spectral central moment.
    """
    p = _check_p(p)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return 2.0 ** (2.0 - p) * float(d) ** (2.0 - p / 2.0) * n * vp_spec
