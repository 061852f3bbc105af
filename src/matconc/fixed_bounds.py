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

Conventions: ``a`` is the positive definite threshold matrix, ``u_mat``
a draw from a :class:`~matconc.randomizers.MatrixRandomizer`, ``gamma``
a positive tilt parameter, ``p`` an exponent in ``[1, 2]``.
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
    "chebyshev1_event",
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


def markov_threshold(a: np.ndarray, u_mat: np.ndarray) -> np.ndarray:
    """Randomized Markov threshold ``A^{1/2} U A^{1/2}``."""
    root = sm.mat_sqrt(_require_pd(a))
    return sm.symmat(root @ u_mat @ root, copy=False)


def ummi_event(x: np.ndarray, a: np.ndarray, u_mat: np.ndarray) -> bool:
    """Markov tail event ``X not <= A^{1/2} U A^{1/2}`` for PSD ``X``."""
    if x.shape != a.shape or x.shape != u_mat.shape:
        raise DimMismatch("x, a, u must share one dimension")
    return not sm.loewner_leq(x, markov_threshold(a, u_mat))


def ummi_bound(mean_x: np.ndarray, a: np.ndarray) -> float:
    """Markov bound ``tr((E X) A^{-1})``."""
    return sm.trace_product(sm.symmat(mean_x, copy=False), sm.mat_inv(_require_pd(a)))


def chebyshev_event(x: np.ndarray, m: np.ndarray, a: np.ndarray, u_mat: np.ndarray) -> bool:
    """Chebyshev tail event ``abs(X - M) not <= (A U A)^{1/2}``."""
    a = _require_pd(a)
    dev = sm.mat_abs(sm.symmat(x, copy=False) - sm.symmat(m, copy=False))
    thr = sm.mat_sqrt(sm.symmat(a @ u_mat @ a, copy=False))
    return not sm.loewner_leq(dev, thr)


def chebyshev1_event(x, m, a, u_mat) -> bool:
    """One-observation Chebyshev event."""
    return chebyshev_event(x, m, a, u_mat)


def chebyshev1_bound(v: np.ndarray, a: np.ndarray) -> float:
    """One-observation Chebyshev bound ``tr(V A^{-2})``."""
    return sm.trace_product(sm.symmat(v, copy=False), sm.mat_pow(_require_pd(a), -2.0))


def chebyshev_n_event(xs, m, a, u_mat) -> bool:
    """Chebyshev event on the average of ``n`` observations."""
    xbar = sm.symmat(np.mean(np.asarray(xs, dtype=np.float64), axis=0), copy=False)
    return chebyshev_event(xbar, m, a, u_mat)


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


def pcheb1_event(x, m, a, u_mat, p: float) -> bool:
    """p-Chebyshev event ``abs(X - M) not <= (A^{p/2} U A^{p/2})^{1/p}``."""
    p = _check_p(p)
    a = _require_pd(a)
    half = sm.mat_pow(a, p / 2.0)
    inner = sm.symmat(half @ u_mat @ half, copy=False)
    thr = sm.mat_pow(inner, 1.0 / p)
    dev = sm.mat_abs(sm.symmat(x, copy=False) - sm.symmat(m, copy=False))
    return not sm.loewner_leq(dev, thr)


def pcheb1_bound(vp: np.ndarray, a: np.ndarray, p: float) -> float:
    """p-Chebyshev bound ``tr(V_p A^{-p})``."""
    p = _check_p(p)
    return sm.trace_product(sm.symmat(vp, copy=False), sm.mat_pow(_require_pd(a), -p))


def chernoff1_event(x, a, u_mat, gamma: float) -> bool:
    """Chernoff event ``X not <= (1/2 gamma) log(e^{gamma A} U e^{gamma A})``.

    A singular randomizer drives the threshold to minus infinity along
    some direction, so the event is declared true by convention.
    """
    if gamma == 0.0:
        raise DomainError("gamma must be nonzero")
    a = sm.symmat(a, copy=False)
    w = sm.mat_exp(gamma * a)
    inner = sm.symmat(w @ u_mat @ w, copy=False)
    if sm.lambda_min(inner) < sm.LOG_EIG_FLOOR:
        return True
    thr = sm.mat_log(inner) / (2.0 * gamma)
    return not sm.loewner_leq(sm.symmat(x, copy=False), thr)


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


def chernoff_hoeffding_event(xs, m, a_scalar: float, gamma: float, u_mat) -> bool:
    """Sum-tail event ``Xbar_n - M not <= a I + log(U) / gamma``.

    A singular ``U`` makes the threshold unbounded below, so the event
    is true by convention.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if a_scalar <= 0.0:
        raise DomainError(f"scalar threshold must be positive, got {a_scalar}")
    arr = np.asarray(xs, dtype=np.float64)
    xbar = sm.symmat(np.mean(arr, axis=0), copy=False)
    m = sm.symmat(m, copy=False)
    u_mat = sm.symmat(u_mat, copy=False)
    if sm.lambda_min(u_mat) < sm.LOG_EIG_FLOOR:
        return True
    thr = a_scalar * np.eye(m.shape[0]) + sm.mat_log(u_mat) / gamma
    return not sm.loewner_leq(xbar - m, thr)


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
