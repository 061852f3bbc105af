"""Matrix-valued test supermartingales and time-uniform threshold events.

A nonnegative matrix supermartingale is assembled from *factor pairs*
``(E_n, A_n)`` with ``E[E_n | past] <= A_n^{-1}``: the running value

    Y_n = L_n L_n^T,   L_n = sqrt(A_1) sqrt(E_1) ... sqrt(A_n) sqrt(E_n)

starts at ``Y_0 = I`` and satisfies ``E[Y_n | past] <= Y_{n-1}``.  Only
the left factor ``L_n`` is stored; ``Y_n`` is materialized on demand.

Four factor builders ship: an MGF tilt, a betting (linear) factor, a
self-normalized exponential, and a symmetric-deviations exponential.
On top of the process sit the threshold rules and their bounds: the
stopped randomized Ville event, the time-uniform (unrandomized) Ville
event, the finite-horizon Doob event for submartingales, and the
running-average events for exchangeable sequences.

The time-uniform ``exists n`` forms are never randomized: randomization
is sound only for the value at a stopping time, not for the supremum.

The per-step kernels (:func:`factor_pair`,
:meth:`MatSupermartingaleState.advance`, :func:`exceeds`,
:func:`scan_exceeds`) take stacks ``(..., d, d)`` of independent paths;
the processes of :mod:`matconc.processes` step them along paths to a
stopping time, and :func:`build_factors` and
:meth:`MatSupermartingaleState.step` are their validated per-sample
forms.  :func:`factor_pair`,
which does not depend on the process state, also takes a block of
consecutive steps with one step size each.  :func:`exceeds` lives
in :mod:`matconc.symmat`, so that :mod:`matconc.fixed_bounds` can use it
too, and keeps its name here.  :func:`ville_event` is the fixed-time
Markov event :func:`~matconc.fixed_bounds.ummi_event` at a stopping time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from . import symmat as sm
from .errors import DimMismatch, DomainError, GammaOutOfRange, ParamMismatch
from .fixed_bounds import MgfSpec, _check_p, _require_pd, ummi_bound, ummi_event
from .symmat import exceeds

__all__ = [
    "BUILDER_KINDS",
    "MatSupermartingaleState",
    "default_gamma_schedule",
    "mgf_growth_matrix",
    "betting_gamma_interval",
    "factor_pair",
    "build_factors",
    "exceeds",
    "scan_exceeds",
    "ville_event",
    "ville_bound",
    "doob_bound",
    "xmci_bound",
    "xmci2_bound",
    "xmpci_bound",
    "trace_pcheb_bound",
]

BUILDER_KINDS = ("MGF", "BETTING", "SELF_NORMALIZED", "SYMMETRIC_DIST")


def default_gamma_schedule(scale: float = 1.0) -> Callable[[int], float]:
    """Deterministic schedule ``gamma_n = scale / sqrt(n)`` (n counted from 1)."""
    if scale <= 0.0:
        raise DomainError(f"gamma scale must be positive, got {scale}")

    def schedule(n: int) -> float:
        return scale / math.sqrt(n)

    return schedule


def _mgf_log_growth(spec: MgfSpec, gamma: float) -> np.ndarray:
    mat = spec.matrix
    if spec.kind in ("RADEMACHER", "UNI_GAUSSIAN"):
        return (gamma**2 / 2.0) * sm.mat_pow(mat, 2.0)
    if spec.kind == "SYM_HOEFFDING":
        return (gamma**2 / 2.0) * mat
    return (math.expm1(gamma) - gamma) * mat


def mgf_growth_matrix(spec: MgfSpec, gamma: float) -> np.ndarray:
    """Matrix ``G(gamma)`` dominating ``E e^{gamma (X - M)}`` for one family."""
    return sm.mat_exp(_mgf_log_growth(spec, gamma))


def betting_gamma_interval(m: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Open admissible interval for the betting factor's gamma.

    Keeps ``I + gamma (X - M)`` positive semidefinite for every
    ``0 <= X <= B``: ``(-1 / lambda_max(B - M), 1 / lambda_max(M))``,
    with infinite endpoints when the respective lambda_max is zero.
    """
    lo_den = sm.lambda_max(b - m)
    hi_den = sm.lambda_max(m)
    lo = -math.inf if lo_den <= 0.0 else -1.0 / lo_den
    hi = math.inf if hi_den <= 0.0 else 1.0 / hi_den
    return lo, hi


def _per_step(gamma, f, *ndims):
    """The tuple of scalars ``f(gamma)`` for one step size; for a list of
    step sizes (Python floats), the same tuple with entry ``i`` an array of
    one ``f(g)[i]`` per step, shaped ``(k,) + (1,) * ndims[i]`` to broadcast
    against a block's per-step stacks.

    A block's scalars are thus the very Python-float expressions of its
    single steps (never numpy ``**`` on an array of step sizes), so every
    matrix that they scale equals the single step's bit for bit; one
    ``np.fromiter`` reads the steps' tuples into a ``(k, len(ndims))`` table.
    """
    if not isinstance(gamma, list):
        return f(gamma)
    table = np.fromiter(chain.from_iterable(map(f, gamma)), np.float64, len(gamma) * len(ndims))
    cols = table.reshape(len(gamma), len(ndims)).T
    return tuple(col.reshape((-1,) + (1,) * nd) for col, nd in zip(cols, ndims))


def factor_pair(kind, dev, gamma, *, mgf=None, v=None, root=False):
    """``(A_n, E_n)`` for a stack of deviations ``dev = X_n - M`` of shape ``(..., d, d)``.

    With ``root`` the pair is ``(A_n^{1/2}, E_n^{1/2})``, the form the
    left-factor update consumes; exponential factors are then taken at
    half their exponent, not square-rooted.  ``A_n`` depends on gamma
    only: it is one ``(d, d)`` matrix, or None when it is the identity.
    This is the kernel behind :func:`build_factors`; it validates nothing,
    and its spectral maps take the stacks it builds as trusted (they are
    symmetrized, since ``dev @ dev`` need not be bitwise symmetric, but
    not re-checked for finiteness).

    The maps are :func:`~matconc.symmat.factor_exp` and
    :func:`~matconc.symmat.factor_sqrt`.  At ``d = 1`` they are elementwise
    and bitwise equal to the ``eigh`` route; at ``d = 2`` they use the
    closed-form eigenpair, within a few ulps of it times
    ``max(1, max |lambda|)``; at ``d >= 3`` they are ``mat_exp`` and
    ``mat_sqrt`` through ``eigh``.  The root is the symmetric one on every
    route: ``Y_n`` depends on the factor chosen, and a Cholesky factor of
    ``E_n`` would change it from step 2 on.

    ``gamma`` may also be a list of ``k`` step sizes, with ``dev`` a
    block ``(k, ..., d, d)`` of ``k`` steps on its leading axis: ``E_n``
    is then shaped like ``dev`` and ``A_n`` is a ``(k, d, d)`` stack (or
    None), one spectral call each for the whole block.  Every step's
    scalars are the Python-float expressions of a single step, broadcast,
    so each matrix equals that step's own call bit for bit.
    """
    nd = dev.ndim - 1
    if kind == "BETTING":
        (g,) = _per_step(gamma, lambda g: (g,), nd)
        e = np.eye(dev.shape[-1]) + g * dev
        return None, (sm.factor_sqrt(e) if root else e)
    # the exponential builders: A_n = exp(log_a), E_n = exp(log_e)
    if kind == "MGF":
        (g,) = _per_step(gamma, lambda g: (g,), nd)
        if isinstance(gamma, list):
            log_a = np.stack([-_mgf_log_growth(mgf, g) for g in gamma])
        else:
            log_a = -_mgf_log_growth(mgf, gamma)
        log_e = g * dev
    elif kind == "SELF_NORMALIZED":
        g, c_a, c_e = _per_step(gamma, lambda g: (g, -(g**2 / 3.0), g**2 / 6.0), nd, 2, nd)
        log_a, log_e = c_a * v, g * dev - c_e * (dev @ dev)
    else:  # SYMMETRIC_DIST
        g, c_e = _per_step(gamma, lambda g: (g, g**2 / 2.0), nd, nd)
        log_a, log_e = None, g * dev - c_e * (dev @ dev)
    half = 0.5 if root else 1.0
    a = None if log_a is None else sm.factor_exp(half * log_a)
    return a, sm.factor_exp(half * log_e)


def build_factors(
    kind: str,
    x: np.ndarray,
    m: np.ndarray,
    gamma: float,
    *,
    mgf: MgfSpec | None = None,
    v: np.ndarray | None = None,
    b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factor pair ``(E_n, A_n)`` for one observation, or for a stack of them.

    Parameters
    ----------
    kind : {"MGF", "BETTING", "SELF_NORMALIZED", "SYMMETRIC_DIST"}
        Which construction to use.
    x, m : ndarray
        Observation, shape ``(d, d)`` or a stack ``(..., d, d)``, and its
        (hypothesized) conditional mean, shape ``(d, d)``.
    gamma : float
        Tuning scalar for this step.
    mgf : MgfSpec, required for MGF
        Family whose growth matrix ``G(gamma)`` caps the tilt's mean.
    v : ndarray, required for SELF_NORMALIZED
        Predictable conditional variance (bound), PSD.
    b : ndarray, required for BETTING
        Predictable upper bound with ``0 <= X <= B`` almost surely.

    Returns
    -------
    (E, A) : pair of ndarray
        ``E`` PSD, shaped like ``x``, and ``A`` positive definite,
        ``(d, d)``, satisfying ``E[E | past] <= A^{-1}`` under the kind's
        assumptions.

    Raises
    ------
    GammaOutOfRange
        For BETTING, when gamma leaves the open admissible interval.
    ParamMismatch
        When the kind's parameter is missing.
    """
    x = sm.symmat_stack(x)
    m = sm.symmat(m)
    if x.shape[-2:] != m.shape:
        raise DimMismatch("observation and mean have different shapes")
    if kind not in BUILDER_KINDS:
        raise ParamMismatch(f"unknown builder kind {kind!r}")
    if kind == "MGF":
        if mgf is None:
            raise ParamMismatch("MGF builder needs an MgfSpec")
        if mgf.dim != m.shape[0]:
            raise DimMismatch("MGF parameter dimension does not match data")
    elif kind == "BETTING":
        if b is None:
            raise ParamMismatch("BETTING builder needs the upper bound b")
        lo, hi = betting_gamma_interval(m, sm.symmat(b))
        if not (lo < gamma < hi):
            raise GammaOutOfRange(
                f"gamma {gamma} outside the open interval ({lo:.6g}, {hi:.6g})"
            )
    elif kind == "SELF_NORMALIZED":
        if v is None:
            raise ParamMismatch("SELF_NORMALIZED builder needs the variance v")
        v = sm.symmat(v)
    a, e = factor_pair(kind, x - m, gamma, mgf=mgf, v=v)
    return e, (np.eye(m.shape[0]) if a is None else a)


@dataclass
class MatSupermartingaleState:
    """Incremental state of the factor-product supermartingale.

    Only the left factor is stored; the current value is
    ``Y_n = left @ left.T``, which is PSD by construction.  ``left`` may
    be a stack ``(..., d, d)`` of independent processes; starting from
    the ``(d, d)`` identity, the first :meth:`advance` on stacked factors
    broadcasts it.
    """

    left: np.ndarray
    n: int = 0

    @classmethod
    def start(cls, dim: int) -> "MatSupermartingaleState":
        return cls(left=np.eye(dim), n=0)

    def value(self) -> np.ndarray:
        y = self.left @ np.swapaxes(self.left, -1, -2)
        return (y + np.swapaxes(y, -1, -2)) / 2.0

    def step(self, e: np.ndarray, a: np.ndarray) -> "MatSupermartingaleState":
        """Absorb one factor pair; returns the advanced state."""
        e = sm.symmat(e)
        a = sm.symmat(a)
        if e.shape != a.shape or e.shape[0] != self.left.shape[0]:
            raise DimMismatch("factor dimensions do not match the state")
        if sm.lambda_min(a) <= 0.0:
            raise DomainError("A_n must be positive definite")
        # mat_sqrt clamps eigenvalues in [-tol, 0) and rejects lower ones.
        return self.advance(sm.mat_sqrt(a), sm.mat_sqrt(e))

    def advance(self, sqrt_a, sqrt_e) -> "MatSupermartingaleState":
        """Absorb square-root factors (see :func:`factor_pair`); no validation.

        ``L_n = L_{n-1} (A_n^{1/2} E_n^{1/2})``, with ``sqrt_a`` None for ``A_n = I``.
        """
        step = sqrt_e if sqrt_a is None else sqrt_a @ sqrt_e
        return MatSupermartingaleState(left=self.left @ step, n=self.n + 1)


def _scan_deviation(kind, xbar, m, out=None):
    """What a scan tests the spectrum of: ``Xbar - M``, or ``Xbar`` itself for XMPCI."""
    if kind == "XMPCI":
        return xbar
    return np.subtract(xbar, m, out=out)


def _scan_test(kind, a, p, d: int):
    """``(level, exact, power, scale)``: how a scan at dimension ``d``
    decides its deviations ``D``.

    ``exact(ys, rows_level)`` is the eigenvalue rule on a stack of
    deviations, crossed where their statistic reaches ``level``; a
    deviation with a non-finite entry is crossed.  The statistic is at
    most ``scale * ||D||_F ** power``, the norm screen of
    :func:`~matconc.symmat.settles`: ``max f(w_i)`` against ``a`` for the
    Loewner scans with a threshold ``a I``, with ``power`` 2 for DOOB's
    squares and 1 otherwise, and ``sum_i |w_i|^p <= max(1, d^{1 - p/2})
    ||D||_F^p`` against ``a^p`` for TRACE_PCHEB (Hoelder for ``p <= 2``,
    ``l_p <= l_2`` above).  A Loewner scan against a threshold matrix that
    is not ``a I`` has no screen: ``power`` is None and ``exact`` is
    :func:`exceeds` against that matrix.
    """
    if kind == "TRACE_PCHEB":

        def rule(ys, rows_ap):
            return (np.abs(np.linalg.eigvalsh(ys)) ** p).sum(axis=-1) >= rows_ap

        def exact(ys, rows_ap):
            return sm._finite_rule(rule, ys, rows_ap, 0)

        return a**p, exact, p, max(1.0, d ** (1.0 - p / 2.0))
    # the eigenvalue map of each Loewner scan: DOOB tests the squared mean
    # deviation, XMCI and XMCI2 its absolute value, XMPCI the PSD mean itself
    maps = {"DOOB": np.square, "XMCI": np.abs, "XMCI2": np.abs, "XMPCI": None}
    if kind not in maps:
        raise ParamMismatch(f"unknown scan kind {kind!r}")
    f, level = maps[kind], sm._scalar_level(a)
    if level is None:
        return a, lambda ys, rows_a: exceeds(ys, rows_a, f), None, 1.0
    return level, sm._level_rule(f), sm._SCREEN_POWER[f], 1.0


def scan_exceeds(kind: str, xbar, m, a, p: float | None = None) -> np.ndarray:
    """Crossing test of one running-mean scan for each matrix of a stack ``xbar``.

    ``DOOB`` (squared mean deviation), ``XMCI``/``XMCI2`` (absolute
    deviation) and ``XMPCI`` (the PSD mean) compare against ``a``
    through :func:`exceeds`; ``TRACE_PCHEB`` tests ``tr abs(Xbar - M)^p >= a^p``
    for a scalar ``a`` (or one per matrix) and ``p >= 1``.  A scan against
    a level (``a I``, or ``a^p``) runs ``eigvalsh`` only on the rows that
    the norm screen of :func:`_scan_test` leaves within the margin of
    :func:`~matconc.symmat.screened`, so the events equal those of the
    eigenvalue rule on every row.  A matrix with a non-finite entry is
    crossed, as in :func:`exceeds`.  ``first_crossing(MeanScan(...), xs)``
    (:mod:`matconc.processes`) runs the scan along whole paths.
    """
    level, exact, power, scale = _scan_test(kind, a, p, np.shape(xbar)[-1])
    dev = _scan_deviation(kind, xbar, m)
    if power is None:
        return exact(dev, level)
    return sm.screened(dev, level, exact, power, scale)


def ville_event(y, a: np.ndarray, u):
    """Randomized stopped-value event ``Y_tau not <= A^{1/2} U A^{1/2}``:
    :func:`~matconc.fixed_bounds.ummi_event` at a stopping time."""
    return ummi_event(y, a, u)


def ville_bound(y0_mean: np.ndarray, a: np.ndarray) -> float:
    """Threshold-crossing bound ``tr((E Y_0) A^{-1})``."""
    return ummi_bound(y0_mean, a)


def doob_bound(ey_last: np.ndarray, a: np.ndarray) -> float:
    """Submartingale maximal bound ``tr((E Y_N) A^{-1})``."""
    return ummi_bound(ey_last, a)


def xmci_bound(v, a) -> float:
    """Time-uniform Chebyshev bound ``tr(V A^{-2})``."""
    return sm.trace_product(sm.symmat(v), sm.mat_pow(_require_pd(a), -2.0))


def xmci2_bound(v, a, n_start: int) -> float:
    """Late-start bound ``tr(V A^{-2}) / N``.

    Needs ``E[D_i D_j + D_j D_i] = 0`` for distinct deviations ``D_i, D_j``;
    i.i.d. sampling suffices.
    """
    if n_start < 1:
        raise DomainError(f"n_start must be >= 1, got {n_start}")
    return xmci_bound(v, a) / n_start


def xmpci_bound(vp_raw, a, p: float) -> float:
    """Raw-moment bound ``tr(V_p A^{-p})`` for PSD exchangeable streams."""
    _check_p(p)
    return sm.trace_product(sm.symmat(vp_raw), sm.mat_pow(_require_pd(a), -p))


def trace_pcheb_bound(tr_vp: float, a_scalar: float, p: float) -> float:
    """Trace bound ``tr(V_p) / a^p``."""
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if a_scalar <= 0.0:
        raise DomainError(f"scalar threshold must be positive, got {a_scalar}")
    return tr_vp / a_scalar**p
