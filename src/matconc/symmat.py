"""Dense real symmetric matrices: spectral calculus and Loewner-order predicates.

Every matrix handled by this package is a square ``numpy.ndarray`` of
float64 that is exactly symmetric.  :func:`symmat` is the only sanctioned
constructor: it validates the input and returns the symmetric part
``(M + M.T) / 2`` so that downstream code may rely on
``A[i, j] == A[j, i]`` holding bitwise.

Matrix functions (exp, log, sqrt, abs, powers) are applied through the
eigendecomposition: for ``A = Q diag(w) Q.T`` the image is
``Q diag(f(w)) Q.T``.  The one exception is the square roots of the
sequential factor step, :func:`factor_exp` and :func:`factor_sqrt`: at
``d = 1`` they are elementwise (bitwise equal to the ``eigh`` route) and
at ``d = 2`` a closed-form eigenpair, with no LAPACK call; from ``d = 3``
on they are :func:`mat_exp` and :func:`mat_sqrt`.  Every event and
threshold rule keeps ``eigh``/``eigvalsh``.  Order comparisons use the
Loewner partial order:
``A <= B`` iff ``B - A`` is positive semidefinite, tested with a relative
eigenvalue tolerance.

:func:`apply_spectral`, :func:`mat_exp`, :func:`mat_sqrt`, :func:`mat_abs`,
:func:`mat_pow`, :func:`is_psd`, :func:`loewner_leq` and :func:`exceeds`
also take stacks ``(..., d, d)`` and act on each matrix; the batched
Monte Carlo kernels rely on this.  Threshold tests against ``a I`` and
``t B`` are screened (:func:`exceeds`, :func:`exceeds_scaled`): an exact
Frobenius-norm bound settles the matrices that sit clearly below the
threshold, and ``eigvalsh`` runs on the rest only, with the same events
as running it on every matrix.  :func:`settles` holds the margin that
makes a settled row one the exact rule also finds ordered, and
:func:`unsettled_events` runs the exact rule on the rows left; the
sequential processes screen with them without forming their statistic.
Kernels pass ``trusted=True`` for stacks they built from finite data,
which are symmetrized but not re-validated.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, DimMismatch, DomainError, MatconcError

__all__ = [
    "SpectralDecomp",
    "symmat",
    "symmat_stack",
    "parse_matrix_json",
    "eigh_decomp",
    "apply_spectral",
    "mat_exp",
    "factor_exp",
    "factor_sqrt",
    "mat_log",
    "mat_sqrt",
    "mat_abs",
    "mat_pow",
    "mat_inv",
    "trace",
    "tr_log",
    "trace_product",
    "lambda_max",
    "lambda_min",
    "spectral_norm",
    "loewner_leq",
    "exceeds",
    "exceeds_scaled",
    "screened",
    "settles",
    "unsettled_events",
    "is_psd",
    "spectrum_is_psd",
]

#: Relative tolerance used by all positive-semidefiniteness checks.
TOL_PSD = 1e-8

#: Eigenvalues below this floor make a matrix logarithm meaningless here.
LOG_EIG_FLOOR = 1e-30

#: Condition number ceiling for spectrally computed inverses / negative powers.
MAX_INVERSE_COND = 1e12

#: Maximum relative asymmetry accepted when *loading* a matrix from JSON.
LOAD_ASYMMETRY_TOL = 1e-6

_F64 = np.finfo(np.float64)


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (d,)
        Real eigenvalues in ascending order.
    eigenvectors : ndarray, shape (d, d)
        Orthonormal eigenvectors, column ``k`` belonging to
        ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def symmat(m) -> np.ndarray:
    """Validate and symmetrize a square array.

    Parameters
    ----------
    m : array_like, shape (d, d)
        Square real matrix (a nested list is fine).  Any asymmetry is
        averaged away.

    Returns
    -------
    ndarray, shape (d, d)
        ``(m + m.T) / 2`` as float64.

    Raises
    ------
    DimMismatch
        If the input is not a square 2-D array.
    DomainError
        If the input contains non-finite entries.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return symmat_stack(a)


def symmat_stack(m, *, trusted: bool = False) -> np.ndarray:
    """:func:`symmat` for a stack ``(..., d, d)``: validated symmetric part of each matrix.

    ``trusted`` skips the conversion and the checks, for a float64 stack
    that the caller built from finite data: only the symmetric part is taken.
    """
    a = m
    if not trusted:
        a = np.asarray(m, dtype=np.float64)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise DimMismatch(f"expected square matrices, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("matrix entries must be finite")
    # halved in place: the sum is a fresh array, never a view of ``a``
    out = a + np.swapaxes(a, -1, -2)
    out /= 2.0
    return out


def _recompose(q: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """``Q diag(f(w)) Q.T`` per matrix, re-symmetrized to absorb floating-point drift."""
    return symmat_stack((q * fw[..., None, :]) @ np.swapaxes(q, -1, -2), trusted=True)


def _brief(x) -> str:
    """``repr(x)`` for an error message: ``reprlib``'s abridged form, cut to
    60 characters with an ellipsis, so a large nested entry neither floods
    the message nor costs a full ``repr``."""
    text = reprlib.repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def parse_matrix_json(obj) -> np.ndarray:
    """Build a symmetric matrix from a decoded JSON array-of-arrays.

    Rows must all have the same length as the number of rows, and every
    entry must be a finite JSON number (an ``int`` or a ``float``; a
    boolean or a string is not a number).  Asymmetry up to a relative
    ``1e-6`` is silently symmetrized; anything larger is rejected, since
    it indicates the caller serialized the wrong matrix.  So is a matrix
    whose symmetric part overflows (entries near the float limit).

    Raises
    ------
    DomainError
        On non-numeric or non-finite entries, asymmetry beyond tolerance,
        or a symmetric part that overflows.
    DimMismatch
        If the value is not a square array-of-arrays.
    """
    if not isinstance(obj, list) or not obj:
        raise DimMismatch("matrix literal must be a non-empty array of arrays")
    d = len(obj)
    for row in obj:
        if not isinstance(row, list) or len(row) != d:
            raise DimMismatch("matrix literal must be square")
    # exact types: bool is a subclass of int, and numpy reads "1" as 1.0
    if not {type(x) for row in obj for x in row} <= {int, float}:
        bad = next(x for row in obj for x in row if type(x) not in (int, float))
        raise DomainError(f"matrix entries must be numbers, got {_brief(bad)}")
    try:
        a = np.array(obj, dtype=np.float64)
        top = float(np.max(np.abs(a)))  # nan or inf unless every entry is finite
    except OverflowError:  # an integer literal beyond the float range
        top = math.inf
    if not math.isfinite(top):
        raise DomainError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # entries near the float limit: checked below
        gap = np.max(np.abs(a - a.T))
        sym = symmat_stack(a, trusted=True)
    scale = max(1.0, top)
    if gap > LOAD_ASYMMETRY_TOL * scale:
        raise DomainError(
            f"matrix is asymmetric beyond tolerance ({gap:.3e} relative to {scale:.3e})"
        )
    if not np.isfinite(sym).all():
        raise DomainError("matrix entries are too large: the symmetric part overflows")
    return sym


def config_matrix(raw, name: str, dim: int | None = None) -> np.ndarray:
    """The matrix literal ``raw`` of a config or a data stream, read by
    :func:`parse_matrix_json` and ``dim x dim`` unless ``dim`` is None; a
    ConfigError naming ``name`` otherwise."""
    try:
        mat = parse_matrix_json(raw)
    except MatconcError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if dim is not None and mat.shape[0] != dim:
        raise ConfigError(f"{name} has dimension {mat.shape[0]}, expected {dim}")
    return mat


def accepted_matrices(objs: list) -> list:
    """:func:`parse_matrix_json` over a list of decoded literals, checked as one stack.

    Entry ``i`` is the matrix ``parse_matrix_json(objs[i])`` returns, bit for
    bit, or None; it is None for every literal that call rejects, and also
    for one whose dimension differs from the first square literal's, one that
    symmetrizes to a non-finite matrix, or any literal of a list holding an
    integer beyond the float range: the caller reads those one at a time.
    Nothing is raised and numpy does not warn.
    """
    out = [None] * len(objs)
    square = [
        i for i, obj in enumerate(objs)
        if type(obj) is list and obj
        and all(type(row) is list and len(row) == len(obj) for row in obj)
    ]
    d = len(objs[square[0]]) if square else 0
    # exact types: bool is a subclass of int, and numpy reads "1" as 1.0
    keep = [
        i for i in square
        if len(objs[i]) == d and {type(x) for row in objs[i] for x in row} <= {int, float}
    ]
    if not keep:
        return out
    try:
        a = np.array([objs[i] for i in keep], dtype=np.float64)
    except OverflowError:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.max(np.abs(a), axis=(1, 2))
        gap = np.max(np.abs(a - np.swapaxes(a, 1, 2)), axis=(1, 2))
        sym = symmat_stack(a, trusted=True)
        # a finite symmetric part needs finite entries, so top needs no check of its own
        ok = ~(gap > LOAD_ASYMMETRY_TOL * np.maximum(1.0, top)) & np.isfinite(sym).all(axis=(1, 2))
    for i, good, mat in zip(keep, ok.tolist(), sym):
        if good:
            out[i] = mat
    return out


def _require_square(a: np.ndarray, name: str = "matrix") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {a.shape}")


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimMismatch(f"operands have different shapes {a.shape} and {b.shape}")


def eigh_decomp(a: np.ndarray) -> SpectralDecomp:
    """Eigendecompose a symmetric matrix (eigenvalues ascending)."""
    w, q = np.linalg.eigh(symmat(a))
    return SpectralDecomp(eigenvalues=w, eigenvectors=q)


def apply_spectral(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, *, trusted: bool = False
) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    f : callable
        Vectorized map on the eigenvalue array.
    a : ndarray, shape (..., d, d)
        Symmetric matrix, or a stack of them.
    trusted : bool, default False
        ``a`` is a float64 stack built from finite data; it is symmetrized
        but not validated (see :func:`symmat_stack`).

    Returns
    -------
    ndarray, shape (..., d, d)
        ``Q diag(f(w)) Q.T``, explicitly re-symmetrized to absorb
        floating-point drift.
    """
    w, q = np.linalg.eigh(symmat_stack(a, trusted=trusted))
    fw = np.asarray(f(w), dtype=np.float64)
    if fw.shape != w.shape:
        raise DomainError("spectral map must return one value per eigenvalue")
    return _recompose(q, _finite(fw))


def _finite(fw):
    """``fw``, the image of a spectrum; DomainError if any value is not finite."""
    if not np.isfinite(fw).all():
        raise DomainError("spectral map produced non-finite values")
    return fw


def _eig_scale(w: np.ndarray) -> np.ndarray:
    """``max(1, max |w|)`` per eigenvalue row."""
    return np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))


def mat_exp(a: np.ndarray, *, trusted: bool = False) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (or of each in a stack)."""
    return apply_spectral(np.exp, a, trusted=trusted)


def mat_log(a: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a symmetric positive definite matrix.

    Raises
    ------
    DomainError
        If any eigenvalue is below ``LOG_EIG_FLOOR``.
    """
    dec = eigh_decomp(a)
    if dec.eigenvalues[0] < LOG_EIG_FLOOR:
        raise DomainError(
            f"matrix log needs eigenvalues >= {LOG_EIG_FLOOR:g}, smallest is "
            f"{dec.eigenvalues[0]:.6e}"
        )
    return _recompose(dec.eigenvectors, np.log(dec.eigenvalues))


def _check_psd(lo, scale) -> None:
    """DomainError unless every smallest eigenvalue ``lo`` is at least
    ``-TOL_PSD * scale``, ``scale`` being ``max(1, max |w|)`` of its matrix."""
    slack = TOL_PSD * scale
    bad = lo < -slack
    if bad.any():
        raise DomainError(
            f"matrix is not positive semidefinite: smallest eigenvalue "
            f"{lo[bad].min():.6e} below -{slack[bad].min():.3e}"
        )


def _clamped_nonneg(w: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in ``[-tol, 0)`` to zero; reject anything lower.

    ``w`` holds ascending eigenvalue rows, one per matrix of a stack.
    """
    _check_psd(w[..., 0], _eig_scale(w))
    return np.maximum(w, 0.0)


def mat_sqrt(a: np.ndarray, *, trusted: bool = False) -> np.ndarray:
    """Principal square root of a symmetric PSD matrix (or of each in a stack).

    Eigenvalues within ``-TOL_PSD * scale`` of zero are clamped to zero
    before the root is taken; more negative spectra raise ``DomainError``.
    ``trusted`` is as in :func:`apply_spectral`.
    """
    w, q = np.linalg.eigh(symmat_stack(a, trusted=trusted))
    return _recompose(q, np.sqrt(_clamped_nonneg(w)))


def _small_spectral(a: np.ndarray, sqrt: bool) -> np.ndarray:
    """``exp`` (or, with ``sqrt``, the clamped square root) of each matrix of
    a trusted stack ``(..., d, d)`` with ``d <= 2``, without LAPACK.

    At ``d = 1`` every operation is one that the ``eigh`` route makes
    (``eigh`` of a 1 x 1 matrix returns its entry and the eigenvector 1),
    so the result is bitwise equal.  At ``d = 2``, with ``a, c`` the
    diagonal and ``b`` the symmetrized off-diagonal, ``m = (a + c)/2``,
    ``delta = (a - c)/2`` and ``s = hypot(delta, b)``, the eigenvalues are
    ``m -+ s`` and the image is ``f(m - s) I + (f(m + s) - f(m - s)) P``.
    ``P`` is the projector on the top eigenvector, formed without
    cancellation: ``(|delta| + s)/(2s)`` on the diagonal entry of the
    larger of ``a, c``, ``b^2 / (2s (|delta| + s))`` on the other and
    ``b / (2s)`` off the diagonal.  At ``s = 0`` both eigenvalues are ``m``,
    the gap is exactly 0 and ``P`` only has to be finite: ``s`` is raised
    to the least subnormal there, which gives ``P = diag(1/2, 0)``.

    The eigenvalues pass the checks of the ``eigh`` route, with the same
    outcome: ``exp`` raises unless ``exp(m + s)``, the larger value, is
    finite (a NaN eigenvalue makes both NaN), and the root clamps and
    raises as :func:`_clamped_nonneg`, whose scale ``max(1, max |w|)`` is
    ``max(1, |m| + s)`` bit for bit.

    ``eigh`` rescales a tiny matrix and this form does not: at ``d = 2``
    a root of a matrix whose entries are all subnormal (below ``2^-1022``)
    is accurate only to the subnormal spacing.  The factor step never
    meets one: its roots are of ``I + gamma dev`` and of exponentials,
    and ``exp`` of a tiny matrix is ``I`` to full precision.
    """
    if a.shape[-1] == 1:
        w = ((a + a) / 2.0)[..., 0]
        fw = np.sqrt(_clamped_nonneg(w)) if sqrt else _finite(np.exp(w))
        return ((fw + fw) / 2.0)[..., None]
    b = (a[..., 0, 1] + a[..., 1, 0]) / 2.0
    m, delta = (a[..., 0, 0] + a[..., 1, 1]) / 2.0, (a[..., 0, 0] - a[..., 1, 1]) / 2.0
    s = np.hypot(delta, b)
    lo, hi = m - s, m + s
    if sqrt:
        _check_psd(lo, np.maximum(1.0, abs(m) + s))
        f_lo, f_hi = np.sqrt(np.maximum(lo, 0.0)), np.sqrt(np.maximum(hi, 0.0))
    else:
        f_lo, f_hi = np.exp(lo), _finite(np.exp(hi))
    gap = f_hi - f_lo
    s = np.maximum(s, _F64.smallest_subnormal)
    r = abs(delta) + s
    big = r / (2.0 * s)
    off = b / (2.0 * s)
    small = off * (b / r)
    first = delta >= 0.0
    out = np.empty(a.shape)
    out[..., 0, 0] = f_lo + gap * np.where(first, big, small)
    out[..., 1, 1] = f_lo + gap * np.where(first, small, big)
    out[..., 0, 1] = out[..., 1, 0] = gap * off
    return out


def factor_exp(a: np.ndarray) -> np.ndarray:
    """:func:`mat_exp` of a trusted stack, the map of the factor step.

    At ``d <= 2`` it is computed without LAPACK (see
    :func:`_small_spectral`): bitwise equal to :func:`mat_exp` at ``d = 1``,
    and within a few ulps times ``max(1, max |lambda|)`` of the norm at
    ``d = 2``.  Larger matrices take :func:`mat_exp` itself.  Raises
    DomainError as :func:`mat_exp` does.
    """
    if a.shape[-1] > 2:
        return mat_exp(a, trusted=True)
    return _small_spectral(a, sqrt=False)


def factor_sqrt(a: np.ndarray) -> np.ndarray:
    """:func:`mat_sqrt` of a trusted stack, the map of the factor step; routes
    and accuracy as in :func:`factor_exp`, with the clamp and the
    DomainError of :func:`mat_sqrt`."""
    if a.shape[-1] > 2:
        return mat_sqrt(a, trusted=True)
    return _small_spectral(a, sqrt=True)


def mat_abs(a: np.ndarray) -> np.ndarray:
    """Matrix absolute value ``(A^2)^{1/2}`` via absolute eigenvalues (stack-aware)."""
    return apply_spectral(np.abs, a)


def mat_pow(a: np.ndarray, k: float) -> np.ndarray:
    """Matrix power ``A^k`` through the spectrum (of each matrix in a stack).

    Integer ``k >= 0`` works for any symmetric matrix.  Non-integer
    ``k >= 0`` requires a PSD matrix (tiny negative eigenvalues are
    clamped as in :func:`mat_sqrt`).  Negative ``k`` requires a positive
    definite matrix with condition number at most ``1e12``.

    Raises
    ------
    DomainError
        On negative spectra (fractional powers) or ill-conditioned /
        singular matrices (negative powers), in any matrix of a stack.
    """
    w, q = np.linalg.eigh(symmat_stack(a))
    if k < 0:
        lo = w[..., 0]
        if np.any(lo <= 0.0):
            raise DomainError(
                f"negative power needs a positive definite matrix, smallest "
                f"eigenvalue is {lo.min():.6e}"
            )
        cond = (w[..., -1] / lo).max()
        if cond > MAX_INVERSE_COND:
            raise DomainError(
                f"condition number {cond:.3e} exceeds {MAX_INVERSE_COND:g}; "
                "refusing to invert"
            )
        pw = w**k
    elif float(k).is_integer():
        pw = w ** float(k)
    else:
        pw = _clamped_nonneg(w) ** float(k)
    return _recompose(q, pw)


def mat_inv(a: np.ndarray) -> np.ndarray:
    """Spectral inverse ``A^{-1}`` with the condition-number guard."""
    return mat_pow(a, -1.0)


def trace(a: np.ndarray) -> float:
    """Trace as a Python float."""
    _require_square(a)
    return float(np.trace(a))


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``tr(A B)`` without forming the product matrix."""
    _require_same_shape(a, b)
    return float(np.einsum("ij,ji->", a, b))


def tr_log(a: np.ndarray) -> float:
    """``tr log A`` as the sum of log eigenvalues (at least ``LOG_EIG_FLOOR``)."""
    w = eigh_decomp(a).eigenvalues
    if w[0] < LOG_EIG_FLOOR:
        raise DomainError(
            f"trace-log needs eigenvalues >= {LOG_EIG_FLOOR:g}, smallest is {w[0]:.6e}"
        )
    return float(np.sum(np.log(w)))


def lambda_max(a: np.ndarray) -> float:
    """Largest eigenvalue."""
    return float(eigh_decomp(a).eigenvalues[-1])


def lambda_min(a: np.ndarray) -> float:
    """Smallest eigenvalue."""
    return float(eigh_decomp(a).eigenvalues[0])


def spectral_norm(a: np.ndarray) -> float:
    """Operator norm: largest absolute eigenvalue."""
    w = eigh_decomp(a).eigenvalues
    return float(max(abs(w[0]), abs(w[-1])))


def spectrum_is_psd(w: np.ndarray) -> np.ndarray:
    """The PSD rule on eigenvalue rows ``(..., d)``, in any order.

    True per row iff its smallest value is at least
    ``-TOL_PSD * max(1, max |w|)``.
    """
    return w.min(axis=-1) >= -TOL_PSD * _eig_scale(w)


def is_psd(a: np.ndarray):
    """Positive semidefinite up to the relative eigenvalue tolerance.

    A bool for one matrix, a bool array for a stack ``(..., d, d)``.
    """
    ok = spectrum_is_psd(np.linalg.eigvalsh(symmat_stack(a)))
    return bool(ok) if ok.ndim == 0 else ok


def loewner_leq(a: np.ndarray, b: np.ndarray):
    """Loewner comparison ``A <= B``, matrix by matrix for stacks.

    True iff the smallest eigenvalue of ``B - A`` is at least
    ``-TOL_PSD * max(1, ||B - A||)``, so exact ties and rounding noise
    count as ordered.  Stacks broadcast against each other.
    """
    if a.shape[-2:] != b.shape[-2:]:
        raise DimMismatch(f"operands have different shapes {a.shape} and {b.shape}")
    return is_psd(b - a)


#: Screen margin in ulps per unit of dimension; see :func:`settles`.
SCREEN_ULPS = 256

#: Threshold maps whose statistic ``max_i f(w_i)`` is at most ``||Y||_F ** power``.
_SCREEN_POWER = {None: 1.0, np.abs: 1.0, np.square: 2.0}


@lru_cache(maxsize=None)
def _lower_weights(d: int) -> np.ndarray:
    w = 2.0 * np.tri(d, k=-1) + np.eye(d)
    w.flags.writeable = False
    return w


def _eig_frobenius_sq(y) -> np.ndarray:
    """``||S||_F^2`` per matrix of ``y`` (..., d, d), for the symmetric ``S``
    that ``eigvalsh`` reads from it: the lower triangle, mirrored."""
    return np.einsum("...ij,...ij,ij->...", y, y, _lower_weights(y.shape[-1]))


def settles(sq, a, d: int, power: float = 1.0, scale: float = 1.0, offset: float = 0.0):
    """Rows that an exact norm bound settles as not crossed.

    The caller guarantees that ``offset + scale * sq ** (power / 2)``, with
    ``sq >= 0`` a squared Frobenius norm per row, bounds a statistic of the
    eigenvalues of a ``d x d`` matrix per row, and that the event is the
    statistic reaching (or passing) its threshold ``a``, a scalar or one
    per row.  A row is settled when its bound sits below ``a`` by the
    relative margin ``power * SCREEN_ULPS * d`` ulps.  The margin covers
    the rounding of the ``d^2`` squares (at most ``d^2 / 4`` ulps of the
    norm), of forming the matrix that the exact rule decomposes (``d``
    ulps of the norm for a product ``L L^T``) and LAPACK's backward error
    in its eigenvalues (a few ulps of the norm per unit of ``d``), each
    raised to ``power``, and a few ulps of ``offset``, for ``d`` up to
    about a thousand; so a settled row is one that the exact rule also
    calls not crossed.  The bound is trusted only where ``sq`` is a normal
    float and the threshold finite: zero, tiny, overflowing and non-finite
    rows, and NaN thresholds, are never settled.
    """
    limit = a * (1.0 - power * SCREEN_ULPS * d * _F64.eps)
    bound = offset + scale * sq ** (power / 2.0)
    return (sq >= _F64.tiny) & (bound <= limit) & (limit <= _F64.max)


def unsettled_events(settled, exact):
    """Events: ``False`` on the ``settled`` rows, ``exact(rows)`` on the others.

    ``exact`` receives the boolean mask of the rows left (a 0-d ``True``
    for a single matrix) and returns their events in row order; it is not
    called when every row is settled.  Returns a ``numpy.bool_`` for a
    single matrix, else an array.
    """
    out = np.zeros(np.shape(settled), dtype=bool)
    if not settled.all():
        rows = ~settled
        out[rows] = exact(rows)
    return out[()]


def screened(y, a, exact, power: float = 1.0, scale: float = 1.0):
    """Row events ``exact(y_rows, a_rows)``, computed only on the rows that
    the norm bound ``scale * ||S||_F ** power`` cannot settle.

    ``exact`` compares a statistic of each matrix's eigenvalues with its
    threshold ``a`` (a scalar or one per matrix), ``True`` meaning crossed;
    the caller guarantees that ``scale * ||S||_F ** power`` bounds that
    statistic exactly, ``S`` being the symmetric matrix that ``eigvalsh``
    reads from ``y`` (its lower triangle, mirrored).  The margin, and the
    rows that are never settled, are those of :func:`settles`.  Returns a
    ``numpy.bool_`` for one matrix, else an array.
    """
    y, a = np.asarray(y, dtype=np.float64), np.asarray(a, dtype=np.float64)
    settled = settles(_eig_frobenius_sq(y), a, y.shape[-1], power, scale)

    def rest(rows):
        shape = settled.shape
        return exact(np.broadcast_to(y, shape + y.shape[-2:])[rows], np.broadcast_to(a, shape)[rows])

    return unsettled_events(settled, rest)


def _finite_rule(rule, y, a, a_ndim: int):
    """``rule(y, a)`` on the matrices of ``y`` whose entries are all finite;
    a matrix with a non-finite entry is crossed, without LAPACK seeing it.

    LAPACK's eigenvalues of a non-finite matrix are garbage (numpy 2.4.6
    gives ``[0, -0]`` for ``[[nan, 0], [0, 0]]``), so a trial whose state
    turned non-finite would be decided by chance.  ``a`` is the threshold,
    per matrix (``a_ndim = 0``) or a matrix per matrix (``a_ndim = 2``),
    broadcast against the stack of ``y``.
    """
    if np.isfinite(y).all():
        return rule(y, a)
    ok = np.isfinite(y).all(axis=(-2, -1))
    a = np.asarray(a)
    shape = np.broadcast_shapes(ok.shape, a.shape[: a.ndim - a_ndim])
    ok = np.broadcast_to(ok, shape)
    out = np.ones(shape, dtype=bool)
    if ok.any():
        ys = np.broadcast_to(y, shape + y.shape[-2:])[ok]
        out[ok] = rule(ys, np.broadcast_to(a, shape + a.shape[a.ndim - a_ndim :])[ok])
    return out[()]


def _scalar_level(a):
    """The level ``t`` of a threshold ``a`` that stands for ``t I``: ``a``
    itself as a float array for a scalar or one value per matrix, its
    diagonal entry for a matrix exactly equal to ``t I``; None for any
    other matrix threshold."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2 and np.array_equal(a, a[0, 0] * np.eye(a.shape[0])):
        return a[0, 0]
    return a if a.ndim < 2 else None


def _level_rule(f=None):
    """The exact rule of :func:`exceeds` against levels ``a I``, as
    ``exact(ys, rows_a)`` for :func:`screened`: ``a I - f(Y)`` has
    eigenvalues ``a - f(w)``, and a matrix is crossed when they are not all
    nonnegative (``TOL_PSD`` tie rule included) or it has a non-finite entry."""

    def rule(ys, rows_a):
        w = np.linalg.eigvalsh(ys)
        w = w if f is None else f(w)
        return np.logical_not(spectrum_is_psd(rows_a[..., None] - w))

    def exact(ys, rows_a):
        return _finite_rule(rule, ys, rows_a, 0)

    return exact


def exceeds(y, a, f=None) -> np.ndarray:
    """Event ``f(Y) not <= a`` for each matrix of a stack ``y`` (..., d, d).

    ``a`` is a threshold matrix (or a stack of them), or a scalar or
    per-matrix array standing for ``a I``.  A threshold ``a I`` (also when
    given as a matrix exactly equal to it) is decided on the eigenvalues
    ``w`` of ``y``: ``a I - f(Y)`` has eigenvalues ``a - f(w)``.  For ``f``
    None or ``np.abs`` it is first screened with ``max |w_i| <= ||Y||_F``,
    for ``np.square`` with ``max w_i^2 <= ||Y||_F^2`` (see
    :func:`screened`), so ``eigvalsh`` runs only on the rows whose norm
    comes within the screen margin of ``a``.  A settled row has every
    ``a - f(w_i) > 0``, so the eigenvalue rule, ``TOL_PSD`` tie rule
    included, also finds it ordered.  Any other threshold costs one
    ``eigvalsh`` of ``a - f(Y)``; :func:`exceeds_scaled` screens the
    thresholds ``t B``.  ``f`` is an eigenvalue map (``np.abs``,
    ``np.square``) applied through the spectrum.  Ties count as ordered,
    as in :func:`loewner_leq`.  A matrix with a non-finite entry is
    crossed: no norm bound settles it, and it never reaches LAPACK.
    """
    level = _scalar_level(a)
    if level is not None:
        exact, power = _level_rule(f), _SCREEN_POWER.get(f)
        return exact(y, level) if power is None else screened(y, level, exact, power)

    def loewner_rule(ys, rows_a):
        return np.logical_not(loewner_leq(ys if f is None else apply_spectral(f, ys), rows_a))

    return _finite_rule(loewner_rule, y, np.asarray(a, dtype=np.float64), 2)


def exceeds_scaled(y, t, b, f=None):
    """:func:`exceeds` against the thresholds ``t B``: one symmetric matrix
    ``B`` scaled by ``t``, a scalar or one value per matrix of ``y``.

    A scalar ``t`` is the call ``exceeds(y, t B, f)``.  One ``t`` per
    matrix makes a stack of thresholds, whose exact rule costs one
    ``eigvalsh`` of ``t B - f(Y)`` per matrix (after an ``eigh`` of ``Y``
    for ``f``), so it is screened first.  For ``t > 0``,
    ``t B >= t lambda_min(B) I``, and ``lambda_max f(Y) <= ||Y||_F ** power``
    for the maps that :func:`exceeds` screens; so a matrix whose norm bound
    sits below ``t beta`` by the margin of :func:`settles` is ordered, with

        beta = max(0, lambda_min(B) - SCREEN_ULPS d eps ||B||_F)

    computed once per call.  ``beta`` carries the rounding that scales with
    ``B`` rather than with ``Y``: that of ``lambda_min(B)``, of ``t B``, of
    ``t B - f(Y)`` and LAPACK's backward error in its eigenvalues, each a
    few ulps of ``t ||B||`` per unit of ``d``, which is not small next to
    ``t lambda_min(B)`` when ``B`` is ill-conditioned.  A ``B`` with
    ``beta = 0`` (and a ``t <= 0``) settles nothing.  The rows left get the
    call ``exceeds(y, t B, f)`` would make on them, so the events equal it
    on every matrix: a matrix with a non-finite entry is crossed.
    """
    t = np.asarray(t, dtype=np.float64)
    power = _SCREEN_POWER.get(f)
    if t.ndim == 0 or power is None:
        return exceeds(y, t[..., None, None] * b, f)
    y = np.asarray(y, dtype=np.float64)
    d = y.shape[-1]
    slack = SCREEN_ULPS * d * _F64.eps * np.sqrt(_eig_frobenius_sq(b))
    beta = max(np.linalg.eigvalsh(b)[0] - slack, 0.0)
    settled = settles(_eig_frobenius_sq(y), t * beta, d, power)

    def rest(rows):
        ys = np.broadcast_to(y, settled.shape + y.shape[-2:])[rows]
        return exceeds(ys, np.broadcast_to(t, settled.shape)[rows][..., None, None] * b, f)

    return unsettled_events(settled, rest)
