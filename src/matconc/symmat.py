"""Dense real symmetric matrices: spectral calculus and Loewner-order predicates.

Every matrix handled by this package is a square ``numpy.ndarray`` of
float64 that is exactly symmetric.  :func:`symmat` is the only sanctioned
constructor: it validates the input and returns the symmetric part
``(M + M.T) / 2`` so that downstream code may rely on
``A[i, j] == A[j, i]`` holding bitwise.

Matrix functions (exp, log, sqrt, abs, powers) are applied through the
eigendecomposition: for ``A = Q diag(w) Q.T`` the image is
``Q diag(f(w)) Q.T``.  Order comparisons use the Loewner partial order:
``A <= B`` iff ``B - A`` is positive semidefinite, tested with a relative
eigenvalue tolerance.

:func:`apply_spectral`, :func:`mat_exp`, :func:`mat_sqrt`, :func:`mat_abs`,
:func:`mat_pow`, :func:`is_psd`, :func:`loewner_leq` and :func:`exceeds`
also take stacks ``(..., d, d)`` and act on each matrix; the batched
Monte Carlo kernels rely on this.  Threshold tests against ``a I`` are
screened (:func:`screened`): an exact Frobenius-norm bound settles the
matrices that sit clearly below the threshold, and ``eigvalsh`` runs on
the rest only, with the same events as running it on every matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimMismatch, DomainError

__all__ = [
    "SpectralDecomp",
    "symmat",
    "symmat_stack",
    "load_matrix",
    "parse_matrix_json",
    "eigh_decomp",
    "apply_spectral",
    "mat_exp",
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
    "anticommutator",
    "loewner_leq",
    "loewner_geq",
    "exceeds",
    "screened",
    "is_psd",
    "spectrum_is_psd",
    "curlyvee",
    "identity_like",
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


def symmat(m, *, copy: bool = True) -> np.ndarray:
    """Validate and symmetrize a square array.

    Parameters
    ----------
    m : array_like, shape (d, d)
        Square real matrix.  Any asymmetry is averaged away.
    copy : bool, default True
        Force a copy even when the input is already a float64 array.

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
    a = np.array(m, dtype=np.float64, copy=copy)
    if a.ndim != 2:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return symmat_stack(a)


def symmat_stack(m) -> np.ndarray:
    """:func:`symmat` for a stack ``(..., d, d)``: validated symmetric part of each matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimMismatch(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def _recompose(q: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """``Q diag(f(w)) Q.T`` per matrix, re-symmetrized to absorb floating-point drift."""
    out = (q * fw[..., None, :]) @ np.swapaxes(q, -1, -2)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def parse_matrix_json(obj) -> np.ndarray:
    """Build a symmetric matrix from a decoded JSON array-of-arrays.

    Rows must all have the same length as the number of rows.  Asymmetry
    up to a relative ``1e-6`` is silently symmetrized; anything larger is
    rejected, since it indicates the caller serialized the wrong matrix.

    Raises
    ------
    DomainError
        On ragged rows, non-numeric entries, or asymmetry beyond tolerance.
    DimMismatch
        If the value is not a square array-of-arrays.
    """
    if not isinstance(obj, list) or not obj:
        raise DimMismatch("matrix literal must be a non-empty array of arrays")
    d = len(obj)
    for row in obj:
        if not isinstance(row, list) or len(row) != d:
            raise DimMismatch("matrix literal must be square")
    try:
        a = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"matrix entries must be numbers: {exc}") from None
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    gap = np.max(np.abs(a - a.T))
    scale = max(1.0, float(np.max(np.abs(a))))
    if gap > LOAD_ASYMMETRY_TOL * scale:
        raise DomainError(
            f"matrix is asymmetric beyond tolerance ({gap:.3e} relative to {scale:.3e})"
        )
    return symmat(a, copy=False)


def load_matrix(text: str) -> np.ndarray:
    """Parse a JSON string containing one matrix literal."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from None
    return parse_matrix_json(obj)


def _require_square(a: np.ndarray, name: str = "matrix") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {a.shape}")


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimMismatch(f"operands have different shapes {a.shape} and {b.shape}")


def eigh_decomp(a: np.ndarray) -> SpectralDecomp:
    """Eigendecompose a symmetric matrix (eigenvalues ascending)."""
    w, q = np.linalg.eigh(symmat(a, copy=False))
    return SpectralDecomp(eigenvalues=w, eigenvectors=q)


def apply_spectral(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    f : callable
        Vectorized map on the eigenvalue array.
    a : ndarray, shape (..., d, d)
        Symmetric matrix, or a stack of them.

    Returns
    -------
    ndarray, shape (..., d, d)
        ``Q diag(f(w)) Q.T``, explicitly re-symmetrized to absorb
        floating-point drift.
    """
    w, q = np.linalg.eigh(symmat_stack(a))
    fw = np.asarray(f(w), dtype=np.float64)
    if fw.shape != w.shape:
        raise DomainError("spectral map must return one value per eigenvalue")
    if not np.all(np.isfinite(fw)):
        raise DomainError("spectral map produced non-finite values")
    return _recompose(q, fw)


def _eig_scale(w: np.ndarray) -> np.ndarray:
    """``max(1, max |w|)`` per eigenvalue row."""
    return np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (or of each in a stack)."""
    return apply_spectral(np.exp, a)


def mat_log(a: np.ndarray, *, floor: float = LOG_EIG_FLOOR) -> np.ndarray:
    """Matrix logarithm of a symmetric positive definite matrix.

    Raises
    ------
    DomainError
        If any eigenvalue is below ``floor`` (default ``1e-30``).
    """
    dec = eigh_decomp(a)
    if dec.eigenvalues[0] < floor:
        raise DomainError(
            f"matrix log needs eigenvalues >= {floor:g}, smallest is "
            f"{dec.eigenvalues[0]:.6e}"
        )
    return _recompose(dec.eigenvectors, np.log(dec.eigenvalues))


def _clamped_nonneg(w: np.ndarray, tol_psd: float) -> np.ndarray:
    """Clamp eigenvalues in ``[-tol, 0)`` to zero; reject anything lower.

    ``w`` holds ascending eigenvalue rows, one per matrix of a stack.
    """
    slack = tol_psd * _eig_scale(w)
    bad = w[..., 0] < -slack
    if np.any(bad):
        raise DomainError(
            f"matrix is not positive semidefinite: smallest eigenvalue "
            f"{w[..., 0][bad].min():.6e} below -{slack[bad].min():.3e}"
        )
    return np.maximum(w, 0.0)


def mat_sqrt(a: np.ndarray, *, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Principal square root of a symmetric PSD matrix (or of each in a stack).

    Eigenvalues within ``-tol_psd * scale`` of zero are clamped to zero
    before the root is taken; more negative spectra raise ``DomainError``.
    """
    w, q = np.linalg.eigh(symmat_stack(a))
    return _recompose(q, np.sqrt(_clamped_nonneg(w, tol_psd)))


def mat_abs(a: np.ndarray) -> np.ndarray:
    """Matrix absolute value ``(A^2)^{1/2}`` via absolute eigenvalues (stack-aware)."""
    return apply_spectral(np.abs, a)


def mat_pow(a: np.ndarray, k: float, *, tol_psd: float = TOL_PSD) -> np.ndarray:
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
        pw = _clamped_nonneg(w, tol_psd) ** float(k)
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


def tr_log(a: np.ndarray, *, floor: float = LOG_EIG_FLOOR) -> float:
    """``tr log A`` as the sum of log eigenvalues."""
    w = eigh_decomp(a).eigenvalues
    if w[0] < floor:
        raise DomainError(
            f"trace-log needs eigenvalues >= {floor:g}, smallest is {w[0]:.6e}"
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


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``AB + BA``, symmetric whenever A and B are."""
    _require_same_shape(a, b)
    out = a @ b + b @ a
    return (out + out.T) / 2.0


def spectrum_is_psd(w: np.ndarray, *, tol_psd: float = TOL_PSD) -> np.ndarray:
    """The PSD rule on eigenvalue rows ``(..., d)``, in any order.

    True per row iff its smallest value is at least
    ``-tol_psd * max(1, max |w|)``.
    """
    return w.min(axis=-1) >= -tol_psd * _eig_scale(w)


def is_psd(a: np.ndarray, *, tol_psd: float = TOL_PSD):
    """Positive semidefinite up to the relative eigenvalue tolerance.

    A bool for one matrix, a bool array for a stack ``(..., d, d)``.
    """
    ok = spectrum_is_psd(np.linalg.eigvalsh(symmat_stack(a)), tol_psd=tol_psd)
    return bool(ok) if ok.ndim == 0 else ok


def loewner_leq(a: np.ndarray, b: np.ndarray, *, tol_psd: float = TOL_PSD):
    """Loewner comparison ``A <= B``, matrix by matrix for stacks.

    True iff the smallest eigenvalue of ``B - A`` is at least
    ``-tol_psd * max(1, ||B - A||)``, so exact ties and rounding noise
    count as ordered.  Stacks broadcast against each other.
    """
    if a.shape[-2:] != b.shape[-2:]:
        raise DimMismatch(f"operands have different shapes {a.shape} and {b.shape}")
    return is_psd(b - a, tol_psd=tol_psd)


def loewner_geq(a: np.ndarray, b: np.ndarray, *, tol_psd: float = TOL_PSD) -> bool:
    """Loewner comparison ``A >= B``."""
    return loewner_leq(b, a, tol_psd=tol_psd)


#: Screen margin in ulps per unit of dimension; see :func:`screened`.
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


def screened(y, a, exact, power: float = 1.0, scale: float = 1.0):
    """Row events ``exact(y_rows, a_rows)``, computed only on the rows that
    the norm bound ``scale * ||S||_F ** power`` cannot settle.

    ``exact`` compares a statistic of each matrix's eigenvalues with its
    threshold ``a`` (a scalar or one per matrix), ``True`` meaning crossed;
    the caller guarantees that ``scale * ||S||_F ** power`` bounds that
    statistic exactly.  A row is settled as not crossed when its bound sits
    below ``a`` by the relative margin ``power * SCREEN_ULPS * d`` ulps.
    The margin covers the rounding of the ``d^2`` squares (at most
    ``d^2 / 4`` ulps of the norm) and LAPACK's backward error in the
    eigenvalues (a few ulps of ``||S||_2`` per unit of ``d``), each raised
    to ``power``, for ``d`` up to about a thousand; so a settled row is one
    that ``exact`` also calls not crossed.  The bound is trusted only when
    ``||S||_F^2`` is a normal float and the threshold finite; zero, tiny,
    overflowing and non-finite rows, as well as NaN thresholds, reach
    ``exact``.  Returns a ``numpy.bool_`` for one matrix, else an array.
    """
    y, a = np.asarray(y, dtype=np.float64), np.asarray(a, dtype=np.float64)
    sq = _eig_frobenius_sq(y)
    limit = a * (1.0 - power * SCREEN_ULPS * y.shape[-1] * _F64.eps)
    settled = (sq >= _F64.tiny) & (scale * sq ** (power / 2.0) <= limit) & (limit <= _F64.max)
    out = np.zeros(np.shape(settled), dtype=bool)
    if not settled.all():
        rows = ~settled
        a = np.broadcast_to(a, out.shape)[rows]
        out[rows] = exact(np.broadcast_to(y, out.shape + y.shape[-2:])[rows], a)
    return out[()]


def exceeds(y, a, f=None) -> np.ndarray:
    """Event ``f(Y) not <= a`` for each matrix of a stack ``y`` (..., d, d).

    ``a`` is a threshold matrix (or a stack of them), or a scalar or
    per-matrix array standing for ``a I``.  A threshold ``a I`` (also when
    given as a matrix exactly equal to it) is decided on the eigenvalues
    ``w`` of ``y``: ``a I - f(Y)`` has eigenvalues ``a - f(w)``.  For ``f``
    None or ``np.abs`` it is first screened with ``max |w_i| <= ||Y||_F``,
    for ``np.square`` with ``max w_i^2 <= ||Y||_F^2`` (see
    :func:`screened`), so ``eigvalsh`` runs only on the rows whose norm
    comes within the screen margin of ``a``.  The margin covers the
    rounding of the norm and of ``eigvalsh``, so a settled row is one that
    the eigenvalue rule, ``TOL_PSD`` tie rule included, also finds ordered.
    Any other threshold costs one ``eigvalsh`` of ``a - f(Y)``.  ``f`` is an
    eigenvalue map (``np.abs``, ``np.square``) applied through the
    spectrum.  Ties count as ordered, as in :func:`loewner_leq`.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2 and np.array_equal(a, a[0, 0] * np.eye(a.shape[0])):
        a = a[0, 0]
    if a.ndim < 2:

        def exact(ys, rows_a):
            w = np.linalg.eigvalsh(ys)
            w = w if f is None else f(w)
            return np.logical_not(spectrum_is_psd(rows_a[..., None] - w))

        power = _SCREEN_POWER.get(f)
        return exact(y, a) if power is None else screened(y, a, exact, power)
    fy = y if f is None else apply_spectral(f, y)
    return np.logical_not(loewner_leq(fy, a))


def curlyvee(a: np.ndarray, b: np.ndarray, *, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Matrix minimum: ``A`` when ``A <= B``, else ``A - lambda_max(A-B) I``.

    The result is always below both arguments in the Loewner order: the
    shift makes ``A - lambda_max(A - B) I <= B`` hold exactly, since the
    smallest eigenvalue of ``B - A`` equals ``-lambda_max(A - B)``.
    Within-tolerance comparisons resolve to the first branch, so a
    near-tie returns ``A`` unchanged.
    """
    _require_same_shape(a, b)
    if loewner_leq(a, b, tol_psd=tol_psd):
        return np.array(a, dtype=np.float64)
    shift = lambda_max(a - b)
    return a - shift * np.eye(a.shape[0])


def identity_like(a: np.ndarray) -> np.ndarray:
    """Identity matrix with the dimension of ``a``."""
    _require_square(a)
    return np.eye(a.shape[0])
