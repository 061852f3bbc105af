"""Exactness of the norm screen in front of the eigenvalue threshold tests.

``symmat.exceeds`` (threshold ``a I``) and ``martingales.scan_exceeds``
settle most matrices of a stack with an exact Frobenius-norm bound and
run ``eigvalsh`` only on the rest.  The screen must never change an
event, so every test here compares the screened functions with
reference copies of the eigenvalue-only rules they replaced, on random
stacks and on the rows where the bound is tight: rank-one rows (and,
for the trace statistic at ``p < 2``, rows with equal ``|w_i|``) whose
norm equals the threshold, thresholds a few ulps from a row's
statistic, zero rows, ``d = 1`` and large thresholds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matconc import martingales as mg
from matconc import symmat as sm
from matconc.simulator import McConfig, default_generator, run_coverage

EPS = np.finfo(np.float64).eps
MAPS = (None, np.abs, np.square)
KINDS = ("DOOB", "XMCI", "XMCI2", "XMPCI", "TRACE_PCHEB")
PS = (1.0, 1.2, 1.5, 2.0, 3.0)
ULPS = np.arange(-6, 7)


def _non_finite(y):
    """Matrices with a non-finite entry: crossed, whatever LAPACK would say."""
    return ~np.isfinite(y).all(axis=(-2, -1))


def ref_exceeds(y, a, f=None):
    """The eigenvalue-only rule of ``exceeds`` for a threshold ``a I``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2 and np.array_equal(a, a[0, 0] * np.eye(a.shape[0])):
        a = a[0, 0]
    w = np.linalg.eigvalsh(y)
    w = w if f is None else f(w)
    return np.logical_not(sm.spectrum_is_psd(a[..., None] - w)) | _non_finite(y)


def ref_scan(kind, xbar, m, a, p=None):
    """The eigenvalue-only rule of ``scan_exceeds``."""
    if kind == "DOOB":
        return ref_exceeds(xbar - m, a, np.square)
    if kind in ("XMCI", "XMCI2"):
        return ref_exceeds(xbar - m, a, np.abs)
    if kind == "XMPCI":
        return ref_exceeds(xbar, a)
    w = np.linalg.eigvalsh(xbar - m)
    return ((np.abs(w) ** p).sum(axis=-1) >= a**p) | _non_finite(xbar - m)


def _stack(rng, n, d, scale):
    """Random symmetric, PSD, rank-one, equal-|w| and zero rows."""
    g = rng.standard_normal((n, d, d))
    sym = (g + np.swapaxes(g, -1, -2)) / 2
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    rank_one = v[:, :, None] * v[:, None, :] * rng.choice([-1.0, 1.0], (n, 1, 1))
    q = np.linalg.qr(rng.standard_normal((n, d, d)))[0]
    signs = rng.choice([-1.0, 1.0], (n, d))
    flat = (q * signs[:, None, :]) @ np.swapaxes(q, -1, -2)  # every |w_i| = 1
    y = np.concatenate([sym, sym @ sym, rank_one, flat, np.zeros((1, d, d))])
    return scale * y


def _statistic(y, f=None):
    """Largest ``f(w_i)`` per row, from ``eigvalsh``."""
    w = np.linalg.eigvalsh(y)
    return (w if f is None else f(w)).max(axis=-1)


def _near(values):
    """Each value moved by -6..6 ulps: thresholds where the screen is tightest
    (at a row's statistic or its norm bound), or where a bound that is too
    small would show (just below the statistic)."""
    return (values[:, None] * (1.0 + ULPS * EPS)).ravel()


def _check_exceeds(y, f):
    """``exceeds`` equals the reference for scalar, per-row and ``a I`` thresholds."""
    d = y.shape[-1]
    stat = _statistic(y, f)
    bound = np.sqrt(sm._eig_frobenius_sq(y))
    bound = bound**2 if f is np.square else bound
    per_row = np.concatenate([_near(stat), _near(bound), _near(0.999 * stat)])
    rows = np.repeat(np.concatenate([y, y, y]), len(ULPS), axis=0)
    np.testing.assert_array_equal(sm.exceeds(rows, per_row, f), ref_exceeds(rows, per_row, f))
    for a in np.quantile(stat, [0.1, 0.5, 0.9]):
        np.testing.assert_array_equal(sm.exceeds(y, a, f), ref_exceeds(y, a, f))
        a_mat = a * np.eye(d)
        np.testing.assert_array_equal(sm.exceeds(y, a_mat, f), ref_exceeds(y, a_mat, f))


def _check_scans(y, rng):
    """All five scan kinds equal the reference, at thresholds near each row's statistic."""
    d = y.shape[-1]
    m = sm.symmat(rng.standard_normal((d, d))) * np.abs(y).max()
    xbar = y + m
    dev = xbar - m
    for kind in KINDS:
        for p in PS if kind == "TRACE_PCHEB" else (None,):
            if kind == "TRACE_PCHEB":
                stat = (np.abs(np.linalg.eigvalsh(dev)) ** p).sum(axis=-1) ** (1.0 / p)
                c = max(1.0, d ** (1.0 - p / 2.0))
                bound = (c * sm._eig_frobenius_sq(dev) ** (p / 2.0)) ** (1.0 / p)
            else:
                f = {"DOOB": np.square, "XMPCI": None}.get(kind, np.abs)
                x = xbar if kind == "XMPCI" else dev
                stat, bound = _statistic(x, f), np.sqrt(sm._eig_frobenius_sq(x))
                bound = bound**2 if f is np.square else bound
            a = np.concatenate([_near(stat), _near(bound), _near(0.999 * stat)])
            a = np.where(a > 0, a, 1.0)  # the scans take positive thresholds
            rows = np.repeat(np.concatenate([xbar, xbar, xbar]), len(ULPS), axis=0)
            np.testing.assert_array_equal(
                mg.scan_exceeds(kind, rows, m, a, p), ref_scan(kind, rows, m, a, p), err_msg=kind
            )
            a0 = float(np.median(stat[stat > 0])) if np.any(stat > 0) else 1.0
            np.testing.assert_array_equal(
                mg.scan_exceeds(kind, xbar, m, a0, p), ref_scan(kind, xbar, m, a0, p), err_msg=kind
            )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    scale=st.sampled_from([1e-6, 1.0, 3.7, 1e9]),
)
def test_screened_exceeds_matches_eigenvalue_rule(seed, d, scale):
    y = _stack(np.random.default_rng(seed), 8, d, scale)
    for f in MAPS:
        _check_exceeds(y, f)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    scale=st.sampled_from([1e-6, 1.0, 3.7, 1e9]),
)
def test_screened_scans_match_eigenvalue_rule(seed, d, scale):
    rng = np.random.default_rng(seed)
    _check_scans(_stack(rng, 8, d, scale), rng)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("a", [1.0, 1e9])
def test_rank_one_rows_with_norm_at_the_threshold(d, a):
    rng = np.random.default_rng(d)
    v = rng.standard_normal((200, d))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    y = a * v[:, :, None] * v[:, None, :]
    for f in MAPS:
        _check_exceeds(np.concatenate([y, -y]), f)
        np.testing.assert_array_equal(sm.exceeds(y, a, f), ref_exceeds(y, a, f))
    _check_scans(np.concatenate([y, -y]), rng)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_equal_modulus_rows_in_the_trace_scan(d):
    """Rows with every ``|w_i|`` equal meet the ``d^{1 - p/2}`` factor at ``p < 2``."""
    rng = np.random.default_rng(d)
    q = np.linalg.qr(rng.standard_normal((100, d, d)))[0]
    signs = rng.choice([-1.0, 1.0], (100, d))
    y = 2.5 * (q * signs[:, None, :]) @ np.swapaxes(q, -1, -2)
    _check_scans(y, rng)


def test_large_threshold_at_d1():
    """At ``d = 1`` the ``TOL_PSD`` slack is ``1e-8`` absolute, below one ulp of 1e9."""
    a = 1e9
    y = _near(np.array([a, -a]))[:, None, None]
    for f in MAPS:
        for t in (a, np.full(len(y), a), np.tile(_near(np.array([a])), 2)):
            np.testing.assert_array_equal(sm.exceeds(y, t, f), ref_exceeds(y, t, f))
    assert sm.exceeds(y, a).tolist() == [k > 0 for k in ULPS] + [False] * len(ULPS)
    _check_scans(y, np.random.default_rng(1))


def test_indefinite_rows_in_the_psd_mean_scan():
    """XMPCI screens with ``lambda_max <= ||Y||_F``, which needs no PSD input."""
    rng = np.random.default_rng(7)
    y = _stack(rng, 50, 4, 1.0)
    stat = _statistic(y)
    for a in _near(np.quantile(stat[stat > 0], [0.2, 0.8])):
        np.testing.assert_array_equal(
            mg.scan_exceeds("XMPCI", y, None, a), ref_scan("XMPCI", y, None, a)
        )


def test_zero_rows_and_batch_of_one():
    for d in (1, 3):
        zero = np.zeros((d, d))
        for f in MAPS:
            for a in (0.0, -0.0, 1.0, -1.0):
                got = sm.exceeds(zero, a, f)
                assert isinstance(got, np.bool_)
                assert got == ref_exceeds(zero, a, f)
        for p in PS:
            assert not mg.scan_exceeds("TRACE_PCHEB", zero, zero, 1.0, p)
            assert mg.scan_exceeds("TRACE_PCHEB", zero, zero, 1e-200, p) == ref_scan(
                "TRACE_PCHEB", zero, zero, 1e-200, p
            )


def test_non_finite_rows_take_the_exact_path():
    y = np.zeros((3, 2, 2))
    y[1, 0, 0], y[2, 0, 0] = np.nan, np.inf
    huge = np.full((2, 2, 2), 1e200)
    huge[1] *= -1
    with np.errstate(all="ignore"):
        for f in MAPS:
            # a non-finite row is crossed; LAPACK would call [[nan, 0], [0, 0]] ordered
            assert sm.exceeds(y, 1.0, f).tolist() == [False, True, True]
            for a in (1.0, np.inf, np.nan, np.array([1.0, np.inf, np.nan])):
                np.testing.assert_array_equal(sm.exceeds(y, a, f), ref_exceeds(y, a, f))
            for a in (1.0, 1e300, np.inf):
                np.testing.assert_array_equal(sm.exceeds(huge, a, f), ref_exceeds(huge, a, f))
        for p in PS:
            for x in (y, huge):
                np.testing.assert_array_equal(
                    mg.scan_exceeds("TRACE_PCHEB", x, 0.0, 1.0, p),
                    ref_scan("TRACE_PCHEB", x, 0.0, 1.0, p),
                )


def test_upper_triangle_is_ignored_like_eigvalsh():
    """``eigvalsh`` reads the lower triangle; so does the norm bound."""
    rng = np.random.default_rng(3)
    y = np.tril(_stack(rng, 20, 3, 1.0))
    for upper in (0.0, 1e6):
        for f in MAPS:
            _check_exceeds(y + np.triu(np.full((3, 3), upper), 1), f)


def test_screen_spares_most_eigen_solves(monkeypatch):
    """On a null XMCI block almost no (path, step) matrix needs ``eigvalsh``."""
    paths, horizon = 512, 300
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    gen = default_generator("XMCI", "EXCHANGEABLE_MIXTURE", 5)
    rep = run_coverage("XMCI", gen, McConfig(trials=paths, base_seed=20240817), {"n_max": horizon})
    assert rep.verdict
    assert sum(seen) < 0.05 * paths * horizon
