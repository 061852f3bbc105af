"""Exactness of the norm screens in front of the sequential and fixed-time statistics.

``FactorProcess`` settles trials with ``lambda_max(L L^T) <= ||L||_F^2``
before forming ``Y``; ``TraceExpProcess`` with ``log tr e^S <= log d +
||S||_F`` (URSN) and ``lambda_max(G) <= ||G||_F`` (USMHI); and
``symmat.exceeds_scaled`` with ``t B >= t lambda_min(B) I`` for the
fixed-time thresholds ``u A``, ``sqrt(u) |A|`` and ``u^{1/p} A``.  None of
them may change an event, so every test compares them with reference
copies of the unscreened rules, on the rows where the bounds are tight
(rank-one factors, a single nonzero eigenvalue, ``d = 1``), at levels a
few ulps from a row's statistic or bound, and on zero, tiny, huge and
non-finite rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matconc import fixed_bounds as fb
from matconc import martingales as mg
from matconc import scalar_e as se
from matconc import symmat as sm
from matconc.errors import DomainError
from matconc.processes import FactorProcess, TraceExpProcess, first_crossing
from matconc.simulator import McConfig, default_generator, run_coverage

EPS = np.finfo(np.float64).eps
ULPS = np.arange(-6, 7)
ALPHAS = (0.05, 0.5, 0.999)


# --- reference copies of the unscreened rules ------------------------------


def ref_value(left):
    y = left @ np.swapaxes(left, -1, -2)
    return (y + np.swapaxes(y, -1, -2)) / 2.0


def ref_rows(rule, y, a, a_ndim):
    """``rule(y, a)`` on the finite matrices of ``y``; a matrix with a
    non-finite entry is crossed, whatever LAPACK would say of it."""
    a = np.asarray(a, dtype=np.float64)
    shape = np.broadcast_shapes(y.shape[:-2], a.shape[: a.ndim - a_ndim])
    ys = np.broadcast_to(y, shape + y.shape[-2:])
    rows_a = np.broadcast_to(a, shape + a.shape[a.ndim - a_ndim :])
    ok = np.isfinite(ys).all(axis=(-2, -1))
    out = np.ones(shape, dtype=bool)
    out[ok] = rule(ys[ok], rows_a[ok])
    return out[()]


def ref_exceeds(y, a):
    """Eigenvalue rule of ``Y not <= a I``, on every row."""

    def rule(ys, rows_a):
        return np.logical_not(sm.spectrum_is_psd(rows_a[..., None] - np.linalg.eigvalsh(ys)))

    return ref_rows(rule, y, a, 0)


def ref_log_value(s):
    w = np.linalg.eigvalsh(sm.symmat_stack(s))
    top = w[..., -1]
    return top + np.log(np.exp(w - top[..., None]).sum(axis=-1))


def ref_hoeffding(g, b):
    top = np.linalg.eigvalsh(sm.symmat_stack(g))[..., -1]
    return top - 0.5 * np.linalg.eigvalsh(sm.symmat_stack(b))[..., -1]


def ref_exceeds_scaled(y, t, b, f=None):
    """``f(Y) not <= t B`` with one ``eigvalsh`` of ``t B - f(Y)`` per row."""

    def rule(ys, thr):
        fy = ys if f is None else sm.apply_spectral(f, ys)
        return np.logical_not(sm.spectrum_is_psd(np.linalg.eigvalsh(sm.symmat_stack(thr - fy))))

    return ref_rows(rule, y, np.asarray(t, dtype=np.float64)[..., None, None] * b, 2)


# --- processes set to a chosen state -----------------------------------------


def factor_events(left, a):
    """Events of the factor states ``left``: the stack's decision rule, or
    ``decide`` for one path."""
    proc = FactorProcess("BETTING", np.zeros(left.shape[-2:]), a)
    if left.ndim > 2:
        return proc._events(left)
    proc.state = mg.MatSupermartingaleState(left)
    return proc.decide()


def trace_exp_process(s, alpha, b=None):
    """A process at the state ``s`` (the exponent, or the tilt with ``b``)."""
    d = s.shape[-1]
    zero = np.zeros(s.shape)
    proc = TraceExpProcess(np.zeros((d, d)), None if b is not None else np.eye(d), alpha, b)
    sum_b = np.zeros((d, d)) if b is None else b
    proc.state = se.TraceExpState(s, zero, zero, zero, 1.0, sum_b, 1)
    return proc


def trace_exp_events(s, alpha, b=None):
    """Events of a stack of states ``s``, as ``first_crossing`` decides them.

    The process starts at ``s``, with no ``B`` summed yet, and takes one
    step on a zero deviation with ``gamma = 1`` and a zero variance bound
    (or ``B`` once): the state after it is ``s``."""
    d = s.shape[-1]
    zero = np.zeros(s.shape)
    proc = TraceExpProcess(np.zeros((d, d)), None if b is not None else np.zeros((d, d)), alpha, b)
    proc.state = se.TraceExpState(s, zero, zero, zero, 0.0, np.zeros((d, d)), 0)
    return first_crossing(proc, np.zeros((len(s), 1, d, d)), [1.0]) == 1


def assert_same(got, ref):
    """``got()`` equals ``ref()``, or both raise the same exception type."""
    try:
        expected = ref()
    except Exception as exc:
        with pytest.raises(type(exc)):
            got()
        return
    np.testing.assert_array_equal(got(), expected)


def _edge(d, power=1.0):
    """``1 - margin``: a bound at this fraction of its level is the last one settled."""
    return 1.0 - power * sm.SCREEN_ULPS * d * EPS


def _near(values):
    """Each value moved by -6..6 ulps."""
    return (np.asarray(values)[:, None] * (1.0 + ULPS * EPS)).ravel()


def _unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _lefts(rng, n, d):
    """General, rank-one and orthogonal factors, each of unit Frobenius norm."""
    general = rng.standard_normal((n, d, d))
    u, v = _unit_rows(rng, n, d), _unit_rows(rng, n, d)
    rank_one = u[:, :, None] * v[:, None, :]
    orth = np.linalg.qr(rng.standard_normal((n, d, d)))[0]
    out = np.concatenate([general, rank_one, orth])
    return out / np.sqrt(np.einsum("...ij,...ij->...", out, out))[:, None, None]


# --- FactorProcess ------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), a=st.sampled_from([1.0, 20.0, 1e9]))
def test_factor_screen_matches_the_rule_on_y(seed, d, a):
    rng = np.random.default_rng(seed)
    unit = _lefts(rng, 6, d)
    # ||L||_F^2 a few ulps from a (tight for rank one) and from the last settled
    # value, lambda_max(Y) a few ulps from a, and rows that settle
    lam = np.linalg.eigvalsh(ref_value(unit))[:, -1]
    for scale_sq in (np.full(len(unit), a), np.full(len(unit), a * _edge(d, 2.0)), a / lam, a / (2 * lam)):
        rows = np.repeat(unit, len(ULPS), axis=0) * np.sqrt(_near(scale_sq))[:, None, None]
        np.testing.assert_array_equal(factor_events(rows, a), ref_exceeds(ref_value(rows), a))


@pytest.mark.parametrize("d", [1, 2, 5])
def test_factor_screen_rank_one_at_a_large_level(d):
    """At ``d = 1`` and ``a = 1e9`` the rule's tie slack is below one ulp of ``a``;
    a rank-one ``L`` has ``lambda_max(Y) = ||L||_F^2``."""
    a = 1e9
    e1 = np.eye(d)[0]
    left = np.sqrt(_near([a]))[:, None, None] * np.outer(e1, e1)
    got = factor_events(left, a)
    np.testing.assert_array_equal(got, ref_exceeds(ref_value(left), a))
    if d == 1:
        assert got[-1] and not got[0]


def test_factor_screen_on_zero_tiny_huge_and_non_finite_rows():
    d = 3
    rows = np.zeros((8, d, d))
    rows[1] = 1e-170 * np.eye(d)  # ||L||_F^2 underflows
    rows[2] = 1e-155 * np.eye(d)  # subnormal squares
    rows[3] = 1e150 * np.eye(d)  # Y overflows
    rows[4] = 0.5 * np.eye(d)
    rows[5, 0, 0] = np.nan
    rows[6, 1, 0] = np.inf
    rows[7] = 3.0 * np.eye(d)
    with np.errstate(all="ignore"):
        for a in (1.0, 1e-300, 1e300):
            for pick in ([0, 1, 2, 3, 4, 7], [5], [6], slice(None)):
                r = rows[pick]
                assert_same(lambda: factor_events(r, a), lambda: ref_exceeds(ref_value(r), a))


def test_factor_process_lone_trial():
    left = np.diag([2.0, 0.5])
    got = factor_events(left, 3.0)
    assert isinstance(got, np.bool_) and bool(got) is True
    assert factor_events(left, 5.0) == np.False_
    # a threshold matrix equal to a I is the scalar level; any other takes the Loewner rule
    assert factor_events(left, 3.0 * np.eye(2)) == got
    assert factor_events(left, np.diag([5.0, 0.1])) == np.True_
    with pytest.raises(DomainError):
        factor_events(np.array([[np.nan, 0.0], [0.0, 1.0]]), 3.0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
def test_y_on_a_row_subset_is_bitwise_the_full_product(d):
    rng = np.random.default_rng(d)
    left = rng.standard_normal((257, d, d)) * np.exp(rng.uniform(-5, 5, (257, 1, 1)))
    proc = FactorProcess("BETTING", np.zeros((d, d)), 1.0)
    full = proc._values(left)
    for rows in (rng.random(257) < 0.03, rng.random(257) < 0.5, np.arange(257) == 7, np.ones(257, bool)):
        sub = proc._values(left[rows])
        assert sub.tobytes() == full[rows].tobytes()


# --- TraceExpProcess ------------------------------------------------------------


def _exponents(rng, n, d):
    """Random symmetric rows, and rows with one nonzero eigenvalue (``tr e^S = e^s + d - 1``)."""
    g = rng.standard_normal((n, d, d))
    sym = (g + np.swapaxes(g, -1, -2)) / 2
    u = _unit_rows(rng, n, d)
    single = u[:, :, None] * u[:, None, :]
    return np.concatenate([sym / np.sqrt(sm._eig_frobenius_sq(sym))[:, None, None], single])


def _check_trace_exp(s, alpha):
    events = trace_exp_events(s, alpha)
    level = se.log_level(s.shape[-1], alpha)
    np.testing.assert_array_equal(events, ref_log_value(s) >= level)
    return events


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), alpha=st.sampled_from(ALPHAS))
def test_trace_exp_screen_matches_the_eigenvalue_rule(seed, d, alpha):
    rng = np.random.default_rng(seed)
    unit = _exponents(rng, 6, d)
    level = se.log_level(d, alpha)
    # scales that put the bound log d + ||S||_F, or the value itself, a few ulps from the level
    lam = np.linalg.eigvalsh(unit)[:, -1]
    room = level - math.log(d)
    edge = level * _edge(d) - math.log(d)
    for scale in (room, edge, room / np.maximum(lam, 1e-3), 0.5 * edge):
        rows = np.repeat(unit, len(ULPS), axis=0) * _near(np.broadcast_to(scale, len(unit)))[:, None, None]
        _check_trace_exp(rows, alpha)
    # a single eigenvalue s with e^s + d - 1 = d / alpha crosses with ||S||_F = s below the level
    s_cross = math.log(d / alpha - d + 1)
    rows = _near(np.linspace(s_cross, level, 5))[:, None, None] * unit[None, -1]
    _check_trace_exp(rows, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_trace_exp_screen_in_one_dimension(alpha):
    """At ``d = 1`` the value is ``s`` itself and the bound ``|s|``: the tightest case."""
    level = se.log_level(1, alpha)
    rows = _near([level, -level, 2 * level])[:, None, None]
    events = _check_trace_exp(rows, alpha)
    assert events[: len(ULPS)].tolist() == [k >= 0 for k in ULPS]


def test_trace_exp_screen_on_zero_tiny_huge_and_non_finite_rows():
    d = 2
    rows = np.zeros((7, d, d))
    rows[1] = 1e-170 * np.eye(d)
    rows[2] = 1e200 * np.eye(d)
    rows[3] = -1e200 * np.eye(d)
    rows[4, 0, 0] = np.nan
    rows[5, 1, 1] = np.inf
    rows[6] = np.diag([3.0, -3.0])
    with np.errstate(all="ignore"):
        for alpha in ALPHAS:
            level = se.log_level(d, alpha)
            for pick in ([0, 1, 2, 3, 6], [4], [5], slice(None)):
                r = rows[pick]
                assert_same(lambda: trace_exp_events(r, alpha), lambda: ref_log_value(r) >= level)
                assert_same(
                    lambda: trace_exp_events(r, alpha, np.eye(d)),
                    lambda: ref_hoeffding(r, np.eye(d)) >= level,
                )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), alpha=st.sampled_from(ALPHAS))
def test_hoeffding_screen_matches_the_eigenvalue_rule(seed, d, alpha):
    rng = np.random.default_rng(seed)
    unit = _exponents(rng, 6, d)
    h = rng.standard_normal((d, d))
    for b in (np.zeros((d, d)), h @ h.T, 1e-3 * h @ h.T):
        level = se.log_level(d, alpha)
        half = 0.5 * np.linalg.eigvalsh(b)[-1]
        lam = np.linalg.eigvalsh(unit)[:, -1]
        room = np.full(len(unit), level + half)
        for scale in (room, room * _edge(d), room / np.maximum(lam, 1e-3), 0.5 * room):
            rows = np.repeat(unit, len(ULPS), axis=0) * _near(scale)[:, None, None]
            events = trace_exp_events(rows, alpha, b)
            np.testing.assert_array_equal(events, ref_hoeffding(rows, b) >= level)


def test_trace_exp_lone_trial():
    s = np.diag([4.0, -1.0])
    for b in (None, np.eye(2)):
        proc = trace_exp_process(s, 0.05, b)
        got = proc.decide()
        ref = (ref_log_value(s) if b is None else ref_hoeffding(s, b)) >= se.log_level(2, 0.05)
        assert got == ref
        assert isinstance(proc.value, float)
    with pytest.raises(DomainError):
        trace_exp_process(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.05).decide()


@pytest.mark.parametrize("hoeffding", [False, True])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_log_value_on_a_row_subset_is_bitwise_the_full_one(d, hoeffding):
    rng = np.random.default_rng(d)
    s = _exponents(rng, 100, d) * rng.uniform(0.1, 30.0, (200, 1, 1))
    b = np.eye(d) if hoeffding else None
    proc = TraceExpProcess(np.zeros((d, d)), None if hoeffding else np.eye(d), 0.05, b)
    mat, half = sm.symmat_stack(s, trusted=True), None if b is None else np.full(200, 0.5)
    full = proc._values(mat, half)
    for rows in (rng.random(200) < 0.05, np.arange(200) == 3, np.ones(200, bool)):
        assert proc._values(mat[rows], None if b is None else half[rows]).tobytes() == full[rows].tobytes()
    if not hoeffding:
        assert full.tobytes() == se.log_trace_exp(s).tobytes()


# --- fixed-time thresholds t B ------------------------------------------------


def _pd(rng, d, cond):
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = np.geomspace(1.0, 1.0 / cond, d) if d > 1 else np.ones(1)
    return sm.symmat(q @ np.diag(w) @ q.T)


def _check_scaled(y, b, f):
    """Per-row scales at each row's statistic, at its norm bound and away from both."""
    d = b.shape[-1]
    lam_min = np.linalg.eigvalsh(b)[0]
    # the screen's floor for t B, and the scale at which a row is the last one settled
    beta = lam_min - sm.SCREEN_ULPS * d * EPS * np.sqrt(sm._eig_frobenius_sq(b))
    fy = y if f is None else sm.apply_spectral(f, y)
    stat = np.linalg.eigvalsh(fy)[:, -1] / lam_min
    norm = np.sqrt(sm._eig_frobenius_sq(y))
    t = [_near(stat), _near(norm / lam_min), _near(3.0 * norm / lam_min), _near(0.5 * stat)]
    if beta > 0:
        t.append(_near(norm / (beta * _edge(d))))
    t = np.concatenate(t)
    rows = np.repeat(np.concatenate([y] * (len(t) // (len(y) * len(ULPS)))), len(ULPS), axis=0)
    np.testing.assert_array_equal(sm.exceeds_scaled(rows, t, b, f), ref_exceeds_scaled(rows, t, b, f))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    cond=st.sampled_from([1.0, 10.0, 1e6, 1e13]),
    scale=st.sampled_from([1e-6, 1.0, 1e9]),
)
def test_scaled_threshold_screen_matches_the_eigenvalue_rule(seed, d, cond, scale):
    rng = np.random.default_rng(seed)
    b = _pd(rng, d, cond)
    g = rng.standard_normal((8, d, d))
    sym = scale * (g + np.swapaxes(g, -1, -2)) / 2
    u = _unit_rows(rng, 8, d)
    rank_one = scale * u[:, :, None] * u[:, None, :]
    for y in (sym, rank_one, sym @ sym / scale):
        for f in (None, np.abs):
            _check_scaled(y, b, f)


def test_scaled_threshold_zero_tiny_huge_non_finite_and_one_matrix():
    d = 3
    b = _pd(np.random.default_rng(0), d, 100.0)
    y = np.zeros((6, d, d))
    y[1] = 1e-170 * np.eye(d)
    y[2] = 1e200 * np.eye(d)
    y[3, 0, 0] = np.nan
    y[4, 1, 0] = y[4, 0, 1] = np.inf
    y[5] = 0.001 * np.eye(d)
    for f in (None, np.abs):
        good = y[[0, 1, 2, 5]]
        for t in (np.array([1.0, 0.0, -1.0, 1e300]), np.array([1.0, np.inf, np.nan, 2.0])):
            with np.errstate(all="ignore"):
                assert_same(
                    lambda: sm.exceeds_scaled(good, t, b, f), lambda: ref_exceeds_scaled(good, t, b, f)
                )
        # a non-finite row is crossed without reaching LAPACK or the validating rule
        got = sm.exceeds_scaled(y, np.ones(6), b, f)
        assert got[3] and got[4]
        np.testing.assert_array_equal(got, ref_exceeds_scaled(y, np.ones(6), b, f))
        # one matrix with a scalar scale is the plain call, a numpy.bool_
        for t in (0.001, 1.0):
            got = sm.exceeds_scaled(y[5], t, b, f)
            assert isinstance(got, np.bool_)
            assert got == sm.exceeds(y[5], t * b, f)
        # one matrix against one scale per trial broadcasts
        t = np.array([1e-4, 1.0])
        np.testing.assert_array_equal(sm.exceeds_scaled(y[5], t, b, f), ref_exceeds_scaled(y[5], t, b, f))


def test_singular_and_indefinite_b_settle_nothing():
    y = 1e-3 * np.eye(2)[None].repeat(4, axis=0)
    for b in (np.diag([1.0, 0.0]), np.diag([1.0, -1.0]), np.diag([1.0, 1e-16])):
        t = np.ones(4)
        np.testing.assert_array_equal(sm.exceeds_scaled(y, t, b), ref_exceeds_scaled(y, t, b))


FIXED = [
    ("ummi", lambda x, a, u: fb.ummi_event(x, a, u), None),
    ("chebyshev", lambda x, a, u: fb.chebyshev_event(x, np.zeros_like(a), a, u), np.abs),
    ("pcheb1", lambda x, a, u: fb.pcheb1_event(x, np.zeros_like(a), a, u, 1.5), np.abs),
]


@pytest.mark.parametrize("name,event,f", FIXED, ids=[c[0] for c in FIXED])
@pytest.mark.parametrize("cond", [1.0, 1e10])
def test_fixed_events_with_one_u_per_trial_match_per_trial_calls(name, event, f, cond):
    rng = np.random.default_rng(11)
    d = 3
    a = _pd(rng, d, cond)
    # draws shaped like A, so that u A orders some of them whatever its condition
    g = rng.standard_normal((300, d, d))
    w = g @ np.swapaxes(g, -1, -2) / d if f is None else (g + np.swapaxes(g, -1, -2)) / 2
    root = sm.mat_sqrt(a)
    x = sm.symmat_stack(root @ w @ root)
    u = rng.uniform(0.0, 1.0, 300) * np.exp(rng.uniform(-3, 3, 300))
    batched = event(x, a, u)
    assert batched.dtype == bool
    per_trial = [event(x[i], a, float(u[i])) for i in range(300)]
    assert batched.tolist() == per_trial
    assert 0 < sum(per_trial) < 300


# --- engagement -------------------------------------------------------------------


def test_factor_screen_forms_y_on_few_row_steps(monkeypatch):
    """On a null UMVI block at d = 5, ``Y`` is formed on under 5 % of (path, step) rows."""
    paths, horizon = 512, 100
    formed = []
    value = mg.MatSupermartingaleState.value

    def counting(self):
        formed.append(int(np.prod(self.left.shape[:-2])))
        return value(self)

    monkeypatch.setattr(mg.MatSupermartingaleState, "value", counting)
    gen = default_generator("UMVI_MGF", "RADEMACHER_SCALED", 5)
    rep = run_coverage("UMVI_MGF", gen, McConfig(trials=paths, horizon=horizon, base_seed=20240817))
    assert rep.verdict
    assert 0 < sum(formed) < 0.05 * paths * horizon
