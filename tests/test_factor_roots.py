"""The square roots of the factor step without LAPACK at d <= 2.

``symmat.factor_exp`` and ``symmat.factor_sqrt`` are elementwise at
``d = 1``, where they must equal the ``eigh`` route (``mat_exp`` and
``mat_sqrt`` with ``trusted=True``) bit for bit, and a closed-form
eigenpair at ``d = 2``, where they must agree with it to a few ulps of
the conditioning of the map, and raise the same DomainErrors.  The
factor process must keep the symmetric root: ``Y_n`` is pinned against a
product of ``eigh``-built square roots of the full factors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matconc import martingales as mg
from matconc import symmat as sm
from matconc.errors import DomainError
from matconc.fixed_bounds import MgfSpec
from matconc.processes import FactorProcess

EPS = np.finfo(np.float64).eps

#: Agreement with the eigh route at d = 2, in units of the map's conditioning.
ULPS = 8.0


def eigh_exp(a):
    return sm.mat_exp(a, trusted=True)


def eigh_sqrt(a):
    return sm.mat_sqrt(a, trusted=True)


def outcome(fn, a):
    """``fn(a)``, or the DomainError message it raised."""
    try:
        return fn(a)
    except DomainError as exc:
        return str(exc)


def assert_same_bits(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def fro(x):
    """Frobenius norm, scaled so that squares of huge entries do not overflow."""
    top = np.abs(x).max()
    return 0.0 if top == 0.0 else top * np.linalg.norm(x / top)


def rotated(lo, hi, theta):
    """The 2 x 2 symmetric matrix with eigenvalues ``lo, hi`` (top eigenvector at ``theta``)."""
    c, s = np.cos(theta), np.sin(theta)
    q = np.array([[c, -s], [s, c]])
    return (q * np.array([hi, lo])) @ q.T


def exp_tol(a):
    """A few ulps times ``max(1, max |lambda|)`` of the norm of ``exp(a)``."""
    w = np.linalg.eigvalsh(a)
    return ULPS * EPS * max(1.0, np.abs(w).max()) * fro(eigh_exp(a))


def sqrt_tol(a):
    """A few ulps of the square root's conditioning: an eigenvalue error
    ``e = eps ||a||`` moves ``sqrt(a)`` by ``e / sqrt(lambda_min)``, and by at
    most ``sqrt(e)`` when ``lambda_min`` is near 0."""
    w = np.linalg.eigvalsh(a)
    e = EPS * np.abs(w).max() + np.finfo(np.float64).tiny
    return ULPS * e / np.sqrt(max(w[0], e))


magnitudes = st.floats(-290.0, 150.0).map(lambda k: 10.0**k)
entries = st.floats(-1.0, 1.0)


@st.composite
def symmetric_2x2(draw, scale=magnitudes):
    """A 2 x 2 symmetric matrix of any norm, with the special shapes:
    ``b = 0``, ``a = c``, nearly repeated eigenvalues and the zero matrix."""
    k = draw(scale)
    a, b, c = (k * draw(entries) for _ in range(3))
    shape = draw(st.sampled_from(["any", "diagonal", "equal_diagonal", "near_repeated", "zero"]))
    if shape == "diagonal":
        b = 0.0
    elif shape == "equal_diagonal":
        c = a
    elif shape == "near_repeated":
        c = a * (1.0 + draw(st.floats(-1e-12, 1e-12)))
        b = k * draw(st.floats(-1e-13, 1e-13))
    elif shape == "zero":
        a = b = c = 0.0
    return np.array([[a, b], [b, c]])


# ---------------------------------------------------------------------------
# d = 1: bitwise


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
def test_d1_roots_equal_the_eigh_route_bitwise(x):
    a = np.array([[x]])
    stack = np.array([[[x]], [[-x]], [[x / 3.0]]])
    with np.errstate(over="ignore"):
        for ours, theirs in ((sm.factor_exp, eigh_exp), (sm.factor_sqrt, eigh_sqrt)):
            assert_same_bits(outcome(ours, a), outcome(theirs, a))
            assert_same_bits(outcome(ours, stack), outcome(theirs, stack))


@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 709.78, 709.79, 709.7, 708.0, -745.2, -746.0, 1e308, -1e-9, -1e-7],
)
def test_d1_edge_values_equal_the_eigh_route_bitwise(x):
    a = np.full((4, 1, 1), x)
    with np.errstate(over="ignore"):
        for ours, theirs in ((sm.factor_exp, eigh_exp), (sm.factor_sqrt, eigh_sqrt)):
            assert_same_bits(outcome(ours, a), outcome(theirs, a))


# ---------------------------------------------------------------------------
# d = 2: within rounding of the eigh route


@settings(max_examples=400, deadline=None)
@given(symmetric_2x2(scale=st.floats(-290.0, 2.5).map(lambda k: 10.0**k)))
def test_d2_exp_agrees_with_the_eigh_route(a):
    assume(np.abs(np.linalg.eigvalsh(a)).max() < 700.0)
    got = sm.factor_exp(a)
    assert np.array_equal(got, got.T)
    assert fro(got - eigh_exp(a)) <= exp_tol(a)


@settings(max_examples=400, deadline=None)
@given(
    k=magnitudes,
    lo=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-20.0, 0.0).map(lambda e: 10.0**e)),
    hi=st.floats(0.0, 1.0),
    theta=st.floats(0.0, np.pi),
)
def test_d2_sqrt_agrees_with_the_eigh_route(k, lo, hi, theta):
    a = k * rotated(lo, hi, theta)
    if min(np.linalg.eigvalsh(a)) < -0.5 * sm.TOL_PSD * max(1.0, np.abs(a).max()):
        return  # the rotation's rounding left a PSD-boundary case; covered below
    got = sm.factor_sqrt(a)
    assert np.array_equal(got, got.T)
    assert fro(got - eigh_sqrt(a)) <= sqrt_tol(a)


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(0.01, 2.0),
    t=st.one_of(st.just(0.0), st.floats(-30.0, -1.0).map(lambda e: 10.0**e)),
    mu=st.floats(0.0, 3.0),
    theta=st.floats(0.0, np.pi),
)
def test_d2_sqrt_of_nearly_singular_betting_factor(gamma, t, mu, theta):
    # I + gamma dev with lambda_min = t: dev has eigenvalues (t - 1)/gamma and mu
    dev = rotated((t - 1.0) / gamma, mu, theta)
    e = np.eye(2) + gamma * dev
    got = sm.factor_sqrt(e)
    assert fro(got - eigh_sqrt(e)) <= sqrt_tol(e)


@settings(max_examples=100, deadline=None)
@given(st.lists(symmetric_2x2(scale=st.floats(-12.0, 2.0).map(lambda k: 10.0**k)), min_size=1, max_size=6))
def test_d2_single_frames_are_rows_of_the_stack(mats):
    stack = np.stack(mats)
    got = sm.factor_exp(stack)
    for i, a in enumerate(mats):
        assert np.array_equal(sm.factor_exp(a), got[i])
    psd = stack @ stack
    got = sm.factor_sqrt(psd)
    for i in range(len(mats)):
        assert np.array_equal(sm.factor_sqrt(psd[i]), got[i])


def test_d2_special_matrices():
    for a in (np.zeros((2, 2)), np.eye(2), np.diag([3.0, 1.0]), np.diag([1.0, 3.0]),
              np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[0.0, 1e-300], [1e-300, 0.0]])):
        assert fro(sm.factor_exp(a) - eigh_exp(a)) <= exp_tol(a)
        psd = a @ a
        assert fro(sm.factor_sqrt(psd) - eigh_sqrt(psd)) <= sqrt_tol(psd)
    assert np.array_equal(sm.factor_exp(np.zeros((2, 2))), np.eye(2))
    assert np.array_equal(sm.factor_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.array_equal(sm.factor_sqrt(np.diag([9.0, 4.0])), np.diag([3.0, 2.0]))


@pytest.mark.parametrize("eps", [2.0**-3, 2.0**-20, 2.0**-30, 2.0**-60])
def test_d2_small_projector_entry_keeps_its_relative_accuracy(eps):
    # a = -800 (I - P), P the projector on (1, eps): exp(a) = P + e^-800 (I - P),
    # and e^-800 underflows, so the result is P, whose entry eps^2 / (1 + eps^2)
    # a cancelling form (1 minus the large entry) would round to 0
    q = 1.0 / (1.0 + eps**2)
    a = -800.0 * np.array([[eps**2 * q, -eps * q], [-eps * q, q]])
    got = sm.factor_exp(a)
    assert got[1, 1] == pytest.approx(eps**2 * q, rel=1e-12, abs=0.0)
    assert got[0, 1] == pytest.approx(eps * q, rel=1e-12, abs=0.0)


def test_d2_reads_the_symmetrized_off_diagonal():
    a = np.array([[0.3, 0.1], [0.3, -0.2]])
    sym = (a + a.T) / 2.0
    assert np.array_equal(sm.factor_exp(a), sm.factor_exp(sym))
    assert fro(sm.factor_exp(a) - eigh_exp(a)) <= exp_tol(sym)


# ---------------------------------------------------------------------------
# the same DomainErrors


@pytest.mark.parametrize(
    "bad, ok",
    [
        (np.array([[-1e-6]]), np.array([[-1e-9]])),
        (np.diag([-1e-6, 1.0]), np.diag([-1e-10, 1.0])),
        (np.diag([-1.0, 1e6]), np.diag([-1e-4, 1e6])),  # the slack scales with max |lambda|
        (rotated(-1e-4, 2.0, 0.4), rotated(-1e-9, 2.0, 0.4)),
    ],
)
def test_roots_raise_below_the_psd_tolerance(bad, ok):
    d = bad.shape[-1]
    for a in (bad, np.stack([np.eye(d), bad])):
        with pytest.raises(DomainError, match="not positive semidefinite") as ours:
            sm.factor_sqrt(a)
        with pytest.raises(DomainError, match="not positive semidefinite") as theirs:
            eigh_sqrt(a)
        if d == 1:
            assert str(ours.value) == str(theirs.value)
    # clamped, not raised, inside the tolerance
    assert fro(sm.factor_sqrt(ok) - eigh_sqrt(ok)) <= sqrt_tol(ok)


@pytest.mark.parametrize("d", [1, 2])
def test_exp_raises_on_overflow(d):
    big = np.full((d, d), 400.0)  # top eigenvalue 400 d
    if d == 1:
        big = np.array([[710.0]])
    stack = np.stack([np.zeros((d, d)), big])
    with np.errstate(over="ignore"):
        for a in (big, stack):
            for fn in (sm.factor_exp, eigh_exp):
                with pytest.raises(DomainError, match="spectral map produced non-finite values"):
                    fn(a)
        # just below the edge both stay finite
        edge = rotated(-3.0, 709.0, 0.7) if d == 2 else np.array([[709.0]])
        assert np.isfinite(sm.factor_exp(edge)).all()
        assert fro(sm.factor_exp(edge) - eigh_exp(edge)) <= exp_tol(edge)


def test_d3_keeps_the_eigh_route_bitwise():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((50, 3, 3))
    a = raw + np.swapaxes(raw, -1, -2)
    assert np.array_equal(sm.factor_exp(a), eigh_exp(a))
    psd = a @ a
    assert np.array_equal(sm.factor_sqrt(psd), eigh_sqrt(psd))


# ---------------------------------------------------------------------------
# the factor process keeps the symmetric root


def _noncommuting_path(steps, trials, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((steps, trials, 2, 2))
    return 0.25 * (raw + np.swapaxes(raw, -1, -2))


def _reference_root(builder, dev, gamma, mgf, v):
    """``(A^{1/2}, E^{1/2})`` of one step: ``eigh`` square roots of the full factors."""
    e, a = mg.build_factors(builder, dev, np.zeros((2, 2)), gamma, mgf=mgf, v=v, b=4.0 * np.eye(2))
    return sm.mat_sqrt(a), sm.mat_sqrt(e)


@pytest.mark.parametrize("builder", ["BETTING", "SELF_NORMALIZED", "SYMMETRIC_DIST", "MGF"])
def test_factor_process_is_the_symmetric_root_product(builder):
    steps, trials = 4, 64
    devs = _noncommuting_path(steps, trials, seed=7)
    if builder == "BETTING":
        devs = np.clip(devs, -0.9, 0.9) / 2.0  # keeps I + gamma dev positive definite
    v = np.array([[0.3, 0.1], [0.1, 0.2]])
    mgf = MgfSpec("RADEMACHER", np.array([[0.5, 0.2], [0.2, 0.4]]))
    params = {"v": v} if builder == "SELF_NORMALIZED" else {"mgf": mgf} if builder == "MGF" else {}
    proc = FactorProcess(builder, np.zeros((2, 2)), 1e9, **params)
    left = np.broadcast_to(np.eye(2), (trials, 2, 2))
    chol = left
    for n in range(steps):
        gamma = 0.8 / np.sqrt(n + 1.0)
        proc.step(devs[n], gamma)
        sqrt_a, sqrt_e = _reference_root(builder, devs[n], gamma, mgf, v)
        left = left @ (sqrt_a @ sqrt_e)
        e, a = mg.build_factors(builder, devs[n], np.zeros((2, 2)), gamma, mgf=mgf, v=v, b=4.0 * np.eye(2))
        chol = chol @ (sm.mat_sqrt(a) @ np.linalg.cholesky(e))
        want = left @ np.swapaxes(left, -1, -2)
        got = proc.state.value()
        scale = np.linalg.norm(want, axis=(-2, -1))
        assert (np.abs(got - want).max(axis=(-2, -1)) <= 64 * EPS * scale).all()
    # a non-symmetric factor gives another process on this data
    other = chol @ np.swapaxes(chol, -1, -2)
    assert np.abs(other - want).max() > 1e-4 * np.abs(want).max()
