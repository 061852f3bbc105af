"""The running-mean scans step one matrix entry at a time and stop where the matrix scan does.

``first_crossing(MeanScan(...), xs)`` sums each entry of the matrices in
its own step-major plane and forms matrices only for the rows that its
norm screen leaves.  These tests compare its stops, bit for bit, with a
reference that takes one observation of every trial at a time, sums the
whole matrices and tests each running mean with ``scan_exceeds``.  They
force the block length ``k`` to 1, 2, 7 and the horizon, on draws of
every scan's laws and on plain stacks: asymmetric ones, ones with an
infinite entry above the diagonal (which crosses, though ``eigvalsh``
never reads it) or a NaN, and ones whose running sums overflow.  The
screen's squared norm, added in another order than the matrix scan adds
it, stays within ``d^2`` ulps of it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matconc import martingales as mg
from matconc import processes as pr
from matconc import simulator as sim
from matconc import symmat as sm
from matconc.rng import substream

TRIALS, HORIZON = 20, 30
KS = [1, 2, 7, HORIZON]


def ref_stops(scan, xs):
    """Each trial's first step whose running mean ``scan_exceeds`` crosses, 0 if none."""
    stop = np.zeros(xs.shape[0], dtype=np.int64)
    total = 0.0
    with np.errstate(all="ignore"):
        for n in range(1, xs.shape[1] + 1):
            total = total + xs[:, n - 1]
            if n >= scan.n_start:
                crossed = mg.scan_exceeds(scan.kind, total / n, scan.m, scan.a, scan.p)
                stop[(stop == 0) & crossed] = n
    return stop


def blocked_stops(monkeypatch, k, make, xs):
    """``first_crossing`` of a fresh ``make()`` in blocks of ``k`` steps,
    raising on any warning; checks the blocks' lengths."""
    scan = make()
    monkeypatch.setattr(pr, "_MEAN_CHUNK_CELLS", k * xs.shape[0] * scan._step_cells(xs.shape[-1]))
    sizes, block = [], scan._block
    scan._block = lambda planes, gammas: sizes.append(len(planes)) or block(planes, gammas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stop = pr.first_crossing(scan, xs)
    assert all(n == k for n in sizes[:-1]) and 0 < sizes[-1] <= k
    return stop


#: (scan, generator kind, params): every scan on each law it is verified
#: against, at a target above the default so that trials cross at many steps
SCAN_LAWS = [
    (bound, kind, {"target": 1.5 if bound == "TRACE_PCHEB" else 3.0, **extra})
    for bound, extra in (
        ("DOOB", {"n": HORIZON}),
        ("XMCI", {"n_max": HORIZON}),
        ("XMCI2", {"n_max": HORIZON, "n_start": 4}),
        ("XMPCI", {"n_max": HORIZON}),
        ("TRACE_PCHEB", {"n_max": HORIZON}),
    )
    for kind in sim.compatible_generators(bound)
]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("bound,kind,params", SCAN_LAWS)
def test_scan_stops_match_the_matrix_scan_on_draws(bound, kind, params, d, k, monkeypatch):
    entry = sim._entry(bound)
    gen = sim.default_generator(bound, kind, d)
    plan = entry.prepare(params, gen, sim.McConfig(trials=TRIALS))
    draws = gen.draw(substream(808, entry.tag, d), TRIALS, HORIZON)
    stop = blocked_stops(monkeypatch, k, plan["process"], draws)
    want = ref_stops(plan["process"](), draws[:, :])
    assert stop.tobytes() == want.tobytes()
    # on draws and on the stack they stand for
    assert blocked_stops(monkeypatch, k, plan["process"], draws[:, :]).tobytes() == want.tobytes()


def _stack(d, seed=5, scale=0.6):
    """Asymmetric paths around 0.1 I: each matrix's upper triangle is not its lower's mirror."""
    rng = np.random.default_rng(seed)
    return 0.1 * np.eye(d) + scale * rng.standard_normal((TRIALS, HORIZON, d, d))


#: scans against levels a I, against a threshold matrix that is not a I
#: (no screen), and from a later start, their levels growing with d as the
#: norms of the paths do
SCANS = [
    lambda d: pr.MeanScan("DOOB", np.zeros((d, d)), 0.64 * d),
    lambda d: pr.MeanScan("XMCI", 0.1 * np.eye(d), 0.6 * np.sqrt(d) * np.eye(d)),
    lambda d: pr.MeanScan("XMCI", np.zeros((d, d)), np.sqrt(d) * np.diag(np.linspace(0.5, 0.75, d)) + 0.01),
    lambda d: pr.MeanScan("XMCI2", np.zeros((d, d)), 0.4 * np.sqrt(d), n_start=3),
    lambda d: pr.MeanScan("XMPCI", None, 0.5 * np.sqrt(d), 1.5),
    lambda d: pr.MeanScan("TRACE_PCHEB", np.zeros((d, d)), 0.8 * d, 1.2),
]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("make", range(len(SCANS)))
def test_an_asymmetric_stack_stops_where_the_matrix_scan_does(make, d, k, monkeypatch):
    xs = _stack(d)
    want = ref_stops(SCANS[make](d), xs)
    assert np.count_nonzero(want) and len(set(want.tolist())) > 1
    assert blocked_stops(monkeypatch, k, lambda: SCANS[make](d), xs).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("make", range(len(SCANS)))
def test_a_non_finite_entry_anywhere_crosses(make, k, monkeypatch):
    d = 3
    xs = _stack(d, scale=0.05)
    clean = ref_stops(SCANS[make](d), xs)
    bad = xs.copy()
    # above the diagonal, which eigvalsh never reads; on it; below it
    bad[0, 5, 0, 2] = np.inf
    bad[1, 9, 1, 1] = np.nan
    bad[2, 12, 2, 0] = -np.inf
    bad[3, HORIZON - 1, 0, 1] = np.nan
    want = ref_stops(SCANS[make](d), bad)
    # a non-finite running sum stays non-finite: the trial crosses at the
    # first step tested from there on, unless it crossed before
    for trial, step in ((0, 6), (1, 10), (2, 13), (3, HORIZON)):
        step = max(step, SCANS[make](d).n_start)
        assert want[trial] == (clean[trial] if 0 < clean[trial] < step else step)
    assert blocked_stops(monkeypatch, k, lambda: SCANS[make](d), bad).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("make", range(len(SCANS)))
def test_overflowing_running_sums_cross_without_a_warning(make, k, monkeypatch):
    """Steps of 1e308 overflow the running sums of some trials (to inf, and
    to NaN where they meet -inf): those trials cross, and nothing warns."""
    d = 2
    xs = _stack(d, scale=0.05)
    xs[:4, 10:] = 1e308
    xs[2, 14:, 1, 0] = -1e308
    xs[3, 14:, 0, 1] = -np.inf
    want = ref_stops(SCANS[make](d), xs)
    assert (want[:4] > 0).all()
    assert blocked_stops(monkeypatch, k, lambda: SCANS[make](d), xs).tobytes() == want.tobytes()


finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 6), data=st.data())
def test_the_entry_summed_norm_is_within_d2_ulps_of_the_matrix_norm(d, data):
    mats = np.array(data.draw(st.lists(st.lists(finite, min_size=d * d, max_size=d * d), min_size=1, max_size=4)))
    mats = mats.reshape(-1, d, d)
    rows, cols = pr._scan_entries(d, data.draw(st.booleans()))
    # planes (k = 1, entries, trials)
    planes = np.ascontiguousarray(mats[:, rows, cols].T)[None]
    got = pr._frobenius_sq(planes, d)[0]
    want = sm._eig_frobenius_sq(mats)
    f64 = np.finfo(float)
    assert np.all(np.abs(got - want) <= d * d * (f64.eps * want + f64.smallest_subnormal))
