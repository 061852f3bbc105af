"""Differential test: batched kernels against the public per-sample API.

The coverage harness and ``power-compare`` run every sequential bound on
stacks of paths through :mod:`matconc.processes`.  Here each trial is
stepped one observation at a time through the validated per-sample
functions (``build_factors``, ``MatSupermartingaleState.step``,
``sn_process_step``, the decision rules), and the running-mean scans are
formed by ``np.cumsum`` and tested by ``scan_exceeds``: both must decide
the same events on the same draws.  The fixed-time bounds run the public
``fixed_bounds`` events on a whole block of trials, with the randomizer
``u I`` given as one scalar per trial; called one trial at a time with
the matrix ``U``, the same events must count the same hits.
"""

import math

import numpy as np
import pytest

from matconc import fixed_bounds as fb
from matconc import martingales as mg
from matconc import scalar_e as se
from matconc import symmat as sm
from matconc.processes import sequential_test_stops
from matconc.rng import spawn_pair, substream
from matconc.simulator import McConfig, _entry, _fixed_block, _path_events, default_generator

TRIALS = 48

CASES = [
    ("UMVI_MGF", None),
    ("UMVI_MGF", {"alpha": 0.5, "stopping": {"kind": "geometric", "q": 0.1}}),
    ("UMVI_BETTING", {"alpha": 0.5}),
    ("UMVI_SELF_NORMALIZED", {"alpha": 0.5}),
    ("UMVI_SELF_NORMALIZED", {"alpha": 0.5, "randomizer": {"kind": "shifted", "y": [[0.2, 0.1], [0.1, 0.3]]}}),
    ("UMVI_SYMMETRIC", {"alpha": 0.5, "stopping": {"kind": "fixed", "n": 7}}),
    ("MVI", {"alpha": 0.9, "gamma_scale": 0.8}),
    ("DOOB", {"n": 25, "target": 0.9}),
    ("XMCI", {"n_max": 25, "target": 0.9}),
    ("XMCI2", {"n_max": 25, "n_start": 4, "target": 0.9}),
    ("XMPCI", {"n_max": 25, "target": 0.9}),
    ("TRACE_PCHEB", {"n_max": 25, "target": 0.9}),
    ("URSN", {"alpha": 0.5}),
    ("URSN", {"alpha": 0.5, "stopping": {"kind": "geometric", "q": 0.1}}),
    ("USMHI", {"alpha": 0.5}),
]


def _draws(plan, g_rand, horizon):
    """Stopping times and randomizer draws, in the harness's order."""
    stopping = plan.get("stopping", {"kind": "first_crossing"})
    taus = None
    if stopping["kind"] == "geometric":
        taus = np.minimum(g_rand.geometric(stopping["q"], TRIALS), horizon)
    elif stopping["kind"] == "fixed":
        taus = np.full(TRIALS, stopping["n"])
    if plan["randomizer"].kind == "identity":
        us = np.ones(TRIALS)
    else:
        us = 1.0 - g_rand.random(TRIALS)
    return taus, us


def _umvi_event(plan, gen, path, tau, u):
    d = gen.dim
    a = plan["a_scalar"] * np.eye(d)
    kwargs = {}
    if plan["builder"] == "MGF":
        kwargs["mgf"] = plan["mgf"]
    elif plan["builder"] == "BETTING":
        kwargs["b"] = gen.betting_upper()
    elif plan["builder"] == "SELF_NORMALIZED":
        kwargs["v"] = plan["v"]
    state = mg.MatSupermartingaleState.start(d)
    history = []
    for n, x in enumerate(path, start=1):
        e, a_fac = mg.build_factors(plan["builder"], x, plan["m"], plan["gammas"][n - 1], **kwargs)
        state = state.step(e, a_fac)
        history.append(state.value())
        if plan["kind"] == "UMVI" and (n == tau if tau is not None else se.matrix_test_decide(history[-1], a)):
            break
    if plan["kind"] == "MVI":
        return bool(mg.exceeds(np.stack(history), a).any())
    u_mat = u * np.eye(d)
    if plan["randomizer"].y is not None:
        u_mat = u_mat + plan["randomizer"].y
    return mg.ville_event(history[-1], a, u_mat)


def _trace_exp_event(plan, gen, path, tau, u):
    alpha = plan["alpha"]
    state = se.TraceExpState.start(gen.dim)
    b = plan["b"]
    # the Hoeffding e-process is the self-normalized one with V = B
    v = plan["v"] if b is None else b

    def rejects(state, u):
        if b is None:
            return se.ursn_event(state, alpha, u)
        thr = se.usmhi_threshold_from_state(state, alpha, u)
        return se.usmhi_event(state.weighted_dev_mean(), thr)

    for n, x in enumerate(path, start=1):
        state = se.sn_process_step(state, x, plan["m"], v, plan["gammas"][n - 1], b=b)
        if n == tau if tau is not None else rejects(state, 1.0):
            break
    return rejects(state, u)


def _running_mean_event(plan, gen, path):
    """Whether the running means of ``path`` cross from ``n_start`` on."""
    kind = plan["kind"]
    a = plan["a_scalar"] if kind == "TRACE_PCHEB" else plan["a_scalar"] * np.eye(gen.dim)
    means = np.cumsum(path, axis=0) / np.arange(1, len(path) + 1)[:, None, None]
    if kind == "DOOB":
        devs = [(xb - plan["m"]) @ (xb - plan["m"]) for xb in means]
        return bool(mg.exceeds(np.stack(devs), a).any())
    means = sm.symmat_stack(means)[plan.get("n_start", 1) - 1 :]
    return bool(mg.scan_exceeds(kind, means, plan.get("m"), a, plan.get("p")).any())


@pytest.mark.parametrize("bound,params", CASES)
def test_batched_path_events_match_per_sample_api(bound, params):
    entry = _entry(bound)
    gen = default_generator(bound, entry.compatible[0], 2)
    plan = entry.prepare(params, gen, McConfig(trials=TRIALS, horizon=30))
    horizon = plan["horizon"]
    xs = gen.sample_batch(substream(4242, entry.tag, 0), TRIALS, horizon)
    batched = _path_events(plan, xs, substream(4242, entry.tag, 1))
    taus, us = _draws(plan, substream(4242, entry.tag, 1), horizon)
    expected = []
    for t in range(TRIALS):
        tau = None if taus is None else taus[t]
        if plan["kind"] in ("UMVI", "MVI"):
            expected.append(_umvi_event(plan, gen, xs[t], tau, us[t]))
        elif plan["kind"] in ("URSN", "USMHI"):
            expected.append(_trace_exp_event(plan, gen, xs[t], tau, us[t]))
        else:
            expected.append(_running_mean_event(plan, gen, xs[t]))
    assert batched.tolist() == expected
    # the comparison must see both outcomes to mean anything
    if params is not None:
        assert 0 < sum(expected) < TRIALS


def test_power_compare_stops_match_per_sample_api():
    gen = default_generator("URSN", "GAUSSIAN_SCALED", 2)
    d, alpha, horizon, seed = gen.dim, 0.05, 40, 11
    m0 = gen.mean() - 0.3 * np.eye(d)
    v = gen.variance()
    gammas = 0.5 / (math.sqrt(np.linalg.eigvalsh(v)[-1]) * np.sqrt(np.arange(1, horizon + 1)))
    stops = sequential_test_stops(gen, m0, v, gammas, alpha, TRIALS, seed)
    a_thresh = (d / alpha) * np.eye(d)
    for t in range(TRIALS):
        xs = gen.sample_path(substream(seed, 0xC0DE, t), horizon)
        state_m = mg.MatSupermartingaleState.start(d)
        state_s = se.TraceExpState.start(d)
        stop_m = stop_s = 0
        for n, x in enumerate(xs, start=1):
            if not stop_m:
                e, a = mg.build_factors("SELF_NORMALIZED", x, m0, gammas[n - 1], v=v)
                state_m = state_m.step(e, a)
                if se.matrix_test_decide(state_m.value(), a_thresh):
                    stop_m = n
            if not stop_s:
                state_s = se.sn_process_step(state_s, x, m0, v, gammas[n - 1])
                if se.ursn_event(state_s, alpha, 1.0):
                    stop_s = n
        assert (stops["matrix"][t], stops["scalar"][t]) == (stop_m, stop_s)
    assert 0 < np.count_nonzero(stops["matrix"]) < TRIALS
    assert 0 < np.count_nonzero(stops["scalar"]) <= TRIALS


FIXED_CASES = [
    ("UMMI", "ELLIPSOID_RANK1", fb.ummi_event, None),
    ("UMMI", "HEAVY_PSD", fb.ummi_event, {"target": 1.5}),
    ("UMCI1", "GAUSSIAN_SCALED", fb.chebyshev_n_event, {"target": 1.5}),
    ("UMCI_N", "RADEMACHER_SCALED", fb.chebyshev_n_event, {"n": 5, "target": 1.5}),
    ("PCHEB1", "SYMMETRIC_HEAVY", fb.pcheb1_event, {"target": 1.5}),
    ("CHERNOFF1", "RADEMACHER_SCALED", fb.chernoff1_event, {"target": 1.5}),
    ("CHERNOFF_HOEFFDING", "RADEMACHER_SCALED", fb.chernoff_hoeffding_event, {"alpha0": 0.9}),
]
RANDOMIZERS = [
    "identity",
    "scaled_identity",
    {"kind": "shifted", "y": [[0.2, 0.1], [0.1, 0.3]]},
]
#: events on the average of n observations take the whole sample
AVERAGED = (fb.chebyshev_n_event, fb.chernoff_hoeffding_event)


@pytest.mark.parametrize("randomizer", RANDOMIZERS, ids=["identity", "scaled", "shifted"])
@pytest.mark.parametrize("bound,kind,event,params", FIXED_CASES)
def test_fixed_block_counts_match_per_trial_events(bound, kind, event, params, randomizer):
    entry = _entry(bound)
    gen = default_generator(bound, kind, 2)
    plan = entry.prepare({**(params or {}), "randomizer": randomizer}, gen, McConfig())
    assert plan["event"].func is event
    seed, block_idx = 4242, 3
    count = _fixed_block(plan, gen, TRIALS, seed, entry.tag, block_idx)
    g_data, g_rand = spawn_pair(seed, entry.tag, block_idx)
    xs = gen.sample_batch(g_data, TRIALS, plan["n_per"])
    us = np.ones(TRIALS) if randomizer == "identity" else 1.0 - g_rand.random(TRIALS)
    shift = np.zeros((2, 2)) if plan["randomizer"].y is None else plan["randomizer"].y
    hits = []
    for t in range(TRIALS):
        x = xs[t] if event in AVERAGED else xs[t, 0]
        hit = event(x, u=us[t] * np.eye(2) + shift, **plan["event"].keywords)
        assert type(hit) is bool
        hits.append(hit)
    assert count == sum(hits)
    # the comparison must see both outcomes to mean anything; on its
    # ellipsoid the rank-one draw never exceeds A at u = 1 (equality case)
    if not (kind == "ELLIPSOID_RANK1" and randomizer == "identity"):
        assert 0 < count < TRIALS


@pytest.mark.parametrize("bound,kind,event,params", FIXED_CASES)
def test_scalar_randomizer_is_u_times_identity(bound, kind, event, params):
    gen = default_generator(bound, kind, 2)
    plan = _entry(bound).prepare(params, gen, McConfig())
    xs = gen.sample_batch(substream(4243, 0), 16, plan["n_per"])
    for x, u in zip(xs, np.linspace(0.05, 1.0, 16)):
        x = x if event in AVERAGED else x[0]
        at_scalar = event(x, u=float(u), **plan["event"].keywords)
        assert type(at_scalar) is bool
        assert at_scalar == event(x, u=u * np.eye(2), **plan["event"].keywords)


def test_chernoff_events_true_at_zero_randomizer():
    x = np.diag([-5.0, -5.0])
    a = np.eye(2)
    for u in (0.0, np.zeros((2, 2))):
        assert fb.chernoff1_event(x, a, u, 0.5) is True
        assert fb.chernoff_hoeffding_event(x[None], np.zeros((2, 2)), 1.0, 1.0, u) is True
