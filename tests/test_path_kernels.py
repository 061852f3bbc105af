"""Differential test: batched path kernels against the public per-sample API.

The coverage harness and ``power-compare`` run every sequential bound on
stacks of paths; ``matconc test`` and library users step one observation
at a time through the public functions.  Both must decide the same
events on the same draws.
"""

import math

import numpy as np
import pytest

from matconc import martingales as mg
from matconc import scalar_e as se
from matconc.rng import substream
from matconc.simulator import (
    McConfig,
    _entry,
    _path_events,
    default_generator,
    sequential_test_stops,
)

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
    if plan["rand_kind"] == "identity":
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
        return mg.mvi_event(history, a)
    u_mat = u * np.eye(d)
    if plan["shift_term"] is not None:
        u_mat = u_mat + plan["shift_term"] / plan["a_scalar"]
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


def _scan_event(plan, gen, path):
    kind, d = plan["kind"], gen.dim
    a = plan["a_scalar"] * np.eye(d)
    n_max = plan["horizon"]
    if kind == "DOOB":
        means = np.cumsum(path, axis=0) / np.arange(1, len(path) + 1)[:, None, None]
        return mg.doob_event([(xb - plan["m"]) @ (xb - plan["m"]) for xb in means], a)
    if kind == "XMCI":
        return mg.xmci_event(path, plan["m"], a, n_max)
    if kind == "XMCI2":
        return mg.xmci2_event(path, plan["m"], a, plan["n_start"], n_max)
    if kind == "XMPCI":
        return mg.xmpci_event(path, a, plan["p"], n_max)
    return mg.trace_pcheb_event(path, plan["m"], plan["a_scalar"], plan["p"], n_max)


@pytest.mark.parametrize("bound,params", CASES)
def test_batched_path_events_match_per_sample_api(bound, params):
    entry = _entry(bound)
    gen = default_generator(bound, entry.default_kind, 2)
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
            expected.append(_scan_event(plan, gen, xs[t]))
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
