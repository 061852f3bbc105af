"""Report bytes are pinned: the default suite, the simulated sequential
tests, the running-mean scans and the stopping rules and randomizers
beside the defaults, at small sizes, reproduce stored fixtures.

Speed-ups of the simulator are meant to be exact, so every
``McReport.to_dict()`` of the default verification matrix must equal the
stored one field for field, floats bit for bit, and every stopping step
of ``sequential_test_stops`` (the paths of ``power-compare``) and of
``first_crossing(MeanScan(...))`` must equal the stored one.  The scans
run below their default thresholds, so that most trials cross, at
steps spread over the horizon: a report counts only whether a trial
crossed, and several default scan runs see no crossing at all.  The
default suite stops each randomized bound at its first crossing and
draws ``u I``; the route reports run fixed and geometric stopping times
and a shifted randomizer, at a level where many trials see the event.
A change that alters what a seed produces must say so
and regenerate the fixtures with

    PYTHONPATH=src python tests/test_report_identity.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

from matconc import simulator as sim
from matconc.processes import first_crossing, sequential_test_stops
from matconc.rng import substream
from matconc.simulator import default_generator, run_default_suite

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE = os.path.join(FIXTURES, "report_identity_seed101.json")
STOPS_FIXTURE = os.path.join(FIXTURES, "sequential_stops_seed101.json")
SCAN_FIXTURE = os.path.join(FIXTURES, "scan_stops_seed101.json")
ROUTE_FIXTURE = os.path.join(FIXTURES, "stopping_routes_seed101.json")
SIZES = {"dims": (1, 2, 5), "trials_fixed": 10000, "trials_path": 512, "horizon": 150}
SEED = 101

#: (generator kind, dim, mean shift): the null, a shift where some trials
#: reject and one where every trial does, so stops fall inside step blocks
STOP_CASES = [
    (kind, d, shift)
    for kind, d, mid in (
        ("GAUSSIAN_SCALED", 2, -0.15),
        ("GAUSSIAN_SCALED", 5, -0.2),
        ("IID_WISHART_LIKE", 2, -0.3),
    )
    for shift in (0.0, mid, -0.5)
]
STOP_TRIALS, STOP_HORIZON, STOP_ALPHA = 64, 200, 0.05

#: (scan, dim, params) on the scan's default generator: a target above
#: the default lowers the threshold, so most trials cross
SCAN_CASES = [
    (bound, d, {"target": 1.5 if bound == "TRACE_PCHEB" else 3.0, **extra})
    for bound, extra in (
        ("DOOB", {}),
        ("XMCI", {}),
        ("XMCI2", {"n_start": 10}),
        ("XMPCI", {}),
        ("TRACE_PCHEB", {}),
    )
    for d in (1, 2, 3, 5)
]
SCAN_TRIALS, SCAN_HORIZON = 128, 200


def _shift(d: int) -> list:
    """A PSD shift ``Y`` of the ``shifted`` randomizer at dimension ``d``."""
    return (0.1 * np.eye(d) + 0.05).tolist()


#: (bound, dim, params): stopping times other than the first crossing,
#: each stopping inside a block of steps, and the shifted randomizer
ROUTE_CASES = [
    (bound, d, params)
    for d in (1, 2, 5)
    for bound, params in (
        ("UMVI_MGF", {"alpha": 0.5, "stopping": {"kind": "fixed", "n": 7}}),
        ("UMVI_SYMMETRIC", {"alpha": 0.5, "stopping": {"kind": "fixed", "n": 7}}),
        ("URSN", {"alpha": 0.5, "stopping": {"kind": "geometric", "q": 0.1}}),
        ("UMVI_MGF", {"alpha": 0.5, "stopping": {"kind": "geometric", "q": 0.1}}),
        ("UMMI", {"randomizer": {"kind": "shifted", "y": _shift(d)}}),
        ("UMVI_BETTING", {"alpha": 0.5, "randomizer": {"kind": "shifted", "y": _shift(d)}}),
    )
]


def _reports() -> list[dict]:
    reports = run_default_suite(**SIZES, workers=1, base_seed=SEED)
    # through JSON, as the CLI writes them: tuples become lists
    return json.loads(json.dumps([r.to_dict() for r in reports]))


def _stops(kind: str, d: int, shift: float) -> dict:
    """``sequential_test_stops`` as ``power-compare`` calls it (gamma scale 0.5)."""
    gen = default_generator("URSN", kind, d)
    v = gen.variance()
    lam_v = max(math.sqrt(np.linalg.eigvalsh(v)[-1]), 1e-12)
    gammas = 0.5 / (lam_v * np.sqrt(np.arange(1, STOP_HORIZON + 1)))
    m0 = gen.mean() + shift * np.eye(d)
    stops = sequential_test_stops(gen, m0, v, gammas, STOP_ALPHA, STOP_TRIALS, SEED)
    return {rule: s.tolist() for rule, s in stops.items()}


def _all_stops() -> list[dict]:
    return [
        {"generator": kind, "dim": d, "shift": shift, "stops": _stops(kind, d, shift)}
        for kind, d, shift in STOP_CASES
    ]


def _scan_stops(bound: str, d: int, params: dict) -> list[int]:
    """Each trial's stop of the scan on draws of its default generator."""
    entry = sim._entry(bound)
    gen = default_generator(bound, entry.compatible[0], d)
    horizon = {"n" if bound == "DOOB" else "n_max": SCAN_HORIZON}
    plan = entry.prepare({**params, **horizon}, gen, sim.McConfig(trials=SCAN_TRIALS))
    draws = gen.draw(substream(SEED, entry.tag, d), SCAN_TRIALS, SCAN_HORIZON)
    return first_crossing(plan["process"](), draws).tolist()


def _all_scan_stops() -> list[dict]:
    return [
        {"bound": bound, "dim": d, "params": params, "stops": _scan_stops(bound, d, params)}
        for bound, d, params in SCAN_CASES
    ]


def _route_report(bound: str, d: int, params: dict) -> dict:
    """The report of one route case on the bound's default generator."""
    entry = sim._entry(bound)
    gen = default_generator(bound, entry.compatible[0], d)
    trials = SIZES["trials_fixed" if entry.family == "fixed" else "trials_path"]
    mc = sim.McConfig(trials=trials, horizon=SIZES["horizon"], base_seed=SEED)
    return json.loads(json.dumps(sim.run_coverage(bound, gen, mc, params).to_dict()))


def _all_route_reports() -> list[dict]:
    return [
        {"bound": bound, "dim": d, "params": params, "report": _route_report(bound, d, params)}
        for bound, d, params in ROUTE_CASES
    ]


def test_default_suite_reports_match_fixture():
    with open(FIXTURE) as fh:
        expected = json.load(fh)
    got = _reports()
    assert len(got) == len(expected)
    for rep, exp in zip(got, expected):
        assert rep == exp, rep["name"]


@pytest.mark.parametrize("case", range(len(STOP_CASES)))
def test_sequential_test_stops_match_fixture(case):
    with open(STOPS_FIXTURE) as fh:
        expected = json.load(fh)[case]
    kind, d, shift = STOP_CASES[case]
    assert (expected["generator"], expected["dim"], expected["shift"]) == (kind, d, shift)
    assert _stops(kind, d, shift) == expected["stops"]


@pytest.mark.parametrize("case", range(len(SCAN_CASES)))
def test_scan_stops_match_fixture(case):
    with open(SCAN_FIXTURE) as fh:
        expected = json.load(fh)[case]
    bound, d, params = SCAN_CASES[case]
    assert (expected["bound"], expected["dim"], expected["params"]) == (bound, d, params)
    stops = _scan_stops(bound, d, params)
    assert stops == expected["stops"]
    # the fixture pins crossings at several steps, not only trials that never cross
    assert len(set(stops) - {0}) > 1


@pytest.mark.parametrize("case", range(len(ROUTE_CASES)))
def test_stopping_and_randomizer_routes_match_fixture(case):
    with open(ROUTE_FIXTURE) as fh:
        expected = json.load(fh)[case]
    bound, d, params = ROUTE_CASES[case]
    assert (expected["bound"], expected["dim"], expected["params"]) == (bound, d, params)
    report = _route_report(bound, d, params)
    assert report == expected["report"]
    # a report that saw no event would pin nothing of the decision at the stop
    assert report["event_freq"] > 0


if __name__ == "__main__":
    fixtures = (
        (FIXTURE, _reports),
        (STOPS_FIXTURE, _all_stops),
        (SCAN_FIXTURE, _all_scan_stops),
        (ROUTE_FIXTURE, _all_route_reports),
    )
    for path, make in fixtures:
        with open(path, "w") as fh:
            json.dump(make(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    sys.exit(0)
