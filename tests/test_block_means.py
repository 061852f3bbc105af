"""The mean of a fixed-time run: the running mean of a scan stopped at n.

A fixed-time plan runs a :class:`~matconc.processes.MeanScan` that tests
no step, stops it at ``tau = n`` and decides its bound on ``at_stop``,
``Xbar_n``: each entry of the draws summed in step order from ``0.0`` and
divided by ``n``.  At d >= 2 that is ``np.mean`` over the built stack bit
for bit (numpy adds the steps of a ``(trials, n, d, d)`` stack one after
another).  At d = 1 the steps are numpy's contiguous axis, which it sums
pairwise, so there the reference is a step-order sum divided by ``n``;
the public events on a mean take the harness's mean there too.
"""

import numpy as np
import pytest

from matconc import fixed_bounds as fb
from matconc import processes as pr
from matconc import simulator as sim
from matconc.generators import GENERATOR_KINDS
from matconc.rng import substream

from conftest import spec_of_kind


def _steps_per_block(trials, d):
    """Steps in one block of the scan (``processes.first_crossing``)."""
    return max(1, pr._MEAN_CHUNK_CELLS // (trials * pr.MeanScan()._step_cells(d)))


def _mean_at(xs, n):
    """``at_stop`` of a scan that tests no step, stopped at step ``n`` of ``xs``."""
    scan = pr.MeanScan()
    stop = pr.first_crossing(scan, xs, taus=np.full(xs.shape[0], n))
    assert (stop == n).all() and scan.n >= n
    return scan.at_stop


def _step_order_mean(stack):
    total = 0.0
    for j in range(stack.shape[1]):
        total = total + stack[:, j]
    return total / stack.shape[1]


def _assert_mean_of_stack(draws):
    stack = draws[:, :]
    got = _mean_at(draws, stack.shape[1])
    assert got.shape == (stack.shape[0],) + stack.shape[2:]
    assert got.tobytes() == _step_order_mean(stack).tobytes()
    if stack.shape[-1] > 1:
        assert got.tobytes() == np.mean(stack, axis=1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 37, 100])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_fixed_time_means_are_step_order_means_of_the_stack_bit_for_bit(kind, d, n):
    # about n / 2 steps per block: two or three blocks of steps
    trials = 2 * (pr._MEAN_CHUNK_CELLS // (n * d)) + 1
    assert n < 37 or _steps_per_block(trials, d) < n
    _assert_mean_of_stack(spec_of_kind(kind, d).draw(substream(71, d * 1000 + n), trials, n))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_fixed_time_means_of_one_trial_keep_the_summation_order(kind, d):
    # one trial over two blocks of steps: its planes are one column
    n = _steps_per_block(1, d) + 1
    _assert_mean_of_stack(spec_of_kind(kind, d).draw(substream(72, d), 1, n))


@pytest.mark.parametrize("trials", [1, 2, 300])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_a_fixed_time_mean_is_the_scans_running_mean_at_step_n(kind, d, trials):
    # step n opens the second block of steps
    n = _steps_per_block(trials, d) + 1
    draws = spec_of_kind(kind, d).draw(substream(74, d * 1000 + trials), trials, n)
    stack = draws[:, :]
    # the draws hand the lower triangle, a plain stack every entry: same bits
    assert _mean_at(draws, n).tobytes() == _mean_at(stack, n).tobytes()
    # a first entry of -0.0: both sums start from 0.0 + x, which makes it
    # 0.0 (test_the_sums_start_from_positive_zero)
    stack[0, 0, 0, 0] = -0.0
    means = _mean_at(stack, n)
    # with no stopping times, a scan that tests no step never stops and
    # keeps the mean of the last step
    scan = pr.MeanScan()
    assert not pr.first_crossing(scan, stack).any()
    assert scan.at_stop.tobytes() == means.tobytes()
    # a scan that tests every step, stopped at n on paths three steps longer
    scan = pr.MeanScan("XMPCI", None, 1.0)
    pr.first_crossing(scan, np.concatenate([stack, stack[:, :3]], axis=1), taus=np.full(trials, n))
    assert scan.n == n
    assert scan.at_stop.tobytes() == means.tobytes()
    # the mean is the total divided by n (times n, a mean need not round
    # back to the total)
    rows, cols = pr._scan_entries(d, True)
    assert np.moveaxis(means[:, rows, cols], 0, -1).tobytes() == (scan.total / n).tobytes()


def test_the_sums_start_from_positive_zero():
    # each total starts as 0.0 + x, and 0.0 + -0.0 is 0.0: a first entry
    # of -0.0 loses its sign, so a mean of -0.0 entries is 0.0 (numpy 2's
    # np.add.reduce starts from its identity 0.0 too, so np.mean agrees)
    for n in (1, 3):
        assert not np.signbit(_mean_at(np.full((2, n, 2, 2), -0.0), n)).any()


@pytest.mark.parametrize(
    "bound,kind,params,event",
    [
        ("UMCI_N", "RADEMACHER_SCALED", {"n": 100, "target": 1.5}, fb.chebyshev_n_event),
        ("CHERNOFF_HOEFFDING", "GAUSSIAN_SCALED", {"alpha0": 0.9}, fb.chernoff_hoeffding_event),
    ],
)
def test_the_events_on_a_mean_take_the_harness_mean_at_d1(bound, kind, params, event, monkeypatch):
    """The public events on the mean of ``n`` observations decide on the
    mean the harness forms, where ``np.mean`` would differ in last bits."""
    entry = sim._entry(bound)
    gen = sim.default_generator(bound, kind, 1)
    plan = entry.prepare(params, gen, sim.McConfig())
    trials, n = 400, plan["n_per"]
    draws = gen.draw(substream(75, entry.tag), trials, n)
    g_rand = substream(76, entry.tag)
    harness = sim._path_events(plan, draws, g_rand)
    proc = plan["process"]()
    pr.first_crossing(proc, draws, None, np.full(trials, n))
    stack = draws[:, :]
    assert (np.mean(stack, axis=1) != proc.at_stop).any()
    # the public event on the whole sample calls the mean-level form of the plan
    seen = []
    mean_level = plan["event"].func

    def recorded(xbar, *args, **kwargs):
        seen.append(np.array(xbar))
        return mean_level(xbar, *args, **kwargs)

    monkeypatch.setattr(fb, mean_level.__name__, recorded)
    us = plan["randomizer"].draw(substream(76, entry.tag), trials)
    assert event(stack, u=us, **plan["event"].keywords).tolist() == harness.tolist()
    assert seen[0].tobytes() == proc.at_stop.tobytes()
    assert 0 < np.count_nonzero(harness) < trials
