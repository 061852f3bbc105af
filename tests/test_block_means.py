"""The mean of a fixed-time block: the running mean a scan reaches at step n.

``processes._step_means`` is a :class:`~matconc.processes.MeanScan` that
tests no step: each entry of the draws is summed in step order from
``0.0`` and divided by ``n``.  At d >= 2 that is ``np.mean`` over the built
stack bit for bit (numpy adds the steps of a ``(trials, n, d, d)`` stack
one after another).  At d = 1 the steps are numpy's contiguous axis,
which it sums pairwise, so there the reference is a step-order sum
divided by ``n``.
"""

import numpy as np
import pytest

from matconc import processes as pr
from matconc.generators import GENERATOR_KINDS
from matconc.rng import substream

from conftest import spec_of_kind


def _steps_per_block(trials, d):
    """Steps in one block of the scan (``processes._step_blocks``)."""
    return max(1, pr._MEAN_CHUNK_CELLS // (trials * pr.MeanScan(None, None, None)._step_cells(d)))


def _step_order_mean(stack):
    total = 0.0
    for j in range(stack.shape[1]):
        total = total + stack[:, j]
    return total / stack.shape[1]


def _assert_mean_of_stack(draws):
    stack = draws[:, :]
    got = pr._step_means(draws)
    assert got.shape == (stack.shape[0],) + stack.shape[2:]
    assert got.tobytes() == _step_order_mean(stack).tobytes()
    if stack.shape[-1] > 1:
        assert got.tobytes() == np.mean(stack, axis=1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 37, 100])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_step_means_are_step_order_means_of_the_stack_bit_for_bit(kind, d, n):
    # about n / 2 steps per block: two or three blocks of steps
    trials = 2 * (pr._MEAN_CHUNK_CELLS // (n * d)) + 1
    assert n < 37 or _steps_per_block(trials, d) < n
    _assert_mean_of_stack(spec_of_kind(kind, d).draw(substream(71, d * 1000 + n), trials, n))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_step_means_of_one_trial_keep_the_summation_order(kind, d):
    # one trial over two blocks of steps: its planes are one column
    n = _steps_per_block(1, d) + 1
    _assert_mean_of_stack(spec_of_kind(kind, d).draw(substream(72, d), 1, n))


@pytest.mark.parametrize("trials", [1, 2, 300])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_a_fixed_time_mean_is_the_scans_running_total_at_step_n(kind, d, trials):
    # step n opens the second block of steps
    n = _steps_per_block(trials, d) + 1
    draws = spec_of_kind(kind, d).draw(substream(74, d * 1000 + trials), trials, n)
    stack = draws[:, :]
    means = pr._step_means(draws)
    # the draws hand the lower triangle, a plain stack every entry: same bits
    assert means.tobytes() == pr._step_means(stack).tobytes()
    # a first entry of -0.0: both sums start from 0.0 + x, which makes it
    # 0.0 (test_the_sums_start_from_positive_zero)
    stack[0, 0, 0, 0] = -0.0
    # a scan that tests every step, stopped at n on paths three steps longer
    means = pr._step_means(stack)
    scan = pr.MeanScan("XMPCI", None, 1.0)
    pr.first_crossing(scan, np.concatenate([stack, stack[:, :3]], axis=1), taus=np.full(trials, n))
    assert scan.n == n
    rows, cols = pr._scan_entries(d, True)
    # the mean is the total divided by n (times n, a mean need not round
    # back to the total)
    want = scan.total / n
    assert np.moveaxis(means[:, rows, cols], 0, -1).tobytes() == want.tobytes()


def test_the_sums_start_from_positive_zero():
    # each total starts as 0.0 + x, and 0.0 + -0.0 is 0.0: a first entry
    # of -0.0 loses its sign, so a mean of -0.0 entries is 0.0 (numpy 2's
    # np.add.reduce starts from its identity 0.0 too, so np.mean agrees)
    for n in (1, 3):
        assert not np.signbit(pr._step_means(np.full((2, n, 2, 2), -0.0))).any()
