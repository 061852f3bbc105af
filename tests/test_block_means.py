"""The mean of a fixed-time block, summed one matrix entry at a time.

``simulator._block_means`` must give the bytes of ``np.mean`` over the
built stack: step order for d >= 2 (numpy adds the steps of a
``(trials, n, d, d)`` stack one after another), numpy's pairwise sum at
d = 1 (the steps are then its contiguous axis).  Each plane it sums must
be the matching entry of the built stack.
"""

import numpy as np
import pytest

from matconc import processes as pr
from matconc import simulator as sim
from matconc.generators import GENERATOR_KINDS
from matconc.rng import substream

from conftest import spec_of_kind


def _rows(n, d):
    """Trials in one chunk of ``_block_means``."""
    return max(1, pr._MEAN_CHUNK_CELLS // (n * d))


def _assert_mean_of_stack(draws):
    want = np.mean(draws[:, :], axis=1)
    got = sim._block_means(draws)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 37, 100])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_block_means_are_numpy_means_of_the_stack_bit_for_bit(kind, d, n):
    # two full chunks and a last chunk of one trial
    trials = 2 * _rows(n, d) + 1
    _assert_mean_of_stack(spec_of_kind(kind, d).draw(substream(71, d * 1000 + n), trials, n))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_block_means_of_one_trial_chunks_keep_the_summation_order(kind, d):
    # n above the chunk budget: every chunk holds one trial, whose steps a
    # reduction over a one-trial plane would sum pairwise
    n = pr._MEAN_CHUNK_CELLS + 1
    assert _rows(n, d) == 1
    _assert_mean_of_stack(spec_of_kind(kind, d).draw(substream(72, d), 3, n))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_each_plane_is_that_entry_of_the_built_stack(kind, d):
    draws = spec_of_kind(kind, d).draw(substream(73, d), 13, 9)
    stack = draws[:, :]
    for lo, hi in ((0, 13), (4, 5), (2, 11)):
        chunk = draws.transposed(lo, hi)
        assert chunk.shape == (9, hi - lo, d, d)
        for a in range(d):
            for b in range(d):
                want = stack[..., a, b]
                assert draws.entry(a, b).tobytes() == np.ascontiguousarray(want).tobytes()
                plane = chunk.entry(a, b)
                assert plane.flags.c_contiguous and plane.shape == (9, hi - lo)
                assert plane.tobytes() == np.ascontiguousarray(want[lo:hi].T).tobytes()
