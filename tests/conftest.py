import os
import tracemalloc

import numpy as np
import pytest

from matconc.generators import GeneratorSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def peak_bytes(run) -> int:
    """The peak of the memory traced by tracemalloc (numpy's arrays among
    it) while ``run()`` runs, what it returns included, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_symmetric(gen, d, scale=1.0):
    raw = gen.standard_normal((d, d))
    return scale * (raw + raw.T) / 2.0


def random_psd(gen, d, scale=1.0):
    raw = gen.standard_normal((d, d))
    return scale * (raw @ raw.T) / d


def random_pd(gen, d, scale=1.0, floor=0.1):
    return random_psd(gen, d, scale) + floor * np.eye(d)


def spec_of_kind(kind, d):
    """A spec of ``kind`` with non-diagonal, non-commuting parameters."""
    rng = np.random.default_rng(d)
    raw = rng.standard_normal((3, d, d))
    m, c, d_dir = (raw + np.swapaxes(raw, -1, -2)) / 4.0
    spd = raw[0] @ raw[0].T + d * np.eye(d)
    params = {
        "RADEMACHER_SCALED": {"m": m, "c": c},
        "GAUSSIAN_SCALED": {"m": m, "c": c},
        "BOUNDED_PSD": {"m": spd, "b": 3.0 * spd},
        "SYMMETRIC_HEAVY": {"m": m, "d_dir": d_dir, "tail_index": 2.5},
        "EXCHANGEABLE_MIXTURE": {"m": m, "d_dir": d_dir, "tau": 0.5, "c": c},
        "IID_WISHART_LIKE": {"m": m, "scale": 0.5},
        "HEAVY_PSD": {"scale": 1.0, "tail_index": 1.5},
        "ELLIPSOID_RANK1": {"a": spd},
    }[kind]
    return GeneratorSpec(kind=kind, dim=d, **params)


@pytest.fixture
def gen():
    return np.random.default_rng(20240817)
