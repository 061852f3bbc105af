"""Reproducible random streams.

All Monte Carlo work derives its randomness from a counter-based Philox
generator keyed by ``(base_seed, *path)`` integers.  Two runs with the
same seed and the same logical path get bitwise-identical draws, no
matter how the work is scheduled across workers.

The default seed comes from the ``MATCONC_SEED`` environment variable
when set, else a fixed constant, so command-line runs are repeatable
out of the box.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError

__all__ = ["DEFAULT_SEED", "default_seed", "substream", "spawn_pair"]

DEFAULT_SEED = 20240817


def default_seed() -> int:
    """Seed from ``MATCONC_SEED`` when set, else the package constant; a
    ConfigError if it is set to anything but an integer."""
    raw = os.environ.get("MATCONC_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"MATCONC_SEED must be an integer, got {raw!r}") from None


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by ``(seed, *path)``.

    Parameters
    ----------
    seed : int
        Base seed of the whole run.
    *path : int
        Logical coordinates (e.g. block index, replicate index).  Distinct
        paths give statistically independent streams.
    """
    # The path length is part of the key: SeedSequence absorbs a trailing
    # zero word without changing state, so ``(seed, 1)`` and ``(seed, 1, 0)``
    # would otherwise be the same stream.
    ss = np.random.SeedSequence([int(seed), len(path), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))


def spawn_pair(seed: int, *path: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators for one work unit.

    The first is meant for data, the second for the external randomizer,
    which must never share a stream with the data it randomizes.
    """
    return substream(seed, *path, 0), substream(seed, *path, 1)
