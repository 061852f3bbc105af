"""External randomization sources.

Randomized bounds sharpen classical ones by comparing against a random
threshold built from a scalar ``u`` or a random symmetric matrix ``U``
drawn independently of the data.  The key property a matrix randomizer
must satisfy is *trace super-uniformity*:

    Pr(U is not >= Y)  <=  tr Y      for every PSD Y.

``u * I`` with ``u ~ Uniform(0,1)`` satisfies this with equality on the
family of unit-trace rank-one matrices; adding any fixed PSD shift
preserves the inequality.  :func:`verify_trace_superuniform` gives both
sides exactly for a given randomizer.

Randomizers own their randomness: a sampler never sees the data stream,
and the Monte Carlo engine hands each work unit a dedicated generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng as _rng
from . import symmat as sm
from .errors import ConfigError, DomainError

__all__ = [
    "ScalarRandomizer",
    "MatrixRandomizer",
    "verify_trace_superuniform",
]

SCALAR_KINDS = ("uniform01", "constant_one", "custom")
MATRIX_KINDS = ("identity", "scaled_identity", "shifted")


def _uniform_open(gen: np.random.Generator) -> float:
    # 1 - U([0,1)) lands in (0, 1]; a zero draw would degenerate thresholds.
    return 1.0 - float(gen.random())


@dataclass
class ScalarRandomizer:
    """Source of the scalar randomizer ``u``.

    Parameters
    ----------
    kind : {"uniform01", "constant_one", "custom"}
        ``uniform01`` draws ``u ~ Uniform(0,1)`` (never exactly zero),
        ``constant_one`` always returns 1.0 (recovers the unrandomized
        bound), ``custom`` delegates to ``sampler``.
    seed : int, optional
        Seed of the private stream used when :meth:`sample` is called
        without an explicit generator.
    sampler : callable, optional
        ``sampler(gen) -> float`` in ``(0, 1]``; required for ``custom``.
    """

    kind: str = "uniform01"
    seed: int | None = None
    sampler: Callable[[np.random.Generator], float] | None = None
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise ConfigError(f"unknown scalar randomizer kind {self.kind!r}")
        if self.kind == "custom" and self.sampler is None:
            raise ConfigError("custom scalar randomizer needs a sampler")

    def _own_gen(self) -> np.random.Generator:
        if self._gen is None:
            seed = self.seed if self.seed is not None else _rng.default_seed()
            self._gen = _rng.substream(seed, 0xFA11)
        return self._gen

    def sample(self, gen: np.random.Generator | None = None) -> float:
        """Draw one ``u``; uses the private stream when ``gen`` is None."""
        g = gen if gen is not None else self._own_gen()
        if self.kind == "constant_one":
            return 1.0
        if self.kind == "uniform01":
            return _uniform_open(g)
        u = float(self.sampler(g))
        if not (0.0 < u <= 1.0):
            raise DomainError(f"custom randomizer returned {u}, outside (0, 1]")
        return u


@dataclass
class MatrixRandomizer:
    """Source of the matrix randomizer ``U``.

    Parameters
    ----------
    kind : {"identity", "scaled_identity", "shifted"}
        ``identity`` returns ``I`` (unrandomized), ``scaled_identity``
        returns ``u * I`` with ``u ~ Uniform(0,1)``, ``shifted`` returns
        ``u * I + Y`` for a fixed PSD shift ``Y``.
    dim : int
        Matrix dimension.
    y : ndarray, optional
        PSD shift for ``shifted``.
    seed : int, optional
        Seed of the private stream, as for :class:`ScalarRandomizer`.
    """

    kind: str = "scaled_identity"
    dim: int = 1
    y: np.ndarray | None = None
    seed: int | None = None
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise ConfigError(f"unknown matrix randomizer kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "shifted":
            if self.y is None:
                raise ConfigError("shifted randomizer needs the PSD shift y")
            self.y = sm.symmat(self.y)
            if self.y.shape[0] != self.dim:
                raise ConfigError(
                    f"shift has dimension {self.y.shape[0]}, randomizer has {self.dim}"
                )
            if not sm.is_psd(self.y):
                raise DomainError("shift matrix must be positive semidefinite")
        elif self.y is not None:
            raise ConfigError(f"kind {self.kind!r} takes no shift matrix")

    def _own_gen(self) -> np.random.Generator:
        if self._gen is None:
            seed = self.seed if self.seed is not None else _rng.default_seed()
            self._gen = _rng.substream(seed, 0xFA12)
        return self._gen

    def sample_given(self, u: float) -> np.ndarray:
        """Deterministic matrix for a forced scalar draw ``u``."""
        if self.kind == "identity":
            return np.eye(self.dim)
        base = u * np.eye(self.dim)
        if self.kind == "shifted":
            return base + self.y
        return base

    def sample(self, gen: np.random.Generator | None = None) -> np.ndarray:
        """Draw one randomizer matrix."""
        if self.kind == "identity":
            return np.eye(self.dim)
        g = gen if gen is not None else self._own_gen()
        return self.sample_given(_uniform_open(g))

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """``U`` for each of ``size`` trials, drawn as :meth:`sample` draws
        them one at a time: one ``u`` per trial standing for ``u I`` (all 1
        for ``identity``, which reads nothing of ``gen``), or the stack
        ``u I + Y`` for ``shifted``."""
        us = np.ones(size) if self.kind == "identity" else 1.0 - gen.random(size)
        if self.kind != "shifted":
            return us
        return us[:, None, None] * np.eye(self.dim) + self.y


def verify_trace_superuniform(randomizer: MatrixRandomizer, y_list) -> list[tuple[float, float]]:
    """Both sides of ``Pr(U not >= Y) <= tr Y`` for each probe matrix, exactly.

    Every supported ``U`` is ``u I + S``, with ``S`` the shift of
    ``shifted`` (else 0) and ``u`` uniform on ``(0, 1]``, so ``U`` is not
    ``>= Y`` iff ``u < lambda_max(Y - S)``: the probability is that
    eigenvalue clipped to ``[0, 1]``.  For ``identity`` (``u = 1``) it is
    0 or 1, decided by the PSD rule of :func:`~matconc.symmat.spectrum_is_psd`.

    Parameters
    ----------
    randomizer : MatrixRandomizer
        Randomizer under test.
    y_list : sequence of ndarray
        PSD probe matrices ``Y``.

    Returns
    -------
    list of (float, float)
        ``(Pr(U not >= Y), tr Y)`` per probe; the property holds where
        the first is at most the second.
    """
    out = []
    for j, y_raw in enumerate(y_list):
        y = sm.symmat(y_raw)
        if y.shape[0] != randomizer.dim:
            raise DomainError(
                f"probe {j} has dimension {y.shape[0]}, randomizer has {randomizer.dim}"
            )
        if not sm.is_psd(y):
            raise DomainError(f"probe {j} is not positive semidefinite")
        if randomizer.kind == "identity":
            prob = 0.0 if sm.spectrum_is_psd(1.0 + np.linalg.eigvalsh(-y)) else 1.0
        else:
            shift = randomizer.y if randomizer.kind == "shifted" else 0.0
            prob = min(max(float(np.linalg.eigvalsh(y - shift)[-1]), 0.0), 1.0)
        out.append((prob, sm.trace(y)))
    return out
