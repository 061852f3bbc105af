"""Random-matrix data generators with analytically known moments.

Every coverage run needs data whose relevant moments are *known*, not
estimated, so each generator kind documents and exposes its exact mean,
variance, and (where finite) p-th moments:

``RADEMACHER_SCALED``
    ``X = M + R C`` with a fair sign ``R``; ``(X - M)^2 = C^2`` exactly.
``GAUSSIAN_SCALED``
    ``X = M + G C`` with ``G ~ N(0,1)``; the Gaussian MGF row is exact.
``BOUNDED_PSD``
    ``X = M + t S`` with ``t ~ Unif(-1,1)`` and a spread ``S`` sized so
    ``0 <= X <= B`` holds surely; symmetric bounded deviations.
``SYMMETRIC_HEAVY``
    ``X = M + T D`` with ``T`` a symmetrized Pareto scalar (tail index
    ``q``): conditionally symmetric deviations, moments finite only
    below ``q``.
``EXCHANGEABLE_MIXTURE``
    ``X_n = M + t D + G_n C`` with one latent ``t ~ N(0, tau^2)`` per
    path: exchangeable but not i.i.d.
``IID_WISHART_LIKE``
    ``X = M + s (g g^T - I)`` with ``g ~ N(0, I)``; variance
    ``s^2 (d+1) I`` in closed form.
``HEAVY_PSD``
    ``X = s W u u^T`` with Pareto ``W`` and a uniform unit vector ``u``:
    PSD draws, raw p-th moment ``s^p q/((q-p) d) I``, infinite variance
    for tail index below 2.
``ELLIPSOID_RANK1``
    ``X = x x^T`` with ``x = sqrt(w) A^{1/2} z / ||z||``: rank-one draws
    supported on the ellipsoid ``x^T A^{-1} x <= 1``, the equality case
    of the randomized Markov bound.

Sampling has two parts.  :meth:`GeneratorSpec.draw` draws a block's
random numbers (the scalar ``t`` or the vectors above) and builds no
matrix; indexing the :class:`Draws` it returns over trials and steps
builds just those matrices, :meth:`Draws.steps` builds a run of
consecutive steps step-major, and :meth:`Draws.entries` some entries of
a run of steps, step-major.  :meth:`GeneratorSpec.sample_batch` is the
whole stack, ``draw(...)[:, :]``, so each law is written once, and a
slice built from the draws equals the same slice of the stack exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import symmat as sm
from .errors import ConfigError, config_number

__all__ = ["GENERATOR_KINDS", "Draws", "GeneratorSpec"]

GENERATOR_KINDS = (
    "RADEMACHER_SCALED",
    "GAUSSIAN_SCALED",
    "BOUNDED_PSD",
    "SYMMETRIC_HEAVY",
    "EXCHANGEABLE_MIXTURE",
    "IID_WISHART_LIKE",
    "HEAVY_PSD",
    "ELLIPSOID_RANK1",
)

#: Fraction of the feasible spread used by BOUNDED_PSD; keeps the
#: support strictly inside [0, B].
_BOUNDED_MARGIN = 0.9


#: Direction vectors normalised at once by :func:`_normalise_rows`.
_NORM_CHUNK_ROWS = 1 << 13


def _normalise_rows(v: np.ndarray) -> None:
    """Divide each vector ``v[..., :]`` of a C-contiguous stack by its
    Euclidean norm, in place, ``_NORM_CHUNK_ROWS`` vectors at a time.

    Each chunk takes the ``np.linalg.norm(..., axis=-1, keepdims=True)``
    call that the whole stack would, along the same contiguous axis, so
    every vector's bits are those of ``v / np.linalg.norm(v, axis=-1,
    keepdims=True)`` at every ``d``: one ``add.reduce`` of its squares
    (pairwise from 8 terms on, so a sum plane by plane would differ).
    The norm's squares take the size of a chunk, not of the stack.
    """
    rows = v.reshape(-1, v.shape[-1])
    for lo in range(0, len(rows), _NORM_CHUNK_ROWS):
        part = rows[lo : lo + _NORM_CHUNK_ROWS]
        part /= np.linalg.norm(part, axis=-1, keepdims=True)


def _abs_gauss_moment(p: float) -> float:
    """``E |G|^p`` for standard normal ``G``."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass
class GeneratorSpec:
    """Configuration of one data generator.

    Only the fields of the chosen kind are read; supplying extras is an
    error so configs stay unambiguous.
    """

    kind: str
    dim: int
    m: np.ndarray | None = None
    c: np.ndarray | None = None
    b: np.ndarray | None = None
    d_dir: np.ndarray | None = None
    tail_index: float | None = None
    tau: float | None = None
    scale: float | None = None
    a: np.ndarray | None = None
    seed: int | None = None

    _FIELDS_BY_KIND = {
        "RADEMACHER_SCALED": {"required": ("c",), "optional": ("m",)},
        "GAUSSIAN_SCALED": {"required": ("c",), "optional": ("m",)},
        "BOUNDED_PSD": {"required": ("b", "m"), "optional": ()},
        "SYMMETRIC_HEAVY": {"required": ("d_dir", "tail_index"), "optional": ("m",)},
        "EXCHANGEABLE_MIXTURE": {"required": ("d_dir", "tau", "c"), "optional": ("m",)},
        "IID_WISHART_LIKE": {"required": ("scale",), "optional": ("m",)},
        "HEAVY_PSD": {"required": ("scale", "tail_index"), "optional": ()},
        "ELLIPSOID_RANK1": {"required": ("a",), "optional": ()},
    }
    _MATRIX_FIELDS = ("m", "c", "b", "d_dir", "a")

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        spec = self._FIELDS_BY_KIND[self.kind]
        allowed = set(spec["required"]) | set(spec["optional"])
        for name in ("c", "b", "d_dir", "tail_index", "tau", "scale", "a", "m"):
            val = getattr(self, name)
            if val is None:
                if name in spec["required"]:
                    raise ConfigError(f"{self.kind} requires parameter {name!r}")
            elif name not in allowed:
                raise ConfigError(f"{self.kind} does not take parameter {name!r}")
        for name in self._MATRIX_FIELDS:
            val = getattr(self, name)
            if val is not None:
                mat = sm.symmat(val)
                if mat.shape[0] != self.dim:
                    raise ConfigError(
                        f"parameter {name!r} has dimension {mat.shape[0]}, expected {self.dim}"
                    )
                setattr(self, name, mat)
        if self.m is None and "m" in allowed:
            self.m = np.zeros((self.dim, self.dim))
        for name in ("tail_index", "tau", "scale"):
            if getattr(self, name) is not None:
                config_number(getattr(self, name), repr(name))
        if self.tail_index is not None and self.tail_index <= 1.0:
            raise ConfigError("tail_index must exceed 1 (finite mean needed)")
        if self.tau is not None and self.tau < 0.0:
            raise ConfigError("tau must be nonnegative")
        if self.scale is not None and self.scale <= 0.0:
            raise ConfigError("scale must be positive")
        if self.kind == "BOUNDED_PSD":
            lo = sm.lambda_min(self.m)
            hi = sm.lambda_min(self.b - self.m)
            if lo <= 0.0 or hi <= 0.0:
                raise ConfigError("BOUNDED_PSD needs 0 < M < B strictly")
            self._spread = _BOUNDED_MARGIN * min(lo, hi) * np.eye(self.dim)
        if self.kind == "ELLIPSOID_RANK1":
            if sm.lambda_min(self.a) <= 0.0:
                raise ConfigError("ELLIPSOID_RANK1 needs a positive definite shape")
            self._a_root = sm.mat_sqrt(self.a)

    @property
    def spread(self) -> np.ndarray:
        """The ``S`` of draws ``X = M + t S``: ``C`` of the scaled kinds, the
        BOUNDED_PSD spread, ``D`` of SYMMETRIC_HEAVY."""
        if self.kind in ("RADEMACHER_SCALED", "GAUSSIAN_SCALED"):
            return self.c
        if self.kind == "BOUNDED_PSD":
            return self._spread
        if self.kind == "SYMMETRIC_HEAVY":
            return self.d_dir
        raise ConfigError(f"{self.kind} draws are not of the form M + t S")

    # ------------------------------------------------------------------
    # sampling

    def draw(self, gen: np.random.Generator, trials: int, n: int) -> Draws:
        """The random part of ``trials`` independent paths of ``n`` draws.

        Makes the RNG calls of :meth:`sample_batch` in the same order but
        builds no matrix; index the result to build the ones needed.  The
        result holds only its fields: the scalars and the vectors are
        finished in the arrays the RNG filled (the vectors normalised by
        :func:`_normalise_rows`), with the bits of the whole-array
        expressions ``pareto(...) + 1.0``, ``u / np.linalg.norm(u,
        axis=-1, keepdims=True)`` and ``sqrt(w)[..., None] * (A^{1/2}
        z)``.  Only ELLIPSOID_RANK1 forms its vectors once more, as
        ``A^{1/2} z``.
        """
        d = self.dim
        if self.kind == "RADEMACHER_SCALED":
            return Draws(self, gen.integers(0, 2, size=(trials, n)) * 2.0 - 1.0)
        if self.kind == "GAUSSIAN_SCALED":
            return Draws(self, gen.standard_normal((trials, n)))
        if self.kind == "BOUNDED_PSD":
            return Draws(self, gen.uniform(-1.0, 1.0, size=(trials, n)))
        if self.kind == "SYMMETRIC_HEAVY":
            w = gen.pareto(self.tail_index, size=(trials, n)) + 1.0
            sign = gen.integers(0, 2, size=(trials, n)) * 2.0 - 1.0
            return Draws(self, sign * w)
        if self.kind == "EXCHANGEABLE_MIXTURE":
            t = gen.normal(0.0, self.tau, size=(trials, 1))
            g = gen.standard_normal((trials, n))
            return Draws(self, g, shift=np.broadcast_to(t, g.shape))
        if self.kind == "IID_WISHART_LIKE":
            return Draws(self, None, gen.standard_normal((trials, n, d)))
        if self.kind == "HEAVY_PSD":
            w = gen.pareto(self.tail_index, size=(trials, n))
            w += 1.0
            u = gen.standard_normal((trials, n, d))
            _normalise_rows(u)
            return Draws(self, w, u)
        if self.kind == "ELLIPSOID_RANK1":
            z = gen.standard_normal((trials, n, d))
            _normalise_rows(z)
            w = gen.random((trials, n))
            # sqrt(w) x, as x sqrt(w): multiplication commutes
            x = np.einsum("ij,...j->...i", self._a_root, z)
            x *= np.sqrt(w)[..., None]
            return Draws(self, None, x)
        raise AssertionError(self.kind)

    def sample_batch(self, gen: np.random.Generator, trials: int, n: int) -> np.ndarray:
        """Stack of ``trials`` independent paths of ``n`` draws each.

        Shape ``(trials, n, dim, dim)``.  Within a path, draws are
        i.i.d. except for EXCHANGEABLE_MIXTURE, which shares one latent
        shift per path.
        """
        return self.draw(gen, trials, n)[:, :]

    def sample_path(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """One path of ``n`` draws, shape ``(n, dim, dim)``."""
        return self.sample_batch(gen, 1, n)[0]

    # ------------------------------------------------------------------
    # analytic moments

    def mean(self) -> np.ndarray:
        """Exact mean of one draw."""
        d = self.dim
        if self.kind == "HEAVY_PSD":
            q = self.tail_index
            return (self.scale * q / ((q - 1.0) * d)) * np.eye(d)
        if self.kind == "ELLIPSOID_RANK1":
            # E w = 1/2 and E z z^T / ||z||^2 = I/d.
            return self.a / (2.0 * d)
        return self.m.copy()

    def variance(self) -> np.ndarray:
        """Exact variance ``E (X - E X)^2`` where finite.

        Raises
        ------
        ConfigError
            For kinds whose variance is infinite or not in closed form.
        """
        d = self.dim
        if self.kind in ("RADEMACHER_SCALED", "GAUSSIAN_SCALED"):
            return self.c @ self.c
        if self.kind == "BOUNDED_PSD":
            return (self._spread @ self._spread) / 3.0
        if self.kind == "SYMMETRIC_HEAVY":
            q = self.tail_index
            if q <= 2.0:
                raise ConfigError(f"variance infinite at tail index {q}")
            return (q / (q - 2.0)) * (self.d_dir @ self.d_dir)
        if self.kind == "EXCHANGEABLE_MIXTURE":
            return self.tau**2 * (self.d_dir @ self.d_dir) + self.c @ self.c
        if self.kind == "IID_WISHART_LIKE":
            return self.scale**2 * (d + 1.0) * np.eye(d)
        raise ConfigError(f"no closed-form variance for {self.kind}")

    def pth_central(self, p: float) -> np.ndarray:
        """Exact p-th central absolute moment ``E abs(X - M)^p`` where known."""
        if self.kind == "RADEMACHER_SCALED":
            return sm.mat_pow(sm.mat_abs(self.c), p)
        if self.kind == "GAUSSIAN_SCALED":
            return _abs_gauss_moment(p) * sm.mat_pow(sm.mat_abs(self.c), p)
        if self.kind == "BOUNDED_PSD":
            return sm.mat_pow(self._spread, p) / (p + 1.0)
        if self.kind == "SYMMETRIC_HEAVY":
            q = self.tail_index
            if p >= q:
                raise ConfigError(f"p-th moment infinite: p = {p} >= tail index {q}")
            return (q / (q - p)) * sm.mat_pow(sm.mat_abs(self.d_dir), p)
        raise ConfigError(f"no closed-form p-th central moment for {self.kind}")

    def pth_raw(self, p: float) -> np.ndarray:
        """Exact raw moment ``E X^p`` for the PSD heavy-tail kind."""
        if self.kind != "HEAVY_PSD":
            raise ConfigError(f"raw p-th moment only available for HEAVY_PSD")
        q = self.tail_index
        if p >= q:
            raise ConfigError(f"p-th moment infinite: p = {p} >= tail index {q}")
        return (self.scale**p * q / ((q - p) * self.dim)) * np.eye(self.dim)

    def spectral_pth_central(self, p: float) -> float:
        """Exact ``E ||X - M||^p`` (operator norm) where known."""
        if self.kind == "RADEMACHER_SCALED":
            return sm.spectral_norm(self.c) ** p
        if self.kind == "GAUSSIAN_SCALED":
            return _abs_gauss_moment(p) * sm.spectral_norm(self.c) ** p
        if self.kind == "SYMMETRIC_HEAVY":
            q = self.tail_index
            if p >= q:
                raise ConfigError(f"p-th moment infinite: p = {p} >= tail index {q}")
            return (q / (q - p)) * sm.spectral_norm(self.d_dir) ** p
        raise ConfigError(f"no closed-form spectral moment for {self.kind}")

    def sq_dev_bound(self) -> np.ndarray:
        """Almost-sure bound ``B`` on ``(X - M)^2`` for bounded kinds."""
        if self.kind == "RADEMACHER_SCALED":
            return self.c @ self.c
        if self.kind == "BOUNDED_PSD":
            return self._spread @ self._spread
        raise ConfigError(f"{self.kind} has unbounded deviations")

    def mgf_row(self) -> tuple[str, np.ndarray]:
        """The MGF row (an ``MgfSpec`` kind) that this law satisfies exactly,
        with its matrix."""
        if self.kind == "RADEMACHER_SCALED":
            return "RADEMACHER", self.c
        if self.kind == "GAUSSIAN_SCALED":
            return "UNI_GAUSSIAN", self.c
        if self.kind == "BOUNDED_PSD":
            return "SYM_HOEFFDING", self.sq_dev_bound()
        raise ConfigError(f"no exact MGF row for {self.kind}")

    def betting_upper(self) -> np.ndarray:
        """Almost-sure upper bound with ``0 <= X <= B`` for bounded PSD data."""
        if self.kind == "BOUNDED_PSD":
            return self.b.copy()
        raise ConfigError(f"{self.kind} does not guarantee 0 <= X <= B")

    def deviations_symmetric(self) -> bool:
        """Whether ``X - M`` is (conditionally) symmetric in law."""
        return self.kind in (
            "RADEMACHER_SCALED",
            "GAUSSIAN_SCALED",
            "BOUNDED_PSD",
            "SYMMETRIC_HEAVY",
        )


@dataclass(frozen=True, eq=False)
class Draws:
    """The random part of a block of paths, standing for their matrix stack.

    ``shape`` is that of the stack, ``(trials, n, dim, dim)``; indexing
    it over trials and steps (``draws[rows, steps]``) builds only those
    matrices, each by the elementwise expression of the kind, and
    :meth:`entries` builds some entries of the matrices of a run of
    steps.  ``coef`` is the scalar of the ``M + t C`` kinds or the weight
    of HEAVY_PSD, ``vec`` the vectors of the rank-one kinds (``x`` itself
    for ELLIPSOID_RANK1), ``shift`` the per-path latent of
    EXCHANGEABLE_MIXTURE, broadcast over the steps.  These fields are all
    a block keeps: ``trials * n * (1 + dim)`` floats at most (a weight and
    a vector per draw), never the ``trials * n * dim^2`` of its matrices.
    """

    spec: GeneratorSpec
    coef: np.ndarray | None
    vec: np.ndarray | None = None
    shift: np.ndarray | None = None

    @classmethod
    def join(cls, parts) -> "Draws":
        """The trials of ``parts`` (draws of one spec and length), in order, as one block."""

        def cat(name):
            fields = [getattr(p, name) for p in parts]
            return None if fields[0] is None else np.concatenate(fields)

        return cls(parts[0].spec, cat("coef"), cat("vec"), cat("shift"))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        d = self.spec.dim
        return (self.coef if self.vec is None else self.vec).shape[:2] + (d, d)

    def __getitem__(self, key) -> np.ndarray:
        return self._build(lambda part: part[key])

    def steps(self, lo: int, hi: int) -> np.ndarray:
        """The matrices of steps ``lo..hi-1`` of every trial, step-major:
        shape ``(hi - lo, trials, dim, dim)``, C-contiguous, and equal to
        ``self[:, lo:hi]`` with its first two axes swapped."""
        return self._build(lambda part: np.ascontiguousarray(np.swapaxes(part[:, lo:hi], 0, 1)))

    def entries(self, lo: int, hi: int, rows, cols) -> np.ndarray:
        """Entries ``(rows[e], cols[e])`` of the matrices of steps
        ``lo..hi-1`` of every trial, step-major: shape ``(hi - lo,
        len(rows), trials)``, C-contiguous, with ``[:, e]`` equal to
        ``self[:, lo:hi][..., rows[e], cols[e]].T`` bit for bit.  The fields
        (the vectors of the rank-one kinds too) are taken step-major once;
        then the kind's law runs once per entry, on contiguous ``(hi - lo,
        trials)`` operands with each matrix operand replaced by that entry.
        (One law on a broadcast ``(hi - lo, entries, trials)`` stack is about
        twice as slow at d >= 2 and a few thousand trials: numpy iterates
        it one ``trials`` row at a time.)"""

        def field(part):
            return None if part is None else np.ascontiguousarray(part[:, lo:hi].T)

        coef, shift, v = field(self.coef), field(self.shift), field(self.vec)
        out = np.empty((hi - lo, len(rows), self.shape[0]))
        for e, (a, b) in enumerate(zip(rows, cols)):
            outer = None if v is None else v[a] * v[b]
            out[:, e] = self._law(coef, shift, outer, itemgetter((a, b)))
        return out

    def _build(self, take) -> np.ndarray:
        """The matrices of the draws that ``take`` selects from each field."""

        def field(part):
            return None if part is None else take(part)[..., None, None]

        v = None if self.vec is None else take(self.vec)
        outer = None if v is None else np.einsum("...i,...j->...ij", v, v)
        return self._law(field(self.coef), field(self.shift), outer, lambda op: op)

    def _law(self, coef, shift, outer, op) -> np.ndarray:
        """The kind's elementwise law on broadcastable draws.

        ``coef`` and ``shift`` are the scalar fields, ``outer`` the
        products ``v_a v_b`` of the rank-one kinds (the result is formed
        in it), and ``op`` maps each matrix operand of the spec to the
        part of it the draws stand for: the whole matrix, or one entry.
        Each result is formed by the same sequence of IEEE operations, so
        its bits do not depend on the selection or its layout (addition
        commutes, so ``out = t C; out += M`` is ``M + t C``).
        """
        g = self.spec
        if outer is None:
            if g.kind == "EXCHANGEABLE_MIXTURE":
                out = shift * op(g.d_dir)
                out += op(g.m)
                out += coef * op(g.c)
                return out
            out = coef * op(g.spread)
            out += op(g.m)
            return out
        out = outer
        if g.kind == "IID_WISHART_LIKE":
            out -= op(np.eye(g.dim))
            out *= g.scale
            out += op(g.m)
        elif g.kind == "HEAVY_PSD":
            out *= g.scale * coef
        return out
