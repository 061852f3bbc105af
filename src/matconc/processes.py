"""Sequential processes: matrix supermartingales, trace-exp e-processes and
running-mean scans, stepped to a stopping time.

A process runs in one of two ways.  One path: :meth:`~FactorProcess.step`
absorbs one observation, forms the statistic ``value`` and returns the
crossing event; ``matconc test`` decides its frames this way.  A stack
of paths: :func:`first_crossing` runs the process along whole paths in
blocks of consecutive steps and stops each path at its first crossing or
at a given stopping time; the path runs of :mod:`matconc.simulator` and
:func:`sequential_test_stops` (the MATRIX and SCALAR sequential mean
tests of ``matconc power-compare``) run this way.  Both take the same
steps, bit for bit.

- :class:`FactorProcess`: ``Y_n = L_n L_n^T`` from one factor builder of
  :mod:`matconc.martingales`, crossing when ``Y_n`` is not below the
  threshold (UMVI at a stopping time, MVI over the horizon).
- :class:`TraceExpProcess`: the self-normalized trace-exp process of
  :mod:`matconc.scalar_e` in log space, or the Hoeffding e-process
  derived from it (URSN, USMHI).
- :class:`MeanScan`: the running means ``Xbar_n`` tested by
  :func:`~matconc.martingales.scan_exceeds` (DOOB, XMCI, XMCI2, XMPCI,
  TRACE_PCHEB); ``first_crossing(MeanScan(...), xs)`` is the "exists n"
  scan of a stack of paths, run one matrix entry at a time: it sums
  step-major ``(k, trials)`` planes of the entries and forms matrices
  only for the rows that its norm screen leaves; stopped at ``n``, a
  scan that tests no step is the mean of a fixed-time bound.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import martingales as mg
from . import rng as _rng
from . import scalar_e as se
from . import symmat as sm
from .errors import DimMismatch, DomainError
from .generators import Draws

__all__ = [
    "FactorProcess",
    "TraceExpProcess",
    "MeanScan",
    "first_crossing",
    "sequential_test_stops",
]

# Cells of the (block, n, d, d) stack a block stands for.  It sets the
# block boundaries, and so which substream draws each trial: it is part
# of the reproducibility contract, not a bound on memory.  A run's peak
# is its block's draws (Draws holds only its fields) plus one block of k
# steps: first_crossing lets go of each block before it builds the next.
_CELL_BUDGET = 1 << 24
# Cells built at once: the block of k consecutive steps a path run takes
# (first_crossing), k * trials * d^2 cells of matrices, or k * trials * d
# for the entry planes of a scan.
_MEAN_CHUNK_CELLS = 1 << 16
_PATH_BLOCK_CAP = 1024


def _block_size(n_per: int, d: int, cap: int) -> int:
    per_trial = max(1, n_per * d * d)
    return max(64, min(cap, _CELL_BUDGET // per_trial))


class _Process:
    """A sequential statistic, run on one path or on a stack of paths.

    One path: :meth:`step` (on :class:`FactorProcess` and
    :class:`TraceExpProcess`) takes one observation ``x``, ``(d, d)``, and
    its float step size ``gamma``, advances the state and returns
    :meth:`decide`: that forms ``value``, the statistic of the current
    state, and compares it with the level.

    A stack of paths runs only through :func:`first_crossing`, ``k`` steps
    at a time in two parts.  ``_block(xs, gammas)`` runs the recurrence:
    a few kernel calls do the state-free work of the ``k`` steps, then the
    state advances step by step, one matrix product or one Kahan add per
    step on views of step-major buffers walked by ``zip``, and each step's
    state goes into a step-major buffer.  ``xs`` is the block's input
    that ``_block_input`` builds from the paths: each trial's next ``k``
    observations, ``(k, trials, d, d)`` (a scan's entry planes instead,
    see :class:`MeanScan`), and ``gammas`` their ``k`` step sizes (None
    entries for the scans); ``_step_cells`` is the cells of one trial's
    step in it, which sizes ``k``.  ``xs`` is the block's own: ``_block``
    may overwrite it.  It returns the block: a
    tuple of arrays shaped ``(n, trials, ...)`` (or None), the states of
    the first ``n`` steps.  ``n`` is ``k`` unless a state has a non-finite
    entry, and then the block ends just before it.  ``_events(*block)``
    is the decision rule, one call on the block just run; it decides most
    rows from an exact norm bound, without the statistic, which only rows
    near the level need.  ``_values(*states)`` forms the statistic of the
    states it is given, and ``_stop`` records it in ``at_stop``: at each
    trial's stop, or at the last step for a trial that never stopped.
    Every event and value equals that of stepping each path one
    observation at a time, bit for bit.
    """

    at_stop = None

    def _step_cells(self, d: int) -> int:
        """Cells of one trial's step that :func:`first_crossing` budgets a block for."""
        return d * d

    def _block_input(self, xs, lo, hi):
        """The input of ``_block`` for steps ``lo + 1 .. hi`` of ``xs``: their
        matrices, step-major, ``(hi - lo, trials, d, d)``."""
        if isinstance(xs, Draws):
            return xs.steps(lo, hi)
        return np.array(np.swapaxes(xs[:, lo:hi], 0, 1), order="C")

    def _block(self, xs, gammas):
        """Advance through the steps ``xs``; returns the block of their states."""
        raise NotImplementedError

    def _events(self, *states):
        """Crossing events of a stack of states."""
        raise NotImplementedError

    def _stop(self, block, steps, rows):
        """Record in ``at_stop`` the value of trial ``rows[i]`` at block step ``steps[i]``."""
        values = self._values(*(s if s is None else s[steps, rows] for s in block))
        if self.at_stop is None:
            self.at_stop = np.empty((block[0].shape[1],) + values.shape[1:], dtype=values.dtype)
        self.at_stop[rows] = values


class FactorProcess(_Process):
    """``Y_n = L_n L_n^T`` from one factor builder; crosses when ``Y_n`` is not <= ``a``.

    ``a`` is a threshold matrix or a scalar standing for ``a I``; ``mgf``
    and ``v`` are the builder's parameters (see
    :func:`~matconc.martingales.factor_pair`).  One path's ``value`` is
    ``Y_n``, decided by :func:`~matconc.martingales.exceeds`; a ``Y_n``
    holding a NaN raises DomainError.

    A stack of trials with a threshold ``a I`` is decided without ``Y``
    where an exact bound allows: ``lambda_max(Y) = ||L||_2^2 <= ||L||_F^2
    = tr Y``, so a trial whose ``||L||_F^2`` sits below ``a`` by the
    margin of :func:`~matconc.symmat.settles` at ``power = 2`` has not
    crossed.  The margin covers the rounding of the ``d^2`` squares, of
    the product ``L L^T`` (``d`` ulps of ``||L||_F^2``) and LAPACK's error
    in the eigenvalues of ``Y``, so the rule on ``Y`` would find that trial
    ordered too.  ``Y`` is formed only on the other trials, each matrix
    bitwise as in the whole stack's product, and decided by
    :func:`~matconc.martingales.exceeds`.  In a stack, a non-finite trial
    is never settled and is crossed.

    The block of :func:`first_crossing` holds ``L_n`` of every step.  It
    forms the step factors ``A_n^{1/2} E_n^{1/2}`` of all its steps in one
    batched product, so the recurrence takes one product per step.  A
    trial that stops inside a block keeps multiplying to the block's end
    and restarts there, so its product may overflow: the factors, the
    recurrence and the rule run with overflow warnings off, and a
    non-finite trial is crossed in any case.
    """

    def __init__(self, builder, m, a, mgf=None, v=None):
        self.builder, self.m, self.a = builder, m, a
        self.params = {"mgf": mgf, "v": v}
        self.state = mg.MatSupermartingaleState.start(m.shape[0])
        level = sm._scalar_level(a)
        self._level = None if level is None or np.ndim(level) else level

    def _prepare(self, xs, gammas):
        return mg.factor_pair(self.builder, xs - self.m, gammas, root=True, **self.params)

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, x, gamma=None):
        """Absorb one observation of the path; returns its crossing event."""
        self.state = self.state.advance(*self._prepare(x, gamma))
        return self.decide()

    def _block(self, xs, gammas):
        left = self.state.left
        with np.errstate(over="ignore", invalid="ignore"):
            sqrt_a, lefts = self._prepare(xs, gammas)
            # the factors A_n^{1/2} E_n^{1/2} of every step, in a buffer of their own
            steps = lefts if sqrt_a is None else sqrt_a[:, None] @ lefts
            # each step's L_n takes the place of its factor E_n^{1/2} (``out``
            # positionally, which a ufunc call parses faster)
            for step, out in zip(steps, lefts):
                left = np.matmul(left, step, out)
        # a copy: a view of the last L_n would keep the whole block alive
        self.state = mg.MatSupermartingaleState(left.copy(), self.state.n + len(lefts))
        return (lefts,)

    def decide(self):
        """Crossing event of the path's current state; sets ``value`` to its ``Y_n``."""
        self.value = self._values(self.state.left)
        if np.isnan(self.value).any():
            # the kernels do not re-validate their stacks: a non-finite
            # exponent shows as NaN in the factors
            raise DomainError("process state is not finite")
        return mg.exceeds(self.value, self.a if self._level is None else self._level)

    @np.errstate(over="ignore", invalid="ignore")
    def _events(self, left):
        level = self._level
        if level is None:
            return mg.exceeds(self._values(left), self.a)
        sq = np.einsum("...ij,...ij->...", left, left)
        settled = sm.settles(sq, level, left.shape[-1], power=2.0)
        return sm.unsettled_events(settled, lambda rows: mg.exceeds(self._values(left[rows]), level))

    def _values(self, left):
        return mg.MatSupermartingaleState(left).value()

    def stopped_event(self, value, u):
        """The randomized stopped event of a value ``Y_tau`` (or a stack, with
        ``u`` one per trial): :func:`~matconc.martingales.ville_event` against
        ``a``, ``a I`` for a scalar ``a``."""
        a = self.a if np.ndim(self.a) else self.a * np.eye(self.m.shape[0])
        return mg.ville_event(value, a, u)

    def _stop(self, block, steps, rows):
        super()._stop(block, steps, rows)
        # a stopped trial's value is recorded; restarting it keeps its product bounded
        self.state.left[rows] = np.eye(self.m.shape[0])


class TraceExpProcess(_Process):
    """The self-normalized trace-exp process in log space, or with ``b`` the
    Hoeffding e-process derived from it; crosses at ``log(d / alpha)``.

    One path's ``value`` is the float ``log tr e^S``, or ``lambda_max(G) -
    lambda_max(B_n) / 2`` (``G`` the tilt, ``B_n = sum gamma_i^2 B_i``).
    A stack of trials is decided without an eigenvalue per trial where an
    exact bound allows.  The trace-exp value obeys ``log tr e^S <= log d +
    lambda_max(S) <= log d + ||S||_F``; the Hoeffding value, with
    ``B_n`` shared by all trials (one ``eigvalsh`` per step of a block),
    obeys ``lambda_max(G) <= ||G||_F``.  A trial whose bound sits below the
    level by the margin of :func:`~matconc.symmat.settles` has not crossed:
    the margin also covers the rounding of ``log d`` and of the shifted
    log-sum-exp.  The statistic is formed on the other trials only.  A
    state with a non-finite entry raises DomainError; in
    :func:`first_crossing`, only when no step before it stopped every
    trial.

    A block runs in one step-major buffer of ``k + 3`` (or more) rows of
    ``(1 + compensated, trials, d, d)`` that every block of the process
    reuses (buffers made afresh page-fault in every block at d = 5).  Row
    0 holds the sums the block starts from: the tilt and, with ``v``, the
    compensator.  Rows ``1..k`` take the increments of the block's steps
    (:func:`~matconc.scalar_e.sn_increments`), and one Kahan add per step
    turns its row into that step's sums in place, walking the rows by
    ``zip``; the last two rows are the carries and the adds' scratch.
    After the loop, one subtraction forms every step's exponent ``S = G -
    P`` (the Hoeffding process reads the tilt ``G``) in place of the
    block's deviations, which took the place of its input, and the last
    sums are copied to row 0: the state's ``gz`` and ``pc`` and their
    carries are views of the buffer, where the next block starts.
    """

    def __init__(self, m, v, alpha, b=None):
        self.m, self.v, self.alpha, self.b = m, v, alpha, b
        self.state = se.TraceExpState.start(m.shape[0])
        self.level = se.log_level(m.shape[0], alpha)
        self._scratch = None

    def _prepare(self, xs, gammas):
        return se.sn_increments(xs - self.m, self.v, gammas, self.b)

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, x, gamma=None):
        """Absorb one observation of the path; returns its crossing event."""
        self.state = se._advance(self.state, gamma, *self._prepare(x, gamma))
        return self.decide()

    def _block(self, xs, gammas):
        st, hoeffding, compensated = self.state, self.b is not None, self.v is not None
        k = len(gammas)
        shape = (1 + compensated,) + xs.shape[1:]
        buf = self._scratch
        if buf is None or buf.shape[1:] != shape or len(buf) < k + 3:
            buf = self._scratch = np.empty((k + 3,) + shape)
        sums, carry, work = buf[: k + 1], buf[-2], buf[-1]
        # the block's input is its own: the deviations take its place
        dev = np.subtract(xs, self.m, out=xs)
        _, _, db = se.sn_increments(dev, self.v, gammas, self.b, out=sums[1:].swapaxes(0, 1))
        sum_b, half = st.sum_gamma_sq_b, None
        if db is not None:
            db[0] += sum_b
            db = np.add.accumulate(db, axis=0, out=db)
            sum_b, half = db[-1], 0.5 * se._top(db)
        sum_gamma = st.sum_gamma
        for gamma in gammas:
            sum_gamma += gamma
        # numpy skips the copy where the state is the last block's, in place
        sums[0, 0], carry[0] = st.gz, st.gz_carry
        if compensated:
            sums[0, 1], carry[1] = st.pc, st.pc_carry
        # the states after the last trial's stop are formed too, unread
        with np.errstate(over="ignore", invalid="ignore"):
            for acc, step in zip(sums, sums[1:]):
                se._kahan_add(acc, carry, step, out=step, work=work)
            acc = sums[0]
            acc[...] = sums[-1]
            tilt = sums[1:, 0]
            if not hoeffding:
                # contiguous, in place of the deviations: symmat_stack runs
                # slower on strided planes
                tilt = np.subtract(tilt, sums[1:, 1] if compensated else st.pc, out=dev)
            mat = sm.symmat_stack(tilt, trusted=True)
            sq = sm._eig_frobenius_sq(mat)
        pc, pc_carry = (acc[1], carry[1]) if compensated else (st.pc, st.pc_carry)
        self.state = se.TraceExpState(acc[0], carry[0], pc, pc_carry, sum_gamma, sum_b, st.n + k)
        if half is not None:
            half = np.broadcast_to(half[:, None], sq.shape)
        n = len(mat)
        bad = ~np.isfinite(sq).all(axis=1)
        if bad.any():
            # a stack is finite where ||S||_F^2 is, short of overflowing squares
            bad[bad] = ~np.isfinite(mat[bad]).all(axis=(1, 2, 3))
            if bad.any():
                n = int(bad.argmax())
        return mat[:n], None if half is None else half[:n], sq[:n]

    def decide(self):
        """Crossing event of the path's current state; sets ``value`` to its statistic."""
        if self.b is None:
            mat, half = self.state.exponent(), None
        else:
            # the symmetric tilt that the eigenvalue rule reads
            mat = sm.symmat_stack(self.state.gz, trusted=True)
            half = 0.5 * se._top(self.state.sum_gamma_sq_b)
        if not np.isfinite(mat).all():
            raise DomainError("matrix entries must be finite")
        self.value = se._float_or_stack(self._values(mat, half))
        return self.value >= self.level

    def _events(self, mat, half, sq):
        d = mat.shape[-1]
        if self.b is None:
            level, offset = self.level, math.log(d)
        else:
            level, offset = self.level + half, 0.0
        settled = sm.settles(sq, level, d, offset=offset)
        return sm.unsettled_events(
            settled, lambda rows: self._values(mat[rows], None if half is None else half[rows]) >= self.level
        )

    def _values(self, mat, half, sq=None):
        if self.b is None:
            return se.log_trace_exp(mat)
        return np.linalg.eigvalsh(mat)[..., -1] - half

    def stopped_event(self, value, u):
        """The randomized stopped event of a log value (or a stack, with ``u``
        one per trial): it reaches :func:`~matconc.scalar_e.log_level` at ``u``."""
        return value >= se.log_level(self.m.shape[0], self.alpha, u)


class MeanScan(_Process):
    """Running means ``Xbar_n`` tested by :func:`~matconc.martingales.scan_exceeds`
    from ``n_start`` on (with no ``kind``, on no step); the value is ``Xbar_n``.

    A stack of paths is scanned one matrix entry at a time.  A block's
    input (:meth:`_block_input`) is one step-major ``(k, trials)`` plane
    per entry, ``(k, entries, trials)``, built by the law of the draws
    (:meth:`~matconc.generators.Draws.entries`): the lower triangle, all
    that ``eigvalsh`` reads of a symmetric matrix, and the strict upper
    triangle too for a plain stack, which may be asymmetric (or for an
    asymmetric ``m``).  Each entry is summed in step order from a running
    total of its own, divided by the step count, and ``m`` is subtracted,
    each the operation the matrix would take, so every entry of ``Xbar_n -
    M`` is bitwise that of the matrix scan.  The norm screen of
    :func:`~matconc.martingales._scan_test` settles most rows from the
    squared Frobenius norm (:func:`_frobenius_sq`), whose squares are
    added in another order than the matrix scan adds them; the margin of
    :func:`~matconc.symmat.settles` covers that rounding, so a settled row
    is one that the exact rule finds not crossed.  Only the rows left get
    matrices, the lower triangle mirrored (an asymmetric input's upper
    triangle as it is), decided by the scan's exact rule; a row with a
    non-finite entry is never settled and is crossed.  So every event
    equals that of the matrix scan, bit for bit.
    """

    def __init__(self, kind=None, m=None, a=None, p=None, n_start=1):
        self.kind, self.m, self.a, self.p, self.n_start = kind, m, a, p, n_start
        self.total, self.n = 0.0, 0
        self._at = None

    def _step_cells(self, d: int) -> int:
        return d

    def _block_input(self, xs, lo, hi):
        d = self._d = xs.shape[-1]
        m = None if self.m is None else np.broadcast_to(self.m, (d, d))
        full = not isinstance(xs, Draws) or (m is not None and not np.array_equal(m, m.T))
        rows, cols = self._entries = _scan_entries(d, full)
        self._m = None if m is None else m[rows, cols][:, None]
        if isinstance(xs, Draws):
            return xs.entries(lo, hi, rows, cols)
        return np.ascontiguousarray(np.moveaxis(xs[:, lo:hi][..., rows, cols], 0, -1))

    @np.errstate(over="ignore", invalid="ignore")
    def _block(self, sums, gammas):
        # running sums in step order, in place: + the total so far (0.0 at
        # first, which turns a -0.0 into 0.0 as 0.0 + x does), then each
        # step's entries plus those of the step before.  A loop of plane
        # adds, not np.add.accumulate: accumulate runs its inner loop along
        # the step axis, strided, 3-5x slower on planes of 512 trials.  This
        # is the one loop that sums draws over steps
        sums[0] += self.total
        for step, before in zip(sums[1:], sums):
            step += before
        # a copy: a view of the last sums would keep the whole block alive
        # while the next one is built
        self.total = sums[-1].copy()
        self.n += len(sums)
        return (sums,)

    @np.errstate(over="ignore", invalid="ignore")
    def _events(self, sums):
        counts = np.arange(self.n - len(sums) + 1, self.n + 1)
        # steps before n_start are not tested, nor any step of a scan with no kind
        live = len(sums) if self.kind is None else np.searchsorted(counts, self.n_start)
        events = np.zeros((len(sums), sums.shape[-1]), dtype=bool)
        if live < len(sums):
            events[live:] = self._scan(sums[live:], counts[live:])
        return events

    def _scan(self, sums, counts):
        """Events of the running means ``sums / counts``, ``(n, trials)``."""
        d, low = self._d, self._d * (self._d + 1) // 2
        level, exact, power, scale = mg._scan_test(self.kind, self.a, self.p, d)
        dev = sums / counts[:, None, None]
        dev = mg._scan_deviation(self.kind, dev, self._m, out=dev)
        if power is None:
            settled = np.zeros(dev.shape[::2], dtype=bool)
        else:
            sq = _frobenius_sq(dev, d)
            if dev.shape[1] > low:
                # eigvalsh never reads the upper triangle, but a non-finite
                # entry there crosses
                sq[~np.isfinite(dev[:, low:]).all(axis=1)] = np.nan
            settled = sm.settles(sq, level, d, power, scale)
        rows = np.moveaxis(dev, 1, -1)
        return sm.unsettled_events(settled, lambda left: exact(self._matrices(rows[left]), level))

    def _matrices(self, picked):
        """The matrices of the entry rows ``picked``, ``(count, entries)``: every
        entry in its place, the lower triangle mirrored where the upper is not held."""
        d, (rows, cols) = self._d, self._entries
        place = np.full((d, d), -1)
        place[rows, cols] = np.arange(len(rows))
        return picked[:, np.where(place < 0, place.T, place).ravel()].reshape(-1, d, d)

    def _stop(self, block, steps, rows):
        (sums,) = block
        first = self.n - len(sums) + 1
        if len(rows) == sums.shape[-1] and (steps == steps[0]).all():
            # every trial stops at one step, as at a fixed time: one plane gather
            self._at = (sums[steps[0]] / (first + steps[0])).T
            return
        if self._at is None:
            self._at = np.empty(sums.shape[:0:-1])
        self._at[rows] = sums[steps, :, rows] / (first + steps)[:, None]

    @property
    def at_stop(self):
        """``Xbar_tau`` of each trial, ``(trials, d, d)``, formed when read."""
        return None if self._at is None else self._matrices(self._at)


@lru_cache(maxsize=None)
def _scan_entries(d: int, full: bool):
    """The entries of a scan's planes, as row and column indices: the
    diagonal, then the strict lower triangle, then (``full``) the strict
    upper triangle."""
    lower = np.tril_indices(d, -1)
    upper = np.triu_indices(d, 1) if full else ((), ())
    entries = np.concatenate([np.tile(np.arange(d), (2, 1)), lower, upper], axis=1).astype(np.intp)
    entries.flags.writeable = False
    return tuple(entries)


def _frobenius_sq(planes, d: int):
    """``||S||_F^2`` per row of the entry planes ``(k, entries, trials)`` of
    :func:`_scan_entries`, for the symmetric ``S`` that ``eigvalsh`` reads
    (the lower triangle, mirrored): the squares of the diagonal plus twice
    those of the strict lower triangle, summed in another order than
    :func:`~matconc.symmat._eig_frobenius_sq` sums them."""
    sq = np.einsum("kpt,kpt->kt", planes[:, :d], planes[:, :d])
    if d > 1:
        lower = planes[:, d : d * (d + 1) // 2]
        sq += 2.0 * np.einsum("kpt,kpt->kt", lower, lower)
    return sq


def first_crossing(proc: _Process, xs, gammas=None, taus=None) -> np.ndarray:
    """Step ``proc`` along stacked paths ``xs`` of shape (trials, horizon, d, d).

    The one loop that steps a stack: every coverage run (a fixed-time run
    is a :class:`MeanScan` stopped at ``n``) and
    :func:`sequential_test_stops`.  ``xs`` is the stack or the
    :class:`~matconc.generators.Draws` that stand for it.  The steps go
    to ``proc`` in blocks of ``k`` consecutive steps, ``k = max(1,
    _MEAN_CHUNK_CELLS // (trials d^2))``: a block is built step-major,
    ``(k, trials, d, d)`` (:meth:`~matconc.generators.Draws.steps`), the
    process runs its recurrence through the block and keeps each step's
    state, and one call of its decision rule gives the events of all
    ``k * trials`` states (see :class:`_Process`).  A :class:`MeanScan`
    builds no matrix there: its block is one ``(k, trials)`` plane per
    entry (:meth:`~matconc.generators.Draws.entries`), with ``d`` in
    place of ``d^2``.  Step ``n`` uses ``gammas[n - 1]``.  A trial stops
    at its first crossing, or at its entry of ``taus`` (in
    ``1..horizon``) when given, found with one ``argmax`` over the block's
    steps or read off ``taus``; with ``taus`` no event is computed.
    ``at_stop`` takes the value of the state at the stopping step (a
    scan's ``Xbar_tau``).  A stopped trial keeps running to the end of its
    block, where a :class:`FactorProcess` restarts it.  Every stop and
    value equals that of a loop that takes one observation of every trial
    at a time, applies the decision rule to each state and stops at the
    first step that crosses, bit for bit; a state with a non-finite entry
    raises DomainError only at a step that such a loop would reach.
    Returns each trial's stopping step, 0 for a trial that never stopped;
    ``proc.at_stop`` then holds the value at the stopping step, or at the
    last step run for trials that never stopped.  A stack without a trial
    or a step raises DimMismatch.
    """
    size, horizon, d = xs.shape[0], xs.shape[1], xs.shape[-1]
    if size == 0 or horizon == 0:
        raise DimMismatch(f"paths must be shaped (trials >= 1, horizon >= 1, d, d), got {xs.shape}")
    # no trial stops before the smallest of taus, and no block runs past the largest
    first, horizon = (1, horizon) if taus is None else (taus.min(), min(horizon, int(taus.max())))
    k = max(1, _MEAN_CHUNK_CELLS // (size * proc._step_cells(d)))
    stop = np.zeros(size, dtype=np.int64)
    for lo in range(0, horizon, k):
        hi = min(lo + k, horizon)
        gs = [None] * (hi - lo) if gammas is None else [float(g) for g in gammas[lo:hi]]
        # let go of the last block before the next one is built
        block = crossed = None
        block = proc._block(proc._block_input(xs, lo, hi), gs)
        n = len(block[0])
        if taus is None:
            crossed = proc._events(*block)
            rows = np.flatnonzero((stop == 0) & crossed.any(axis=0))
        else:
            rows = np.flatnonzero((lo < taus) & (taus <= lo + n)) if lo + n >= first else ()
        if len(rows):
            steps = crossed[:, rows].argmax(axis=0) if taus is None else taus[rows] - (lo + 1)
            stop[rows] = lo + 1 + steps
            proc._stop(block, steps, rows)
            if stop.all():
                break
        if n < hi - lo:
            raise DomainError("matrix entries must be finite")
    rows = np.flatnonzero(stop == 0)
    if len(rows):
        proc._stop(block, np.full(len(rows), n - 1), rows)
    return stop


def sequential_test_stops(gen, m, v, gammas, alpha: float, trials: int, seed: int) -> dict:
    """Stopping steps of the MATRIX and SCALAR sequential tests on simulated paths.

    Trial ``t`` draws its path from ``substream(seed, 0xC0DE, t)``, with
    the RNG calls of :meth:`~matconc.generators.GeneratorSpec.sample_path`;
    the draws of a block of trials, sized by the cell budget, are joined
    into one :class:`~matconc.generators.Draws`, and each step builds only
    its own matrices.  Both rules run the
    self-normalized process with variance bound ``v`` against the
    hypothesized mean ``m`` with step sizes ``gammas``: MATRIX rejects
    when ``Y_n`` escapes ``(d / alpha) I``, SCALAR when ``L_n`` reaches
    ``d / alpha``.  Returns ``{"matrix": steps, "scalar": steps}``, a
    step of 0 marking a trial that never rejected.
    """
    d, horizon = gen.dim, len(gammas)
    block = _block_size(horizon, d, _PATH_BLOCK_CAP)
    stops = {"matrix": [], "scalar": []}
    for lo in range(0, trials, block):
        xs = Draws.join([
            gen.draw(_rng.substream(seed, 0xC0DE, t), 1, horizon)
            for t in range(lo, min(trials, lo + block))
        ])
        matrix = FactorProcess("SELF_NORMALIZED", m, d / alpha, v=v)
        stops["matrix"].append(first_crossing(matrix, xs, gammas))
        stops["scalar"].append(first_crossing(TraceExpProcess(m, v, alpha), xs, gammas))
    return {rule: np.concatenate(s) for rule, s in stops.items()}
