"""The block path of the sequential processes equals stepping one observation at a time.

``first_crossing`` hands a process ``k`` consecutive steps at a time, and
the process does the block's state-free work (deviations, factor pairs,
trace-exp increments, running sums and scan tests) in one call before it
takes the steps.  These tests force ``k`` to 1, to 3 (ragged: the horizon
is not a multiple of 3) and to the whole horizon, and compare the stops
and the values at the stops, bit for bit, with a per-step reference loop:
the unscreened rule of each process on a state of its own, written here
from the kernels of ``martingales`` and ``scalar_e``.  Each test that
forces ``k`` also checks that ``first_crossing`` ran blocks of ``k`` steps.
The kernels' block forms (``factor_pair``, ``sn_increments``) are compared
with their per-step calls on their own, and the one-path ``step`` that
``matconc test`` takes with the reference on one path.

A block's events come from one decision over all of its states, after the
recurrence has run to the block's end, so the edge cases of that order
are pinned too: trials that stop inside a block and keep running to its
end, a non-finite state the per-step loop would or would not reach, every
trial stopping in the first block, and stopping times given in advance.
"""

import warnings

import numpy as np
import pytest

from matconc import martingales as mg
from matconc import processes as pr
from matconc import scalar_e as se
from matconc import simulator as sim
from matconc import symmat as sm
from matconc.errors import DomainError
from matconc.fixed_bounds import MGF_KINDS, MgfSpec
from matconc.generators import GeneratorSpec
from matconc.rng import substream

TRIALS, HORIZON = 24, 25


# --- the per-step reference ---------------------------------------------------


class RefProcess:
    """The unscreened per-step rule of ``proc`` on a state of its own.

    Only ``proc``'s parameters are read; nothing of it is stepped.
    :meth:`advance` takes one observation per trial, ``(trials, d, d)``
    (or one ``(d, d)`` matrix), and returns each trial's crossing event
    and statistic: ``exceeds`` on ``Y = L L^T`` for a factor process,
    ``log tr e^S`` or the Hoeffding value against ``log(d / alpha)`` for
    a trace-exp process, the scan test of the running mean and the mean
    itself for a scan.
    """

    def __init__(self, proc):
        self.proc = proc
        if isinstance(proc, pr.FactorProcess):
            self.state = mg.MatSupermartingaleState.start(proc.m.shape[0])
        elif isinstance(proc, pr.TraceExpProcess):
            self.state = se.TraceExpState.start(proc.m.shape[0])
        else:
            self.total, self.n = 0.0, 0

    def advance(self, x, gamma):
        p = self.proc
        if isinstance(p, pr.FactorProcess):
            roots = mg.factor_pair(p.builder, x - p.m, gamma, root=True, **p.params)
            self.state = self.state.advance(*roots)
            y = self.state.value()
            return mg.exceeds(y, p.a), y
        if isinstance(p, pr.TraceExpProcess):
            self.state = se.sn_advance(self.state, x - p.m, p.v, gamma, p.b)
            s = self.state.exponent() if p.b is None else sm.symmat_stack(self.state.gz, trusted=True)
            if not np.isfinite(s).all():
                raise DomainError("matrix entries must be finite")
            value = se.log_trace_exp(s) if p.b is None else se.log_hoeffding_eprocess_value(self.state)
            return value >= p.level, value
        self.total, self.n = self.total + x, self.n + 1
        mean = self.total / self.n
        if self.n < p.n_start:
            return np.zeros(x.shape[:-2], dtype=bool), mean
        return mg.scan_exceeds(p.kind, mean, p.m, p.a, p.p), mean

    def restart(self, rows):
        """Restart the products of stopped trials, which keeps them bounded."""
        if isinstance(self.proc, pr.FactorProcess):
            self.state.left[rows] = np.eye(self.proc.m.shape[0])


def ref_first_crossing(proc, xs, gammas=None, taus=None):
    """``first_crossing`` one step at a time: ``(stops, at_stop)`` of :class:`RefProcess`."""
    ref = RefProcess(proc)
    size, horizon = xs.shape[:2]
    stop = np.zeros(size, dtype=np.int64)
    at_stop = None
    for n in range(1, horizon + 1):
        crossed, value = ref.advance(xs[:, n - 1], None if gammas is None else float(gammas[n - 1]))
        if at_stop is None:
            at_stop = np.empty_like(value)
        newly = (stop == 0) & (crossed if taus is None else taus == n)
        stop[newly] = n
        at_stop[newly] = value[newly]
        ref.restart(newly)
        if stop.all():
            break
    live = stop == 0
    at_stop[live] = value[live]
    return stop, at_stop


def record_blocks(proc):
    """The number of steps of each block that ``proc`` is handed, in order."""
    sizes, block = [], proc._block
    proc._block = lambda xs, gammas: sizes.append(len(xs)) or block(xs, gammas)
    return sizes


def assert_blocks_of(sizes, k):
    """Every block but the last has ``k`` steps, the last at most ``k``."""
    assert sizes and all(n == k for n in sizes[:-1]) and sizes[-1] <= k


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# --- first_crossing on blocks ---------------------------------------------------

#: (bound, generator kind, dim, params): the UMVI builders with every
#: stopping rule, MVI, URSN, USMHI and the five scans; levels low enough
#: that trials stop (and restart) inside blocks
CASES = [
    ("UMVI_MGF", "RADEMACHER_SCALED", 2, {"alpha": 0.99, "gamma_scale": 1.5}),
    ("UMVI_MGF", "GAUSSIAN_SCALED", 1, {"alpha": 0.5, "stopping": {"kind": "geometric", "q": 0.1}}),
    ("UMVI_MGF", "GAUSSIAN_SCALED", 5, {"alpha": 0.99, "gamma_scale": 2.0}),
    ("UMVI_MGF", "BOUNDED_PSD", 2, {"alpha": 0.5, "stopping": {"kind": "fixed", "n": 10}}),
    ("UMVI_BETTING", "BOUNDED_PSD", 2, {"alpha": 0.99, "gamma_scale": 0.8}),
    ("UMVI_SELF_NORMALIZED", "GAUSSIAN_SCALED", 2, {"alpha": 0.99}),
    ("UMVI_SELF_NORMALIZED", "IID_WISHART_LIKE", 5, {"alpha": 0.5, "stopping": {"kind": "fixed", "n": 8}}),
    ("UMVI_SYMMETRIC", "SYMMETRIC_HEAVY", 2, {"alpha": 0.5, "stopping": {"kind": "fixed", "n": 7}}),
    ("UMVI_SYMMETRIC", "RADEMACHER_SCALED", 1, {"alpha": 0.5, "stopping": {"kind": "geometric", "q": 0.2}}),
    ("MVI", "BOUNDED_PSD", 2, {"alpha": 0.9, "gamma_scale": 0.8}),
    ("URSN", "GAUSSIAN_SCALED", 2, {"alpha": 0.5}),
    ("URSN", "IID_WISHART_LIKE", 5, {"alpha": 0.5, "stopping": {"kind": "geometric", "q": 0.1}}),
    ("USMHI", "RADEMACHER_SCALED", 2, {"alpha": 0.99, "gamma_scale": 1.0}),
    ("USMHI", "BOUNDED_PSD", 1, {"alpha": 0.5, "stopping": {"kind": "fixed", "n": 11}}),
    ("DOOB", "GAUSSIAN_SCALED", 2, {"n": HORIZON, "target": 0.9}),
    ("XMCI", "EXCHANGEABLE_MIXTURE", 2, {"n_max": HORIZON, "target": 0.9}),
    # n_start = 5 falls inside the second block of three steps
    ("XMCI2", "GAUSSIAN_SCALED", 2, {"n_max": HORIZON, "n_start": 5, "target": 0.9}),
    ("XMCI2", "RADEMACHER_SCALED", 5, {"n_max": HORIZON, "n_start": 4, "target": 0.9}),
    ("XMPCI", "HEAVY_PSD", 2, {"n_max": HORIZON, "target": 0.9}),
    ("TRACE_PCHEB", "SYMMETRIC_HEAVY", 2, {"n_max": HORIZON, "target": 0.9}),
    ("TRACE_PCHEB", "GAUSSIAN_SCALED", 1, {"n_max": HORIZON, "p": 1.2, "target": 0.9}),
]


def _taus(plan, horizon, g):
    stopping = plan.get("stopping") or {"kind": "first_crossing"}
    if stopping["kind"] == "geometric":
        return np.minimum(g.geometric(stopping["q"], TRIALS), horizon)
    if stopping["kind"] == "fixed":
        return np.full(TRIALS, stopping["n"])
    return None


@pytest.mark.parametrize("k", [1, 3, HORIZON])
@pytest.mark.parametrize("bound,kind,d,params", CASES)
def test_block_stops_and_values_match_a_per_step_loop(bound, kind, d, params, k, monkeypatch):
    entry = sim._entry(bound)
    gen = sim.default_generator(bound, kind, d)
    plan = entry.prepare(params, gen, sim.McConfig(trials=TRIALS, horizon=HORIZON))
    horizon = plan["horizon"]
    draws = gen.draw(substream(4242, entry.tag, d), TRIALS, horizon)
    taus = _taus(plan, horizon, substream(4242, entry.tag, 7))
    blocked = plan["process"]()
    monkeypatch.setattr(pr, "_MEAN_CHUNK_CELLS", k * TRIALS * blocked._step_cells(d))
    sizes = record_blocks(blocked)
    stop = pr.first_crossing(blocked, draws, plan.get("gammas"), taus)
    want, want_at = ref_first_crossing(plan["process"](), draws[:, :], plan.get("gammas"), taus)
    assert_blocks_of(sizes, k)
    assert_bitwise(stop, want)
    assert_bitwise(blocked.at_stop, want_at)
    # the comparison must see trials stop, some of them inside a block of three
    assert 0 < np.count_nonzero(stop)
    assert any(n % 3 for n in stop if n)


@pytest.mark.parametrize("k", [1, 3, HORIZON])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 2, 3])
def test_power_compare_stops_match_a_per_step_loop(trials, d, k, monkeypatch):
    """``sequential_test_stops`` (``matconc power-compare``) at the few-trial
    shapes of its benchmark: both rules' stops and values at the stops."""
    gen = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=d, c=0.4 * np.eye(d))
    v = gen.variance()
    # a hypothesized mean below the truth, so trials stop inside blocks of three
    m = gen.mean() - 0.5 * np.eye(d)
    # power-compare's schedule: gamma_scale / (sqrt(lambda_max(V)) sqrt(n))
    gammas = 0.5 / (0.4 * np.sqrt(np.arange(1.0, HORIZON + 1)))
    monkeypatch.setattr(pr, "_MEAN_CHUNK_CELLS", k * trials * d * d)
    runs, crossing = [], pr.first_crossing

    def recorded(proc, xs, gammas):
        runs.append((proc, xs, record_blocks(proc)))
        return crossing(proc, xs, gammas)

    monkeypatch.setattr(pr, "first_crossing", recorded)
    stops = pr.sequential_test_stops(gen, m, v, gammas, 0.05, trials, seed=11)
    assert [type(proc) for proc, _, _ in runs] == [pr.FactorProcess, pr.TraceExpProcess]
    for (proc, xs, sizes), rule in zip(runs, ("matrix", "scalar")):
        want, want_at = ref_first_crossing(proc, xs[:, :], gammas)
        assert_blocks_of(sizes, k)
        assert_bitwise(stops[rule], want)
        assert_bitwise(proc.at_stop, want_at)
        assert want.any()


@pytest.mark.parametrize("k", [1, 3, HORIZON])
@pytest.mark.parametrize("rule", ["URSN", "USMHI"])
def test_trace_exp_blocks_keep_the_kahan_carries_of_single_steps(rule, k, monkeypatch):
    """Step sizes from 1 down to 1e-8 leave non-zero carries in both Kahan
    sums; a block's state is that of ``sn_advance`` step by step, bit for bit."""
    d = 2
    gen = sim.default_generator("USMHI", "RADEMACHER_SCALED", d)
    m, v, b = gen.mean(), gen.variance(), gen.sq_dev_bound()
    xs = gen.draw(substream(31, 4), TRIALS, HORIZON)[:, :]
    gammas = np.geomspace(1.0, 1e-8, HORIZON)
    proc = pr.TraceExpProcess(m, v, 0.5) if rule == "URSN" else pr.TraceExpProcess(m, None, 0.5, b)
    _, stop = _blocked(monkeypatch, k, xs, lambda: proc, gammas, np.full(TRIALS, HORIZON))
    assert (stop == HORIZON).all()
    want = se.TraceExpState.start(d)
    for n, gamma in enumerate(gammas):
        want = se.sn_advance(want, xs[:, n] - m, proc.v, float(gamma), proc.b)
    got = proc.state
    assert got.n == want.n == HORIZON
    fields = ("gz", "gz_carry", "sum_gamma", "sum_gamma_sq_b")
    fields += ("pc", "pc_carry") if rule == "URSN" else ()
    for name in fields:
        assert_bitwise(getattr(got, name), getattr(want, name))
    assert got.gz_carry.any()
    if rule == "URSN":
        assert got.pc_carry.any()
    else:
        assert not got.pc.any() and not got.pc_carry.any()


def test_no_block_runs_past_the_last_stopping_time(monkeypatch):
    gen = sim.default_generator("UMVI_SYMMETRIC", "SYMMETRIC_HEAVY", 1)
    params = {"stopping": {"kind": "fixed", "n": 7}}
    plan = sim._entry("UMVI_SYMMETRIC").prepare(params, gen, sim.McConfig(trials=TRIALS, horizon=HORIZON))
    draws = gen.draw(substream(6, 1), TRIALS, HORIZON)
    built = []
    monkeypatch.setattr(type(draws), "steps", lambda self, lo, hi: built.append(hi) or draws[:, lo:hi].swapaxes(0, 1).copy())
    stop = pr.first_crossing(plan["process"](), draws, plan["gammas"], np.full(TRIALS, 7))
    assert stop.tolist() == [7] * TRIALS and built == [7]


def test_a_stack_of_matrices_steps_like_its_draws(monkeypatch):
    """``first_crossing`` on an ndarray stack takes the same blocks as on draws."""
    gen = sim.default_generator("URSN", "GAUSSIAN_SCALED", 2)
    plan = sim._entry("URSN").prepare({"alpha": 0.5}, gen, sim.McConfig(trials=TRIALS, horizon=HORIZON))
    draws = gen.draw(substream(5, 1), TRIALS, HORIZON)
    monkeypatch.setattr(pr, "_MEAN_CHUNK_CELLS", 4 * TRIALS * 4)
    stack = draws[:, :]
    before = stack.copy()
    a, b = plan["process"](), plan["process"]()
    sizes_a, sizes_b = record_blocks(a), record_blocks(b)
    assert_bitwise(pr.first_crossing(a, stack, plan["gammas"]), pr.first_crossing(b, draws, plan["gammas"]))
    assert_blocks_of(sizes_a, 4)
    assert sizes_b == sizes_a
    assert_bitwise(a.at_stop, b.at_stop)
    assert_bitwise(stack, before)  # the caller's stack is not overwritten


def _lone_processes():
    """Every process ``matconc test`` can run, on a BOUNDED_PSD law at d = 2."""
    gen = sim.default_generator("UMVI_MGF", "BOUNDED_PSD", 2)
    m, v, b = gen.mean(), gen.variance(), gen.sq_dev_bound()
    params = {"MGF": {"mgf": MgfSpec("SYM_HOEFFDING", b)}, "SELF_NORMALIZED": {"v": v}}
    makers = [lambda bl=bl: pr.FactorProcess(bl, m, 4.0, **params.get(bl, {})) for bl in mg.BUILDER_KINDS]
    makers += [lambda: pr.TraceExpProcess(m, v, 0.5), lambda: pr.TraceExpProcess(m, None, 0.5, b)]
    return gen, makers


def test_lone_step_matches_the_per_step_reference():
    """``step`` (what ``matconc test`` calls) is the per-step reference on one path."""
    gen, makers = _lone_processes()
    path = gen.sample_path(substream(9, 9), 30)
    for make in makers:
        proc, ref = make(), RefProcess(make())
        for n, x in enumerate(path, start=1):
            gamma = 0.4 / n**0.5
            event, value = ref.advance(x, gamma)
            assert_bitwise(proc.step(x, gamma), event)
            assert_bitwise(proc.value, value)


def test_a_scan_does_not_overwrite_its_paths():
    scan = pr.MeanScan("XMCI", np.zeros((2, 2)), 1.0)
    xs = np.full((3, 2, 2, 2), -0.0)
    assert_bitwise(pr.first_crossing(scan, xs), np.zeros(3, dtype=np.int64))
    assert_bitwise(xs, np.full((3, 2, 2, 2), -0.0))
    # each entry's total is 0.0 + (-0.0) + (-0.0)
    assert not scan.total.any() and not np.signbit(scan.total).any()


# --- the trace-exp buffer and the scan's running sums, block by block -------------


def _trace_exp_path(trials, n, seed=41):
    """A null USMHI-default path of ``n`` steps per trial and step sizes from 1
    down to 1e-8, which leave non-zero carries in both Kahan sums."""
    gen = sim.default_generator("USMHI", "RADEMACHER_SCALED", 2)
    xs = gen.draw(substream(seed, trials), trials, n)[:, :]
    return xs, [float(g) for g in np.geomspace(1.0, 1e-8, n)]


def _block_windows(n, k):
    """``(lo, hi)`` of consecutive blocks of ``k`` steps over ``n`` steps."""
    return [(lo, min(lo + k, n)) for lo in range(0, n, k)]


@pytest.mark.parametrize("k", [1, 7, HORIZON])
@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize("rule", ["URSN", "USMHI"])
def test_trace_exp_state_after_each_block_is_the_one_path_steps(rule, trials, k):
    """Blocks of ``k`` steps, three whole ones and a ragged one, leave ``gz``,
    ``pc`` and their carries bitwise where each trial's one-path ``step``
    loop leaves them, and each step's exponent is that loop's."""
    n = 3 * k + 2
    xs, gammas = _trace_exp_path(trials, n)
    make = _trace_exp_maker(rule)
    proc, lone = make(), [make() for _ in range(trials)]
    windows = _block_windows(n, k)
    assert len(windows) >= 4
    for lo, hi in windows:
        mat, _, _ = proc._block(proc._block_input(xs, lo, hi), gammas[lo:hi])
        assert len(mat) == hi - lo
        for j in range(lo, hi):
            for t, one in enumerate(lone):
                one.step(xs[t, j], gammas[j])
                state = one.state
                s = state.exponent() if rule == "URSN" else sm.symmat_stack(state.gz, trusted=True)
                assert_bitwise(mat[j - lo, t], s)
        for t, one in enumerate(lone):
            for name in ("gz", "gz_carry", "pc", "pc_carry"):
                got = np.broadcast_to(getattr(proc.state, name), (trials, 2, 2))[t]
                assert_bitwise(got, np.broadcast_to(getattr(one.state, name), (2, 2)))
        assert proc.state.n == hi
    assert proc.state.gz_carry.any()
    if rule == "URSN":
        assert proc.state.pc_carry.any()


@pytest.mark.parametrize("k", [3, 7, HORIZON])
@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize("rule", ["URSN", "USMHI"])
def test_a_non_finite_increment_in_mid_block_ends_the_block_before_its_step(rule, trials, k):
    """After a whole block, a NaN observation at step ``j`` of the next block
    (not its first) ends that block with the ``j`` finite states before it,
    each bitwise the per-step reference's."""
    n = 2 * k
    xs, gammas = _trace_exp_path(trials, n)
    j = k // 2 + 1
    xs[trials - 1, k + j] = np.nan
    make = _trace_exp_maker(rule)
    proc, ref = make(), RefProcess(make())
    for lo, hi in _block_windows(n, k):
        block = proc._block(proc._block_input(xs, lo, hi), gammas[lo:hi])
        want = k if lo == 0 else j
        assert all(len(s) == want for s in block if s is not None)
        for step in range(lo, lo + want):
            _, value = ref.advance(xs[:, step], gammas[step])
            got = proc._values(*(None if s is None else s[step - lo] for s in block))
            assert_bitwise(got, value)


@pytest.mark.parametrize("k", [1, 7, HORIZON])
def test_the_scan_running_sums_are_those_of_a_step_loop(k):
    """``MeanScan._block`` sums its planes in place, block after block, as
    the loop ``sums[0] += total; sums[j] += sums[j - 1]`` does, bit for bit:
    an entry of -0.0 in the first step becomes 0.0 (0.0 + -0.0), later ones
    add as they come."""
    rng = np.random.default_rng(k)
    n, trials, d = 3 * k + 2, 4, 2
    xs = rng.standard_normal((trials, n, d, d)) * 1e-3
    xs = (xs + np.swapaxes(xs, -1, -2)) / 2
    xs[:, 0] = -0.0
    xs[::2, 1:] = np.where(rng.random((2, n - 1, d, d)) < 0.3, -0.0, xs[::2, 1:])
    scan, total = pr.MeanScan("XMCI", np.zeros((d, d)), 1e6), 0.0
    for lo, hi in _block_windows(n, k):
        planes = scan._block_input(xs, lo, hi)
        want = planes.copy()
        want[0] += total
        for j in range(1, len(want)):
            want[j] += want[j - 1]
        total = want[-1]
        (sums,) = scan._block(planes, [None] * (hi - lo))
        assert sums is planes
        assert_bitwise(planes, want)
        assert_bitwise(scan.total, total)
        assert not scan._events(sums).any()
        if lo == 0:
            assert not np.signbit(planes[0]).any()


# --- the kernels' block forms -----------------------------------------------------


def _devs(rng, k, trials, d, scale):
    g = rng.standard_normal((k, trials, d, d))
    return scale * (g + np.swapaxes(g, -1, -2)) / 2


def _psd(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T / d + 0.1 * np.eye(d)


#: (builder, MGF kind): the four builders, MGF with each family of the menu
BUILDERS = [(b, None) for b in mg.BUILDER_KINDS if b != "MGF"] + [("MGF", kind) for kind in MGF_KINDS]


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("builder,mgf_kind", BUILDERS)
def test_factor_pair_block_equals_per_step_calls(builder, mgf_kind, d):
    rng = np.random.default_rng(d)
    kw = {}
    if builder == "MGF":
        kw["mgf"] = MgfSpec(mgf_kind, _psd(rng, d))
    elif builder == "SELF_NORMALIZED":
        kw["v"] = _psd(rng, d)
    for k, trials in ((4, 6), (1, 6), (3, None)):
        shape = (k, d, d) if trials is None else (k, trials, d, d)
        dev = _devs(rng, k, trials or 1, d, 0.2).reshape(shape)
        gammas = list(0.9 / np.sqrt(np.arange(1.0, k + 1.0)))
        for root in (True, False):
            a, e = mg.factor_pair(builder, dev, gammas, root=root, **kw)
            assert e.shape == dev.shape
            assert (a is None) == (builder in ("BETTING", "SYMMETRIC_DIST"))
            for j, gamma in enumerate(gammas):
                a_j, e_j = mg.factor_pair(builder, dev[j], gamma, root=root, **kw)
                assert_bitwise(e[j], e_j)
                if a is not None:
                    assert a.shape == (k, d, d)
                    assert_bitwise(a[j], a_j)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_sn_increments_block_equals_per_step_calls(d):
    rng = np.random.default_rng(10 + d)
    v, b = _psd(rng, d), _psd(rng, d)
    dev = _devs(rng, 5, 7, d, 0.5)
    gammas = list(0.7 / np.sqrt(np.arange(1.0, 6.0)))
    for vv, bb in ((v, None), (None, b), (v, b)):
        block = se.sn_increments(dev, vv, gammas, bb)
        for j, gamma in enumerate(gammas):
            for got, want in zip(block, se.sn_increments(dev[j], vv, gamma, bb)):
                assert (got is None) == (want is None)
                if want is not None:
                    assert_bitwise(got[j], want)


# --- edge cases of deciding a block in one call -----------------------------------

KS = [1, 3, HORIZON]


def _shifted_paths(kind, d, shifts, seed=77):
    """Draws of the default ``kind`` law at ``d``, each trial's path moved by ``shifts[t] I``."""
    gen = sim.default_generator("UMVI_MGF", kind, d)
    xs = gen.draw(substream(seed, 1), len(shifts), HORIZON)[:, :]
    return gen, xs + np.asarray(shifts, dtype=float)[:, None, None, None] * np.eye(d)


def _blocked(monkeypatch, k, xs, make, *args):
    proc = make()
    monkeypatch.setattr(pr, "_MEAN_CHUNK_CELLS", k * xs.shape[0] * proc._step_cells(xs.shape[-1]))
    sizes = record_blocks(proc)
    stop = pr.first_crossing(proc, xs, *args)
    assert_blocks_of(sizes, k)
    return proc, stop


@pytest.mark.parametrize("k", KS)
def test_a_product_that_overflows_after_its_stop_neither_raises_nor_warns(k, monkeypatch):
    """Every trial crosses by step 2; the per-step loop stops there, while a
    block keeps multiplying its stopped trials to its end, past float range
    (``Y`` at step 3, ``L`` from step 5 on)."""
    d = 2
    gen, xs = _shifted_paths("RADEMACHER_SCALED", d, np.where(np.arange(TRIALS) % 2, 300.0, 200.0))
    gammas = np.ones(HORIZON)

    def make():
        return pr.FactorProcess("MGF", np.zeros((d, d)), float(np.exp(250.0)), mgf=MgfSpec("RADEMACHER", gen.c))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, want_at = ref_first_crossing(make(), xs, gammas)
        proc, stop = _blocked(monkeypatch, k, xs, make, gammas)
    assert sorted(set(want.tolist())) == [1, 2]
    assert_bitwise(stop, want)
    assert_bitwise(proc.at_stop, want_at)
    # stopped trials restart at the end of their block
    assert np.isfinite(proc.state.left).all()


def _trace_exp_maker(b_kind):
    gen = sim.default_generator("USMHI", "RADEMACHER_SCALED", 2)
    m, v, b = gen.mean(), gen.variance(), gen.sq_dev_bound()
    if b_kind == "URSN":
        return lambda: pr.TraceExpProcess(m, v, 0.5)
    return lambda: pr.TraceExpProcess(m, None, 0.5, b)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("rule", ["URSN", "USMHI"])
def test_a_non_finite_trace_exp_state_raises_only_where_steps_would_reach_it(rule, k, monkeypatch):
    make = _trace_exp_maker(rule)
    _, xs = _shifted_paths("RADEMACHER_SCALED", 2, np.linspace(1.0, 3.0, TRIALS))
    gammas = 0.8 / np.sqrt(np.arange(1.0, HORIZON + 1))
    clean, _ = ref_first_crossing(make(), xs, gammas)
    last = int(clean.max())
    assert clean.all() and 3 < last < HORIZON - 1
    # a NaN observation makes trial 0's state non-finite from its step on:
    # stepping never reaches the step after the last stop, but does reach the last stop
    bad = xs.copy()
    bad[0, last] = np.nan
    want, want_at = ref_first_crossing(make(), bad, gammas)
    proc, stop = _blocked(monkeypatch, k, bad, make, gammas)
    assert_bitwise(stop, want)
    assert_bitwise(proc.at_stop, want_at)
    bad = xs.copy()
    bad[0, last - 1] = np.nan
    with pytest.raises(DomainError):
        ref_first_crossing(make(), bad, gammas)
    with pytest.raises(DomainError):
        _blocked(monkeypatch, k, bad, make, gammas)


@pytest.mark.parametrize("k", [3, HORIZON])
@pytest.mark.parametrize("rule", ["MGF", "URSN", "USMHI"])
def test_every_trial_stops_in_the_first_block(rule, k, monkeypatch):
    gen, xs = _shifted_paths("RADEMACHER_SCALED", 2, np.linspace(2.0, 8.0, TRIALS))
    if rule == "MGF":

        def make():
            return pr.FactorProcess("MGF", gen.mean(), 4.0, mgf=MgfSpec("RADEMACHER", gen.c))

    else:
        make = _trace_exp_maker(rule)
    gammas = 0.8 / np.sqrt(np.arange(1.0, HORIZON + 1))
    want, want_at = ref_first_crossing(make(), xs, gammas)
    # trials stop at different steps, all inside the first block of three
    assert 0 < want.min() < want.max() <= 3
    blocks = []

    def counted():
        proc = make()
        block = proc._block
        proc._block = lambda *args: blocks.append(1) or block(*args)
        return proc

    proc, stop = _blocked(monkeypatch, k, xs, counted, gammas)
    assert_bitwise(stop, want)
    assert_bitwise(proc.at_stop, want_at)
    assert len(blocks) == 1


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize(
    "bound,kind,params",
    [
        ("UMVI_MGF", "RADEMACHER_SCALED", {"alpha": 0.99, "gamma_scale": 1.5}),
        ("UMVI_SELF_NORMALIZED", "GAUSSIAN_SCALED", {"alpha": 0.99}),
        ("URSN", "GAUSSIAN_SCALED", {"alpha": 0.5}),
        ("USMHI", "RADEMACHER_SCALED", {"alpha": 0.99, "gamma_scale": 1.0}),
    ],
)
@pytest.mark.parametrize("stopping", [{"kind": "geometric", "q": 0.15}, {"kind": "fixed", "n": 11}])
def test_taus_stop_without_computing_events(bound, kind, params, stopping, k, monkeypatch):
    d = 2
    entry = sim._entry(bound)
    gen = sim.default_generator(bound, kind, d)
    plan = entry.prepare({**params, "stopping": stopping}, gen, sim.McConfig(trials=TRIALS, horizon=HORIZON))
    draws = gen.draw(substream(4243, entry.tag, d), TRIALS, HORIZON)
    taus = _taus(plan, HORIZON, substream(4243, entry.tag, 8))
    want, want_at = ref_first_crossing(plan["process"](), draws[:, :], plan["gammas"], taus)

    def no_screen(*args, **kwargs):
        raise AssertionError("an event was computed")

    monkeypatch.setattr(sm, "settles", no_screen)
    proc, stop = _blocked(monkeypatch, k, draws, plan["process"], plan["gammas"], taus)
    assert_bitwise(stop, want)
    assert_bitwise(proc.at_stop, want_at)
