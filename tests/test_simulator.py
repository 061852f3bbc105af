import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from matconc import fixed_bounds as fb
from matconc import processes as pr
from matconc import simulator as sim
from matconc.errors import ConfigError, IncompatiblePair
from matconc.generators import GeneratorSpec
from matconc.rng import spawn_pair, substream
from matconc.simulator import (
    FalsifyRecord,
    McConfig,
    _entry,
    compatible_generators,
    default_generator,
    default_run_specs,
    falsify_conjecture,
    registry_names,
    run_coverage,
)

FAST = McConfig(trials=2000, horizon=60, base_seed=7)


#: (name, family, tag, compatible generator kinds, the default first) of
#: every bound, in registry order: the tag keys a bound's substreams, so a
#: change here changes the draws of every seed
REGISTRY = [
    ("UMMI", "fixed", 0, ("ELLIPSOID_RANK1", "HEAVY_PSD", "BOUNDED_PSD")),
    ("UMCI1", "fixed", 1, ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD",
                           "SYMMETRIC_HEAVY", "EXCHANGEABLE_MIXTURE", "IID_WISHART_LIKE")),
    ("UMCI_N", "fixed", 2, ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD",
                            "IID_WISHART_LIKE")),
    ("PCHEB1", "fixed", 3, ("SYMMETRIC_HEAVY", "GAUSSIAN_SCALED", "RADEMACHER_SCALED",
                            "BOUNDED_PSD")),
    ("CHERNOFF1", "fixed", 4, ("RADEMACHER_SCALED", "GAUSSIAN_SCALED")),
    ("CHERNOFF_HOEFFDING", "fixed", 5, ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD")),
    ("UMVI_MGF", "path", 6, ("RADEMACHER_SCALED", "GAUSSIAN_SCALED", "BOUNDED_PSD")),
    ("UMVI_BETTING", "path", 7, ("BOUNDED_PSD",)),
    ("UMVI_SELF_NORMALIZED", "path", 8, ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD",
                                         "IID_WISHART_LIKE")),
    ("UMVI_SYMMETRIC", "path", 9, ("SYMMETRIC_HEAVY", "RADEMACHER_SCALED", "GAUSSIAN_SCALED",
                                   "BOUNDED_PSD")),
    ("MVI", "path", 10, ("BOUNDED_PSD",)),
    ("DOOB", "path", 11, ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD",
                          "IID_WISHART_LIKE")),
    ("XMCI", "path", 12, ("EXCHANGEABLE_MIXTURE", "GAUSSIAN_SCALED", "RADEMACHER_SCALED",
                          "BOUNDED_PSD", "IID_WISHART_LIKE")),
    ("XMCI2", "path", 13, ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD",
                           "IID_WISHART_LIKE")),
    ("XMPCI", "path", 14, ("HEAVY_PSD",)),
    ("TRACE_PCHEB", "path", 15, ("SYMMETRIC_HEAVY", "GAUSSIAN_SCALED", "RADEMACHER_SCALED",
                                 "BOUNDED_PSD")),
    ("URSN", "path", 16, ("GAUSSIAN_SCALED", "RADEMACHER_SCALED", "BOUNDED_PSD",
                          "IID_WISHART_LIKE")),
    ("USMHI", "path", 17, ("RADEMACHER_SCALED", "BOUNDED_PSD")),
]


def test_the_registry_is_pinned():
    got = [(name, _entry(name).family, _entry(name).tag, compatible_generators(name))
           for name in registry_names()]
    assert got == REGISTRY


def test_registry_covers_all_bound_families():
    names = registry_names()
    assert len(names) == 18
    for required in ("UMMI", "CHERNOFF1", "UMVI_BETTING", "MVI", "DOOB",
                     "XMCI", "XMPCI", "TRACE_PCHEB", "URSN", "USMHI"):
        assert required in names
    for name in names:
        kinds = compatible_generators(name)
        assert kinds, name
        # every advertised pairing must produce a viable default generator
        for kind in kinds:
            g = default_generator(name, kind, 2)
            assert g.dim == 2


def test_mcconfig_validation():
    with pytest.raises(ConfigError):
        McConfig(trials=0)
    with pytest.raises(ConfigError):
        McConfig(trials=100, horizon=0)
    with pytest.raises(ConfigError):
        McConfig(trials=100, workers=0)


def test_unknown_bound_and_incompatible_pair():
    gen = default_generator("UMMI", "HEAVY_PSD", 2)
    with pytest.raises(ConfigError):
        run_coverage("MARKOV_PLUS", gen, FAST)
    # UMMI needs PSD data with a known mean; plain Gaussian increments
    # are not in its compatibility list
    g2 = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=np.eye(2))
    with pytest.raises(IncompatiblePair):
        run_coverage("UMMI", g2, FAST)
    # n-sample Chebyshev needs i.i.d. draws, the mixture is only
    # exchangeable
    mix = GeneratorSpec(
        kind="EXCHANGEABLE_MIXTURE", dim=2, d_dir=np.eye(2), tau=0.3, c=0.2 * np.eye(2)
    )
    with pytest.raises(IncompatiblePair):
        run_coverage("UMCI_N", mix, FAST, params={"n": 4})
    # heavy tails below the requested moment order
    heavy = GeneratorSpec(kind="SYMMETRIC_HEAVY", dim=2, d_dir=np.eye(2), tail_index=1.2)
    with pytest.raises(IncompatiblePair):
        run_coverage("PCHEB1", heavy, FAST, params={"p": 1.5})


def test_unknown_param_rejected():
    gen = default_generator("UMMI", "HEAVY_PSD", 2)
    with pytest.raises(ConfigError):
        run_coverage("UMMI", gen, FAST, params={"bogus": 1.0})


#: the params each bound reads; a key that a bound stops reading, or a new
#: one, is an edit here
BOUND_KEYS = {
    "UMMI": ["a", "randomizer", "target"],
    "UMCI1": ["a", "n", "randomizer", "target"],
    "UMCI_N": ["a", "n", "randomizer", "target"],
    "PCHEB1": ["a", "p", "randomizer", "target"],
    "CHERNOFF1": ["a", "gamma", "randomizer", "target"],
    "CHERNOFF_HOEFFDING": ["a_scalar", "alpha0", "gamma", "mgf_kind", "n", "randomizer"],
    "UMVI_MGF": ["alpha", "gamma_scale", "randomizer", "stopping"],
    "UMVI_BETTING": ["alpha", "gamma_scale", "randomizer", "stopping"],
    "UMVI_SELF_NORMALIZED": ["alpha", "gamma_scale", "randomizer", "stopping"],
    "UMVI_SYMMETRIC": ["alpha", "gamma_scale", "randomizer", "stopping"],
    "MVI": ["alpha", "gamma_scale"],
    "DOOB": ["a", "n", "target"],
    "XMCI": ["a", "n_max", "target"],
    "XMCI2": ["a", "n_max", "n_start", "target"],
    "XMPCI": ["a", "n_max", "p", "target"],
    "TRACE_PCHEB": ["a", "n_max", "p", "target"],
    "URSN": ["alpha", "gamma_scale", "randomizer", "stopping"],
    "USMHI": ["alpha", "gamma_scale", "randomizer", "stopping"],
}


@pytest.mark.parametrize("bound", registry_names())
def test_each_bound_accepts_exactly_the_params_it_reads(bound):
    gen = default_generator(bound, _entry(bound).compatible[0], 2)
    with pytest.raises(ConfigError) as exc:
        run_coverage(bound, gen, FAST, params={"no_such_key": 1})
    assert str(exc.value) == (
        f"params: unknown key 'no_such_key'; expected one of {BOUND_KEYS[bound]}"
    )


def test_run_coverage_report_shape():
    gen = default_generator("UMMI", "ELLIPSOID_RANK1", 2)
    rep = run_coverage("UMMI", gen, FAST)
    assert rep.name.startswith("UMMI[ELLIPSOID_RANK1")
    assert rep.trials == 2000
    assert 0.0 <= rep.event_freq <= 1.0
    assert rep.verdict
    assert rep.meta["seed"] == 7
    # the ellipsoid generator is the equality case: frequency ~ bound
    assert abs(rep.event_freq - rep.stated_bound) <= 5.0 * rep.stderr + 1e-9


def test_determinism_across_worker_counts():
    gen = default_generator("UMCI1", "IID_WISHART_LIKE", 2)
    r1 = run_coverage("UMCI1", gen, McConfig(trials=4000, base_seed=11, workers=1))
    r3 = run_coverage("UMCI1", gen, McConfig(trials=4000, base_seed=11, workers=3))
    assert r1.event_freq == r3.event_freq
    assert r1.to_dict() == r3.to_dict()
    r_other = run_coverage("UMCI1", gen, McConfig(trials=4000, base_seed=12))
    assert r_other.event_freq != r1.event_freq


# three path blocks of at most 1024 paths, so both workers get work
POOL_RUN = dict(trials=2500, horizon=40, base_seed=13)
POOL_GEN = default_generator("URSN", "GAUSSIAN_SCALED", 2)
needs_two_cpus = pytest.mark.skipif(sim._pool_size(2) < 2, reason="a pool needs two CPUs")


def _pool_report(workers: int) -> dict:
    return run_coverage("URSN", POOL_GEN, McConfig(**POOL_RUN, workers=workers)).to_dict()


def _pool_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


def test_pool_size_is_capped_at_the_cpus_available(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert sim._pool_size(1) == 1
    assert sim._pool_size(cpus) == cpus
    assert sim._pool_size(5000) == cpus
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sim._pool_size(5000) == 3


def test_run_coverage_asks_for_the_capped_pool(monkeypatch):
    # a stand-in pool runs the blocks in process: no worker is started
    sizes = []

    class InlinePool:
        def map(self, fn, tasks, size):
            sizes.append(size)
            return [fn(t) for t in tasks]

    monkeypatch.setattr(sim, "_POOL", InlinePool())
    cpus = sim._pool_size(5000)
    assert _pool_report(5000) == _pool_report(1)
    assert sizes == ([cpus] if cpus > 1 else [])


def test_a_second_broken_pool_propagates(monkeypatch):
    from concurrent import futures
    from concurrent.futures.process import BrokenProcessPool

    made = []

    class BrokenExecutor:
        def __init__(self, max_workers):
            self.closed = False
            made.append(self)

        def map(self, fn, tasks):
            raise BrokenProcessPool("a worker died")

        def shutdown(self, wait):
            self.closed = wait

    futures.ProcessPoolExecutor  # resolve the lazy attribute before patching it
    monkeypatch.setattr(futures, "ProcessPoolExecutor", BrokenExecutor)
    with pytest.raises(BrokenProcessPool):
        sim._WorkerPool().map(abs, [1], 2)
    assert len(made) == 2
    assert all(e.closed for e in made)


@needs_two_cpus
def test_runs_of_one_size_reuse_the_worker_pool():
    serial = _pool_report(1)
    sim._POOL.close()
    first = _pool_report(2)
    pids = _pool_pids()
    second = _pool_report(2)
    assert len(pids) == 2
    assert _pool_pids() == pids
    assert first == second == serial


@needs_two_cpus
def test_a_worker_killed_while_idle_does_not_fail_the_next_run():
    serial = _pool_report(1)
    _pool_report(2)
    victim = _pool_pids()[0]
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while victim in _pool_pids() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert victim not in _pool_pids()
    assert _pool_report(2) == serial
    pids = _pool_pids()
    assert len(pids) == 2 and victim not in pids


#: kills an idle worker and closes the pool at once, twenty times over
KILL_THEN_CLOSE = """
import os, signal
from matconc import processes as pr
from matconc import simulator as sim
for _ in range(20):
    pool = sim._WorkerPool()
    assert pool.map(abs, [-1, -2], 2) == [1, 2]
    os.kill(next(iter(pool._pool._processes)), signal.SIGKILL)
    pool.close()
print("closed")
"""


def test_closing_just_after_a_worker_died_does_not_hang():
    """A close right after a worker's death could join the surviving idle
    worker forever; it runs in a fresh interpreter and session, so a hang
    is a timeout that kills the interpreter and its workers."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen(
        [sys.executable, "-c", KILL_THEN_CLOSE],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    assert (child.returncode, out, err) == (0, "closed\n", "")


def test_path_bound_runs_and_holds():
    gen = default_generator("URSN", "GAUSSIAN_SCALED", 2)
    rep = run_coverage("URSN", gen, McConfig(trials=3000, horizon=80, base_seed=3))
    assert rep.verdict
    assert rep.stated_bound == pytest.approx(0.05)


def test_stopping_rules():
    gen = default_generator("UMVI_SELF_NORMALIZED", "GAUSSIAN_SCALED", 2)
    mc = McConfig(trials=1500, horizon=50, base_seed=5)
    for stopping in (
        {"kind": "first_crossing"},
        {"kind": "fixed", "n": 25},
        {"kind": "geometric", "q": 0.1},
    ):
        rep = run_coverage(
            "UMVI_SELF_NORMALIZED", gen, mc, params={"stopping": stopping}
        )
        assert rep.verdict, stopping
    with pytest.raises(ConfigError):
        run_coverage(
            "UMVI_SELF_NORMALIZED", gen, mc, params={"stopping": {"kind": "oracle"}}
        )
    with pytest.raises(ConfigError):
        run_coverage(
            "UMVI_SELF_NORMALIZED", gen, mc,
            params={"stopping": {"kind": "fixed", "n": 0}},
        )


def test_randomizer_options():
    gen = default_generator("UMMI", "HEAVY_PSD", 2)
    mc = McConfig(trials=3000, base_seed=9)
    plain = run_coverage("UMMI", gen, mc)
    ident = run_coverage("UMMI", gen, mc, params={"randomizer": "identity"})
    shifted = run_coverage(
        "UMMI", gen, mc,
        params={"randomizer": {"kind": "shifted", "y": (0.05 * np.eye(2)).tolist()}},
    )
    assert plain.verdict and ident.verdict and shifted.verdict
    # the unrandomized threshold is the largest of the three
    assert ident.event_freq <= shifted.event_freq <= plain.event_freq
    with pytest.raises(ConfigError):
        run_coverage("UMMI", gen, mc, params={"randomizer": "poisson"})
    with pytest.raises(ConfigError):
        run_coverage(
            "UMMI", gen, mc,
            params={"randomizer": {"kind": "shifted", "y": (-np.eye(2)).tolist()}},
        )


def test_scan_bounds_never_randomized():
    gen = default_generator("XMCI", "IID_WISHART_LIKE", 2)
    mc = McConfig(trials=1200, horizon=60, base_seed=13)
    rep = run_coverage("XMCI", gen, mc)
    assert rep.meta["randomizer"] == "identity"
    with pytest.raises(ConfigError):
        run_coverage("XMCI", gen, mc, params={"randomizer": "scaled_identity"})


def test_default_run_specs_cover_registry():
    specs = default_run_specs(dims=(2,))
    names = {bound for bound, _, _ in specs}
    assert names == set(registry_names())
    # every spec can actually prepare and run at tiny scale
    assert len(specs) >= len(registry_names())


@pytest.mark.parametrize("d", [1, 2, 5])
def test_falsify_every_instance_reads_one_at_p_two(d):
    """tr E S_n^2 = n tr V_2 exactly: the exact ratio leaves only rounding."""
    for i in range(200):
        mats, n = sim._instance(5, i, d)
        assert abs(sim._exact_ratio(mats, n, 2.0) - 1.0) <= 1e-12
    rec = falsify_conjecture(p=2.0, d=d, instances=200, seed=5)
    assert isinstance(rec, FalsifyRecord)
    assert abs(rec.best_ratio - 1.0) <= 1e-12


def test_falsify_reports_the_largest_exact_ratio_of_its_instances():
    rec = falsify_conjecture(p=1.0, d=2, instances=40, seed=21)
    ratios = [sim._exact_ratio(*sim._instance(21, i, 2), 1.0) for i in range(40)]
    best = int(np.argmax(ratios))
    mats, n = sim._instance(21, best, 2)
    assert (rec.best_ratio, rec.n) == (ratios[best], n)
    np.testing.assert_array_equal(np.asarray(rec.mats), mats)
    d = rec.to_dict()
    assert list(d) == ["p", "d", "best_ratio", "n", "mats", "instances", "seed"]
    assert (d["p"], d["instances"], d["seed"]) == (1.0, 40, 21)
    assert np.asarray(d["mats"]).ndim == 3


def test_falsify_conjecture_scalar_case_respects_constant():
    rec = falsify_conjecture(p=1.5, d=1, instances=30, seed=22)
    # sums of independent symmetric scalars satisfy E|S_n|^p <= sum_i E|X_i|^p
    # for p in [1, 2] (von Bahr and Esseen), below the old cap 2^{2-p}
    assert 0.0 < rec.best_ratio <= 1.0 + 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_walk_law_with_one_direction_is_the_binomial(n, p):
    binomial = sum(math.comb(n, j) * 2.0**-n * abs(2 * j - n) ** p for j in range(n + 1))
    atoms, probs = sim._walk_law(n, 1)
    assert probs @ np.abs(atoms[:, 0]) ** p == pytest.approx(binomial, rel=1e-13)
    # and the ratio of one direction D at d = 1 is that sum over n, |D|^p cancelling
    assert sim._exact_ratio(np.array([[[-0.7]]]), n, p) == pytest.approx(binomial / n, rel=1e-13)


def test_walk_law_is_a_read_only_law_on_the_lattice():
    atoms, probs = sim._walk_law(30, 3)
    assert atoms.shape == (19871, 3) and probs.shape == (19871,)
    assert not atoms.flags.writeable and not probs.flags.writeable
    assert probs.min() > 0.0 and probs.sum() == pytest.approx(1.0, abs=1e-14)
    # n steps of +-e_j: |c|_1 <= n, with the parity of n
    l1 = np.abs(atoms).sum(axis=1)
    assert l1.max() == 30 and not (l1 % 2).any()
    assert sim._walk_law(30, 3)[0] is atoms  # cached


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_exact_ratio_agrees_with_monte_carlo(p):
    trials = 4000
    for i in range(3):
        mats, n = sim._instance(8, i, 2)
        g = substream(8, 0xF416, i)
        idx = g.integers(0, len(mats), size=(trials, n))
        signs = g.integers(0, 2, size=(trials, n)) * 2.0 - 1.0
        sums = (signs[..., None, None] * mats[idx]).sum(axis=1)
        tvals = (np.abs(np.linalg.eigvalsh(sums)) ** p).sum(axis=-1)
        denom = n * (np.abs(np.linalg.eigvalsh(mats)) ** p).sum(axis=-1).mean()
        sigma = tvals.std(ddof=1) / math.sqrt(trials) / denom
        assert abs(tvals.mean() / denom - sim._exact_ratio(mats, n, p)) <= 4.0 * sigma


def test_falsify_rejects_bad_arguments():
    for kwargs in ({"p": 0.5, "d": 2}, {"p": 1.5, "d": 0}, {"p": 1.5, "d": 2, "instances": 0}):
        with pytest.raises(ConfigError):
            falsify_conjecture(**kwargs)


#: (bound, generator kind, params) of every event on the mean of n draws
AVERAGED_CASES = [
    ("UMCI_N", "RADEMACHER_SCALED", {"n": 40, "target": 1.5}),
    ("CHERNOFF_HOEFFDING", "RADEMACHER_SCALED", {"mgf_kind": "RADEMACHER", "n": 40, "alpha0": 0.9}),
    ("CHERNOFF_HOEFFDING", "GAUSSIAN_SCALED", {"mgf_kind": "UNI_GAUSSIAN", "n": 40, "alpha0": 0.9}),
    ("CHERNOFF_HOEFFDING", "RADEMACHER_SCALED", {"mgf_kind": "BENNETT_I", "n": 40, "alpha0": 0.9}),
    ("CHERNOFF_HOEFFDING", "BOUNDED_PSD", {"mgf_kind": "BENNETT_II", "n": 40, "alpha0": 0.9}),
    ("CHERNOFF_HOEFFDING", "BOUNDED_PSD", {"mgf_kind": "SYM_HOEFFDING", "n": 40, "alpha0": 0.9}),
]


#: the public event of each mean-level event a fixed-time plan decides on
PUBLIC_EVENTS = {fb.chebyshev_event: fb.chebyshev_n_event, fb.sum_tail_event: fb.chernoff_hoeffding_event}


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("bound,kind,params", AVERAGED_CASES)
def test_fixed_time_means_over_chunks_match_the_full_stack(bound, kind, params, d):
    entry = _entry(bound)
    gen = default_generator(bound, kind, d)
    plan = entry.prepare(params, gen, FAST)
    n = plan["n_per"]
    assert plan["stopping"] == {"kind": "fixed", "n": n}
    # about n / 3.5 steps per block: three full blocks of steps and a partial fourth
    trials = 3 * (pr._MEAN_CHUNK_CELLS // (n * d)) + pr._MEAN_CHUNK_CELLS // (2 * n * d)
    assert 3 < n / (pr._MEAN_CHUNK_CELLS // (trials * d)) < 4
    seed, block_idx = 808, 2
    count = sim._block_task((plan, gen, trials, n, seed, entry.tag, block_idx))
    g_data, g_rand = spawn_pair(seed, entry.tag, block_idx)
    proc = plan["process"]()
    pr.first_crossing(proc, gen.draw(g_data, trials, n), None, np.full(trials, n))
    g_data, _ = spawn_pair(seed, entry.tag, block_idx)
    xs = gen.sample_batch(g_data, trials, n)
    # each entry summed in step order: np.mean's order at d >= 2, but at
    # d = 1 numpy sums the contiguous step axis pairwise
    total = 0.0
    for j in range(n):
        total = total + xs[:, j]
    assert proc.at_stop.tobytes() == (total / n).tobytes()
    if d > 1:
        assert proc.at_stop.tobytes() == np.mean(xs, axis=1).tobytes()
    # the public event on the whole sample counts the same hits
    event = PUBLIC_EVENTS[plan["event"].func]
    events = event(xs, u=plan["randomizer"].draw(g_rand, trials), **plan["event"].keywords)
    assert count == np.count_nonzero(events)
    assert 0 < count < trials


def _eye2(scale):
    return (scale * np.eye(2)).tolist()


#: (bound, params): each bound's threshold far inside its validity range
LIVE_CASES = [
    ("UMMI", {"a": _eye2(0.01)}),
    ("UMCI1", {"a": _eye2(0.01)}),
    ("UMCI_N", {"a": _eye2(0.001)}),
    ("PCHEB1", {"a": _eye2(0.01)}),
    ("CHERNOFF1", {"a": _eye2(-5.0)}),
    ("CHERNOFF_HOEFFDING", {"a_scalar": 1e-3}),
    ("DOOB", {"a": _eye2(1e-4), "n": 20}),
    ("XMCI", {"a": 1e-3, "n_max": 20}),
    ("XMCI2", {"a": 1e-3, "n_max": 20}),
    ("XMPCI", {"a": 1e-3, "n_max": 20}),
    ("TRACE_PCHEB", {"a": 1e-3, "n_max": 20}),
]


@pytest.mark.parametrize("bound,params", LIVE_CASES)
def test_an_event_far_inside_its_range_is_seen(bound, params):
    """The coverage gate is one-sided: an event wired to False passes it.
    Against a threshold far inside its range, each bound's event fires."""
    gen = default_generator(bound, _entry(bound).compatible[0], 2)
    rep = run_coverage(bound, gen, McConfig(trials=2000, base_seed=31), params)
    assert rep.event_freq >= 0.5


def _block_peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_memory_stays_below_the_sample_stack():
    # a (trials, n, 5, 5) stack would take 40 MB here and 30 MB below
    ch = _entry("CHERNOFF_HOEFFDING")
    gen = default_generator("CHERNOFF_HOEFFDING", "RADEMACHER_SCALED", 5)
    plan = ch.prepare(None, gen, FAST)
    peak = _block_peak_bytes(lambda: sim._block_task((plan, gen, 2000, plan["n_per"], 9, ch.tag, 0)))
    assert peak < 16 * 2**20
    tp = _entry("TRACE_PCHEB")
    gen = default_generator("TRACE_PCHEB", "SYMMETRIC_HEAVY", 5)
    plan = tp.prepare(None, gen, FAST)
    assert plan["horizon"] == 300
    peak = _block_peak_bytes(lambda: sim._block_task((plan, gen, 512, plan["horizon"], 9, tp.tag, 0)))
    assert peak < 16 * 2**20


def _stop_inputs(kind, d, horizon):
    """A generator, a wrong hypothesized mean, its variance bound and step sizes."""
    gen = default_generator("XMCI", kind, d)
    v = gen.variance()
    scale = np.sqrt(np.linalg.eigvalsh(v)[-1])
    gammas = 0.5 / (scale * np.sqrt(np.arange(1, horizon + 1)))
    return gen, gen.mean() - 0.5 * scale * np.eye(d), v, gammas


@pytest.mark.parametrize("kind", ["GAUSSIAN_SCALED", "IID_WISHART_LIKE", "EXCHANGEABLE_MIXTURE"])
def test_sequential_test_stops_match_a_per_trial_loop(kind):
    d, alpha, trials, seed = 5, 0.05, 40, 17
    gen, m0, v, gammas = _stop_inputs(kind, d, 60)
    stops = pr.sequential_test_stops(gen, m0, v, gammas, alpha, trials, seed)
    for t in range(trials):
        xs = gen.sample_path(substream(seed, 0xC0DE, t), len(gammas))[None]
        matrix = pr.FactorProcess("SELF_NORMALIZED", m0, d / alpha, v=v)
        scalar = pr.TraceExpProcess(m0, v, alpha)
        assert stops["matrix"][t] == pr.first_crossing(matrix, xs, gammas)[0]
        assert stops["scalar"][t] == pr.first_crossing(scalar, xs, gammas)[0]
    for rule in ("matrix", "scalar"):
        assert 0 < np.count_nonzero(stops[rule]) < trials


def test_sequential_test_stops_memory_stays_below_the_path_stack():
    # stacking the block's per-trial paths peaked at 79 MB here: two copies
    # of a (1024, 200, 5, 5) stack
    gen, m0, v, gammas = _stop_inputs("GAUSSIAN_SCALED", 5, 200)
    peak = _block_peak_bytes(lambda: pr.sequential_test_stops(gen, m0, v, gammas, 0.05, 1024, 3))
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "bound,params",
    [
        ("XMCI", {"n_max": "x"}),
        ("TRACE_PCHEB", {"p": None}),
        ("UMVI_MGF", {"alpha": "a"}),
        ("UMMI", {"randomizer": ["shifted"]}),
        ("URSN", {"stopping": ["fixed"]}),
        ("URSN", {"stopping": {"kind": "geometric", "q": [0.1]}}),
        ("URSN", {"stopping": {"kind": "geometric", "n": 5}}),
        ("URSN", {"stopping": {"kind": "first_crossing", "n": 5}}),
        ("UMVI_MGF", {"stopping": {"kind": "fixed", "n": 5, "q": 0.1}}),
        ("UMVI_MGF", {"randomizer": {"kind": "scaled_identity", "y": None, "seed": 3}}),
        ("UMMI", {"a": "x"}),
        ("UMCI1", {"a": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}),
        ("UMVI_SELF_NORMALIZED", {"randomizer": {"kind": "shifted", "y": "k"}}),
        ("CHERNOFF_HOEFFDING", {"mgf_kind": ["RADEMACHER"]}),
        ("CHERNOFF_HOEFFDING", {"alpha0": 0}),
        ("UMMI", {"target": 0}),
        ("UMVI_MGF", {"gamma_scale": float("nan")}),
        ("DOOB", {"n": float("inf")}),
        ("DOOB", ["n", 5]),
        ("CHERNOFF_HOEFFDING", {"gamma": 0}),
        ("CHERNOFF_HOEFFDING", {"gamma": -1}),
        ("CHERNOFF_HOEFFDING", {"gamma": 1e200}),
        ("CHERNOFF_HOEFFDING", {"a_scalar": 0}),
        ("CHERNOFF_HOEFFDING", {"a_scalar": -1}),
        ("UMMI", {"a": [[1.0, 0.0], [0.0, -1.0]]}),
        ("UMCI1", {"a": [[1.0, 0.0], [0.0, 0.0]]}),
        ("UMCI_N", {"a": [[0.0, 1.0], [1.0, 0.0]]}),
        ("PCHEB1", {"a": [[-1.0, 0.0], [0.0, -1.0]]}),
        ("URSN", {"gamma_scale": 1e300}),
        ("UMVI_SELF_NORMALIZED", {"gamma_scale": 1e200}),
    ],
)
def test_malformed_params_raise_config_error_before_sampling(bound, params, monkeypatch):
    gen = default_generator(bound, _entry(bound).compatible[0], 2)

    def no_sampling(*args):
        raise AssertionError("sampled before validating")

    monkeypatch.setattr(GeneratorSpec, "draw", no_sampling)
    with pytest.raises(ConfigError):
        run_coverage(bound, gen, FAST, params)
