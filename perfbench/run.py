"""matconc benchmark: one command, four workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports matconc from ``src/``
there and exits with code 2, printing no result, when there is none.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
print every metric by name with its unit, the sha256 of each
workload's report bytes, workload-specific detail metrics and the
environment (Python, numpy, BLAS, CPU count).

Workloads (all single-threaded BLAS; the program only ever receives the
inputs generated from ``--seed``):

``verify_suite``
    The pinned 72-run coverage matrix of ``data/suite_runs.json``
    (18 bounds plus 6 extra pairings at d in {1, 2, 5}), run in process
    through ``simulator.run_coverage`` with workers = 1 and base seed
    ``--seed``.  Simulator, generator and eigen-kernel work.
``verify_parallel``
    The 13 d = 5 path runs of the same file at workers = 2, the only
    workload through the ``ProcessPoolExecutor`` fan-out, with 2048
    paths per run so that each run has two blocks.  Their report bytes
    are compared with the same runs at workers = 1.
``power_compare``
    ``matconc power-compare`` through ``cli.main`` on a null
    GAUSSIAN_SCALED d = 2 config, so no trial stops early: the
    per-sample martingale and scalar_e layers.
``stream_test``
    ``matconc test`` through ``cli.main`` over a generated NDJSON
    stream of null d = 2 frames, once in matrix (SELF_NORMALIZED) mode
    and once in scalar mode: JSON parsing plus the per-frame layers.

Each workload repeats one fixed unit of work (a pass) for about
``--seconds`` and composes a pass from the median of each of its calls
over the passes.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs half the time untraced and half with
``layertrace.Tracer`` installed and prints the per-layer metrics.

The gated timings are in runs of a reference kernel (``Reference``)
timed just before and just after every call, not in seconds: the
host's speed drifts by up to a factor of two within seconds and stays
slow for minutes, so the same call's seconds spread by more than a
regression bound from one run to the next, while its time over the
kernel's time around it reads within a few percent.  The seconds are
printed too, as ``detail`` lines.

End-to-end metrics (every workload):

- ``setup_s``: ``import matconc`` plus loading the workload's inputs in a
  fresh interpreter, median of nine such set-ups.
- ``wall_ref``: one pass in reference-kernel runs, composed from the
  median of each call's seconds over the kernel's seconds around it.
- ``path_steps_per_ref``: observation-steps of sequential processes per
  reference-kernel run of those calls (per-call medians again): paths x
  horizon of the path runs (verify_*), trials x horizon
  (power_compare), frames fed in both modes (stream_test).
- ``peak_rss_mb``: peak resident memory of the benchmark process, plus
  the largest child process on verify_parallel.

A failure is an exception, a non-zero exit code, a FAIL verdict, or an
output check that fails; ``failed`` counts them among ``attempted``
checks.  ``correct`` is false when any of them fails except a FAIL
verdict: the pinned matrix holds pairings where the bound is attained
exactly (UMMI on ELLIPSOID_RANK1 among them), whose 3-sigma verdict
fails by chance on about 0.1 % of seeds each, so a FAIL verdict is
reported in ``failed`` and ``error_frac`` but is not by itself proof of
a wrong output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Single-threaded BLAS, fixed before numpy is first imported (by matconc),
# so the timings do not depend on the BLAS thread pool.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUNS_FILE = HERE / "data" / "suite_runs.json"

sys.path.insert(0, str(HERE))
from layertrace import Tracer  # noqa: E402

WORKLOADS = ("verify_suite", "verify_parallel", "power_compare", "stream_test")

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "path_steps_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

_CALLS_S = ("calls", "s")
PER_LAYER_SPANS = {
    "linalg.eigvalsh": _CALLS_S,
    "linalg.eigh": _CALLS_S,
    "symmat.mat_exp": _CALLS_S,
    "generators.sample_batch": _CALLS_S,
    "simulator.run_coverage": ("calls", "self_s"),
    "simulator.run_coverage.fixed": ("calls", "self_s"),
    "simulator.run_coverage.path": ("calls", "self_s"),
    "martingales.build_factors": _CALLS_S,
    "martingales.MatSupermartingaleState.step": _CALLS_S,
    "scalar_e.sn_process_step": _CALLS_S,
    "scalar_e.matrix_test_decide": _CALLS_S,
    "symmat.parse_matrix_json": _CALLS_S,
    "cli.main": ("calls", "self_s"),
    "rng.spawn_pair": ("calls",),
    "rng.substream": ("calls",),
    "report.McReport.from_counts": _CALLS_S,
}
PER_LAYER_COUNTS = (
    "linalg.eigvalsh.matrices",
    "linalg.eigh.matrices",
    "generators.sample_batch.cells",
)
PER_LAYER = {
    **{
        f"{span}.{kind}": "count" if kind == "calls" else "s"
        for span, kinds in PER_LAYER_SPANS.items()
        for kind in kinds
    },
    **{name: "count" for name in PER_LAYER_COUNTS},
    "trace.overhead_s": "s",
}

# Level of every sequential test the benchmark runs.  Ville's inequality
# bounds the chance that a test rejects its null inputs by ALPHA, so at
# this level a rejection signals a defect, not chance; at 0.05 about one
# seed in twenty would reject by design.
ALPHA = 1e-6


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; ``None`` keeps the pinned trials."""

    fixed_trials: int | None = None
    path_trials: int | None = None
    # two blocks of 1024 paths per run, so both workers get one
    parallel_path_trials: int = 2048
    pc_calls: int = 3  # power-compare calls per pass, one seed each
    pc_trials: int = 2
    pc_horizon: int = 200
    frames: int = 1000
    setup_probes: int = 9
    warmup_trials: int = 64


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(
        fixed_trials=64, path_trials=64, parallel_path_trials=128, pc_calls=2,
        pc_trials=2, pc_horizon=20, frames=40, setup_probes=2, warmup_trials=16,
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad inputs)."""


# ---------------------------------------------------------------------------
# program under test


@dataclass(frozen=True)
class Program:
    """matconc's public entry points, looked up through ``sys.modules``.

    Attribute access on the package is avoided on purpose: ``matconc.symmat``
    is the constructor function, not the submodule.  Functions are looked up
    on the module at call time, so the tracer's wrappers are seen.
    """

    cli: object
    simulator: object
    generators: object
    np: object


def import_matconc() -> Program:
    """Import matconc from this checkout's ``src/``, never from elsewhere."""
    pkg = SRC / "matconc"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no matconc sources at {pkg}")
    sys.path.insert(0, str(SRC))
    matconc = importlib.import_module("matconc")
    if Path(matconc.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported matconc from {matconc.__file__}, not from {pkg}")
    mods = {n: importlib.import_module(f"matconc.{n}") for n in ("cli", "simulator", "generators")}
    return Program(np=importlib.import_module("numpy"), **mods)


def call_cli(prog: Program, argv: list[str]) -> int:
    """``cli.main(argv)`` in process: its exit code."""
    try:
        return prog.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def report_bytes(rep) -> bytes:
    return json.dumps(rep.to_dict(), sort_keys=True, default=lambda o: o.item()).encode()


# ---------------------------------------------------------------------------
# checks


@dataclass
class Tally:
    """Attempted and failed operations and checks."""

    attempted: int = 0
    failed: int = 0
    hard_failed: int = 0  # failures other than a FAIL verdict
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, verdict: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.hard_failed += 0 if verdict else 1
            self.notes.append(what)
        return ok


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Run:
    bound: str
    gen: object
    params: dict | None
    family: str
    trials: int
    horizon: int


@dataclass(frozen=True)
class Inputs:
    runs: tuple[Run, ...] = ()
    pc_config: str = ""
    pc_seeds: tuple[int, ...] = ()
    test_configs: tuple[tuple[str, str], ...] = ()  # (mode, config path)
    data: str = ""
    frames: int = 0


def load_runs(prog: Program, sizes: Sizes, parallel: bool) -> tuple[Run, ...]:
    """The pinned run list; verify_parallel keeps its d = 5 path runs."""
    runs = []
    for raw in json.loads(RUNS_FILE.read_text())["runs"]:
        family = "path" if "horizon" in raw else "fixed"
        gen_raw = dict(raw["generator"])
        if parallel and (family != "path" or gen_raw["dim"] != 5):
            continue
        kind, dim = gen_raw.pop("kind"), gen_raw.pop("dim")
        kwargs = {
            k: prog.np.array(v, dtype=prog.np.float64) if isinstance(v, list) else v
            for k, v in gen_raw.items()
        }
        if parallel:
            trials = sizes.parallel_path_trials
        else:
            trials = sizes.fixed_trials if family == "fixed" else sizes.path_trials
        runs.append(
            Run(
                bound=raw["bound"],
                gen=prog.generators.GeneratorSpec(kind, dim, **kwargs),
                params=raw.get("params"),
                family=family,
                trials=trials or int(raw["trials"]),
                # the CLI's default for runs without a horizon
                horizon=int(raw.get("horizon", 200)),
            )
        )
    return tuple(runs)


def _null_gaussian(prog, rng):
    """Seed-drawn diagonal mean and scale of a d = 2 GAUSSIAN_SCALED law."""
    np = prog.np
    m = np.diag(rng.uniform(-0.2, 0.2, size=2))
    c = np.diag(rng.uniform(0.3, 0.7, size=2))
    return m, c


def load_inputs(
    prog: Program, workload: str, seed: int, sizes: Sizes, out: Path, corrupt_line: int | None = None
) -> Inputs:
    """Everything a workload needs, made from ``seed`` and written under ``out``.

    ``corrupt_line`` (1-based) replaces that line of the stream with
    invalid JSON; the self-test uses it to check failure counting.
    """
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("verify_suite", "verify_parallel"):
        return Inputs(runs=load_runs(prog, sizes, workload == "verify_parallel"))
    rng = prog.np.random.default_rng([seed, WORKLOADS.index(workload)])
    m, c = _null_gaussian(prog, rng)
    if workload == "power_compare":
        cfg = {
            "generator": {"kind": "GAUSSIAN_SCALED", "dim": 2, "m": m.tolist(), "c": c.tolist()},
            "alpha": ALPHA,
            "trials": sizes.pc_trials,
            "horizon": sizes.pc_horizon,
            "gamma_scale": 0.5,
        }
        path = out / "power_compare_config.json"
        path.write_text(json.dumps(cfg))
        seeds = tuple(int(s) for s in rng.integers(0, 2**31, size=sizes.pc_calls))
        return Inputs(pc_config=str(path), pc_seeds=seeds)
    if workload == "stream_test":
        data = out / "stream.ndjson"
        with open(data, "w") as fh:
            for i, g in enumerate(rng.standard_normal(sizes.frames), start=1):
                line = "{not json" if i == corrupt_line else json.dumps((m + g * c).tolist())
                fh.write(line + "\n")
        v = (c @ c).tolist()  # exact variance of M + g C
        configs = []
        for mode in ("matrix", "scalar"):
            cfg = {"mode": mode, "m": m.tolist(), "v": v, "alpha": ALPHA}
            if mode == "matrix":
                cfg["builder"] = "SELF_NORMALIZED"
            path = out / f"stream_test_{mode}_config.json"
            path.write_text(json.dumps(cfg))
            configs.append((mode, str(path)))
        return Inputs(test_configs=tuple(configs), data=str(data), frames=sizes.frames)
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# passes


class Reference:
    """A fixed kernel timed between the program's calls, as the host's speed.

    The host's speed drifts by up to a factor of two within seconds and
    stays slow for minutes (a fixed loop's time doubles with no change
    in CPU time per wall second), so a call's seconds say as much about
    the host as about the program.  The call's time divided by this
    kernel's time right around it does not: it reads within a few
    percent whether the host is fast or slow.  The kernel mixes what
    the program spends its time on (small numpy eigen decompositions,
    matrix exponentials and products, float-to-JSON formatting and an
    interpreted loop) and calls numpy through references taken before
    any tracer is installed, so no matconc code and no span is in it.
    """

    def __init__(self, np):
        self._eigh, self._exp, self._dumps = np.linalg.eigh, np.exp, json.dumps
        mats = np.random.default_rng(0).standard_normal((64, 2, 2))
        self._mats = list((mats + mats.transpose(0, 2, 1)) / 2)
        self._last: float | None = None

    def run(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(4):
            for a in self._mats:
                w, v = self._eigh(a)
                m = (v * self._exp(w)) @ v.T
                acc += float(m.trace()) + len(self._dumps(m.tolist()))
        for i in range(20000):
            acc += i * 0.5
        return time.perf_counter() - t0

    def measure(self, fn):
        """Call ``fn()``: (its result or the exception it raised, seconds,
        mean seconds of the kernel runs just before and just after)."""
        before = self._last if self._last is not None else self.run()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # one broken call must not stop the measurement
            out = exc
        dt = time.perf_counter() - t0
        self._last = self.run()
        return out, dt, (before + self._last) / 2


@dataclass(frozen=True)
class Call:
    """One top-level call into the program."""

    kind: str  # "fixed" or "path" run, or the cli's "power", "matrix", "scalar"
    seconds: float
    ref: float  # seconds of the reference kernel around the call
    work: int  # fixed-time trials, or observation-steps of sequential processes


PATH_KINDS = ("path", "power", "matrix", "scalar")


@dataclass
class Pass:
    """Outcome of one unit of work; every pass makes the same calls in order."""

    wall: float = 0.0
    calls: list[Call] = field(default_factory=list)
    outputs: list[bytes] = field(default_factory=list)  # one per call

    def digest(self) -> str:
        h = hashlib.sha256()
        for b in self.outputs:
            h.update(b)
        return h.hexdigest()


def verify_pass(prog, inputs, seed, workers, tally, ref, tracer=None, trials=None) -> Pass:
    sim = prog.simulator
    res = Pass()
    t_pass = time.perf_counter()
    for i, run in enumerate(inputs.runs):
        if tracer is not None:
            tracer.run = i
        mc = sim.McConfig(
            trials=trials or run.trials, horizon=run.horizon, workers=workers, base_seed=seed
        )
        rep, dt, r = ref.measure(lambda: sim.run_coverage(run.bound, run.gen, mc, run.params))
        if isinstance(rep, Exception):
            tally.check(False, f"{run.bound}[{run.gen.kind},d={run.gen.dim}]: {rep!r}")
            res.calls.append(Call(run.family, dt, r, 0))
            res.outputs.append(b"")
            continue
        tally.check(rep.verdict, f"{rep.name}: FAIL verdict", verdict=True)
        work = rep.trials * int(rep.meta["horizon"]) if run.family == "path" else rep.trials
        res.calls.append(Call(run.family, dt, r, work))
        res.outputs.append(report_bytes(rep))
    res.wall = time.perf_counter() - t_pass
    return res


def power_pass(prog, inputs, sizes, out, tally, ref) -> Pass:
    res = Pass()
    t_pass = time.perf_counter()
    limit = ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / sizes.pc_trials)
    for k, seed in enumerate(inputs.pc_seeds):
        path = out / f"power_compare_{k}.json"
        argv = ["power-compare", "--config", inputs.pc_config, "--seed", str(seed), "--output", str(path)]
        rc, dt, r = ref.measure(lambda: call_cli(prog, argv))
        if not tally.check(rc == 0, f"power-compare seed {seed}: exit {rc!r}"):
            res.calls.append(Call("power", dt, r, 0))
            res.outputs.append(b"")
            continue
        body = path.read_bytes()
        res.outputs.append(body)
        rep = json.loads(body)
        ok = rep["trials"] == sizes.pc_trials and rep["horizon"] == sizes.pc_horizon
        ok = ok and rep["null_is_true"]
        for rule in ("matrix", "scalar"):
            ok = ok and rep[rule]["reject_rate"] <= limit
        tally.check(ok, f"power-compare seed {seed}: size above alpha + 3 stderr or wrong shape")
        res.calls.append(Call("power", dt, r, sizes.pc_trials * sizes.pc_horizon))
    res.wall = time.perf_counter() - t_pass
    return res


def stream_pass(prog, inputs, out, tally, ref) -> Pass:
    res = Pass()
    t_pass = time.perf_counter()
    for mode, config in inputs.test_configs:
        path = out / f"stream_test_{mode}.ndjson"
        argv = ["test", "--config", config, "--data", inputs.data, "--output", str(path)]
        rc, dt, r = ref.measure(lambda: call_cli(prog, argv))
        if not tally.check(rc == 0, f"test {mode}: exit {rc!r}"):
            res.calls.append(Call(mode, dt, r, 0))
            res.outputs.append(b"")
            continue
        body = path.read_bytes()
        res.outputs.append(body)
        lines = body.splitlines()
        summary = json.loads(lines[-1])
        ok = summary["frames"] == inputs.frames and summary["decision"] == "continue"
        ok = ok and len(lines) == inputs.frames + 1
        tally.check(ok, f"test {mode}: summary {summary} after {inputs.frames} frames")
        res.calls.append(Call(mode, dt, r, inputs.frames))
    res.wall = time.perf_counter() - t_pass
    return res


def call_times(passes: list[Pass], norm: bool = False) -> list[tuple[Call, float]]:
    """Each call of a pass with its median time over the passes.

    The time is in seconds or, with ``norm``, in runs of the reference
    kernel (the call's seconds over the kernel's seconds around it).
    Composing a pass from per-call medians keeps a slow spell of the
    host, which hits a few calls, out of the pass time.
    """
    columns = zip(*(p.calls for p in passes))
    return [
        (col[0], statistics.median(c.seconds / c.ref if norm else c.seconds for c in col))
        for col in columns
    ]


def composed_wall(passes: list[Pass], norm: bool = False) -> float:
    return sum(t for _, t in call_times(passes, norm))


def work_rate(passes: list[Pass], kinds: tuple[str, ...], norm: bool = False) -> float | None:
    """Work per second (or per kernel run) over the calls of ``kinds``; None when there are none."""
    picked = [(c, t) for c, t in call_times(passes, norm) if c.kind in kinds]
    if not picked:
        return None
    secs = sum(t for _, t in picked)
    return sum(c.work for c, _ in picked) / secs if secs > 0 else 0.0


def timed_passes(run_pass, seconds: float) -> list[Pass]:
    """Repeat ``run_pass`` while the next pass should end near ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p.wall for p in passes) / 2 >= seconds:
            return passes


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(workload: str, seed: int, sizes_name: str, probes: int) -> list[float]:
    """Set-up times of ``probes`` fresh interpreters (see ``setup_probe``)."""
    vals = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--sizes", sizes_name],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        vals.append(float(proc.stdout.split()[-1]))
    return vals


def setup_probe(workload: str, seed: int, sizes_name: str) -> float:
    t0 = time.perf_counter()
    prog = import_matconc()
    load_inputs(prog, workload, seed, SIZES[sizes_name], OUT / "probe")
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one benchmark run


def environment(prog: Program) -> str:
    try:
        blas = prog.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the line is informative only
        blas = "unknown"
    return (
        f"env python={platform.python_version()} numpy={prog.np.__version__} blas={blas!r}"
        f" nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}"
        f" OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
        f" OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']}"
    )


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _details(workload: str, passes: list[Pass]) -> list[str]:
    """Workload-specific metrics, printed but not part of the result."""
    lines = []
    names = {
        "verify_suite": (("fixed_trials_per_s", ("fixed",)),),
        "power_compare": (("trial_steps_per_s", ("power",)),),
        "stream_test": (("matrix_frames_per_s", ("matrix",)), ("scalar_frames_per_s", ("scalar",))),
    }
    for name, kinds in names.get(workload, ()):
        lines.append(f"detail {name} {work_rate(passes, kinds)!r} 1/s")
    # the gated metrics in seconds, as the host ran them
    lines.append(f"detail wall_s {composed_wall(passes)!r} s")
    lines.append(f"detail path_steps_per_s {work_rate(passes, PATH_KINDS)!r} 1/s")
    ref_s = statistics.median(c.ref for p in passes for c in p.calls)
    lines.append(f"detail ref_kernel_s {ref_s!r} s")
    call_s = [c.seconds for p in passes for c in p.calls]
    lines.append(f"detail run_s_p50 {statistics.median(call_s)!r} s n={len(call_s)}")
    if len(call_s) * 0.15 >= 10:  # p85 only with at least ten calls beyond it
        p85 = statistics.quantiles(call_s, n=100)[84]
        lines.append(f"detail run_s_p85 {p85!r} s n={len(call_s)}")
    return lines


def _layer_metrics(tracer: Tracer, n_passes: int, overhead: float) -> dict[str, float]:
    vals = {}
    for span, kinds in PER_LAYER_SPANS.items():
        if span == "simulator.run_coverage":
            parts = [tracer.total(f"{span}.{fam}") for fam in ("fixed", "path")]
            calls, secs, self_s = (sum(col) for col in zip(*parts))
        else:
            calls, secs, self_s = tracer.total(span)
        got = {"calls": calls, "s": secs, "self_s": self_s}
        for kind in kinds:
            vals[f"{span}.{kind}"] = got[kind] / n_passes
    for name in PER_LAYER_COUNTS:
        vals[name] = tracer.counts.get(name, 0) / n_passes
    vals["trace.overhead_s"] = overhead
    return vals


def _layer_split(tracer: Tracer, runs: tuple[Run, ...], n_passes: int) -> list[str]:
    """Per-(bound, dim) split of each run into sampling, eigen kernels and the rest."""
    lines = ["split run total_s sample_s eigvalsh_s eigh_s rest_s"]
    for i, run in enumerate(runs):
        parts = [
            tracer.run_seconds(i, name) / n_passes
            for name in (f"simulator.run_coverage.{run.family}", "generators.sample_batch",
                         "linalg.eigvalsh", "linalg.eigh")
        ]
        rest = parts[0] - sum(parts[1:])
        label = f"{run.bound}[{run.gen.kind},d={run.gen.dim}]"
        lines.append("split " + " ".join([label] + [f"{v:.6f}" for v in (*parts, rest)]))
    return lines


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes_name: str = "full",
    corrupt_line: int | None = None,
) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    sizes = SIZES[sizes_name]
    prog = import_matconc()
    out = OUT / workload
    # set-up is sampled before and after the timed passes, so one slow
    # spell of the machine does not decide the median
    probes = 0 if trace else sizes.setup_probes
    setup_samples = measure_setup(workload, seed, sizes_name, (probes + 1) // 2)
    inputs = load_inputs(prog, workload, seed, sizes, out, corrupt_line)
    tally = Tally()
    ref = Reference(prog.np)
    lines = [environment(prog), f"workload {workload} seed {seed} sizes {sizes_name}"]

    if workload in ("verify_suite", "verify_parallel"):
        workers = 2 if workload == "verify_parallel" else 1
        if workers == 1:
            # warm-up at a few trials per run, so lazy set-up is not timed
            verify_pass(prog, inputs, seed, 1, Tally(), ref, trials=sizes.warmup_trials)
            serial = None
        else:
            # the same runs at workers = 1; also warms every code path
            serial = verify_pass(prog, inputs, seed, 1, tally, ref)

        def one_pass(tracer=None):
            return verify_pass(prog, inputs, seed, workers, tally, ref, tracer)
    elif workload == "power_compare":
        serial = None

        def one_pass(tracer=None):
            return power_pass(prog, inputs, sizes, out, tally, ref)
    else:
        serial = None

        def one_pass(tracer=None):
            return stream_pass(prog, inputs, out, tally, ref)

    passes = timed_passes(one_pass, seconds / 2 if trace else seconds)
    rss = peak_rss_mb(with_children=workload == "verify_parallel")
    setup_samples += measure_setup(workload, seed, sizes_name, probes // 2)
    digest = passes[0].digest()
    for p in passes[1:]:
        tally.check(p.digest() == digest, "report bytes differ between passes of one seed")
    if serial is not None:
        for run, par, ser in zip(inputs.runs, passes[0].outputs, serial.outputs):
            tally.check(par == ser, f"{run.bound}[d={run.gen.dim}]: workers=2 bytes != workers=1 bytes")
    lines.append(f"sha256 {workload} {digest}")

    if trace:
        tracer = Tracer()
        tracer.install({run.bound: run.family for run in inputs.runs})
        try:
            traced = timed_passes(lambda: one_pass(tracer), seconds / 2)
        finally:
            tracer.uninstall()
        for p in traced:
            tally.check(p.digest() == digest, "traced report bytes differ from untraced")
        overhead = composed_wall(traced) - composed_wall(passes)
        metrics = _layer_metrics(tracer, len(traced), overhead)
        units = PER_LAYER
        if workload == "verify_suite":
            split = _layer_split(tracer, inputs.runs, len(traced))
            lines += split
            (out / "layer_split.txt").write_text("\n".join(split) + "\n")
        spans = out / f"spans_seed{seed}.tsv"
        tracer.write_spans(spans)
        lines.append(f"spans {len(tracer.cols['id'])} written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_ref": composed_wall(passes, norm=True),
            "path_steps_per_ref": work_rate(passes, PATH_KINDS, norm=True),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        lines += _details(workload, passes)

    n_calls = sum(len(p.calls) for p in passes)
    walls = " ".join(f"{p.wall:.3f}" for p in passes)
    lines.append(f"passes {len(passes)} calls {n_calls} pass_walls_s {walls}")
    error_frac = tally.failed / max(1, tally.attempted)
    lines.append(f"detail error_frac {error_frac!r} 1 attempted={tally.attempted}")
    lines += [f"failure {note}" for note in tally.notes[:20]]
    lines += [f"metric {name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    result = {
        "correct": tally.hard_failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=tuple(SIZES), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(f"{setup_probe(args.workload, args.seed, args.sizes)!r}")
            return 0
        lines, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.sizes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
