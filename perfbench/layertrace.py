"""Outside-in tracing of matconc's layers.

``Tracer.install`` replaces public functions of matconc's modules (and
numpy's eigen kernels) with wrappers that record one span per call:
name, start, end, parent span and the run id the benchmark set before
the call.  Nothing in the program changes; the wrappers are installed
only for the traced passes and removed afterwards.

Spans are kept in memory as integer arrays and written out by
``Tracer.write_spans`` when the benchmark ends.  Per-name totals (calls,
time, self time) and per-(run, name) totals are accumulated as spans
close, so reading them costs nothing extra.

Wrappers installed in the parent are inherited by worker processes that
``ProcessPoolExecutor`` forks, but spans recorded there stay in the
worker; a traced run with workers > 1 sees only the parent's calls.
"""

from __future__ import annotations

import importlib
import math
from array import array
from time import perf_counter_ns


def _matrices(args, out) -> int:
    """Matrices in the ``(..., d, d)`` stack passed to an eigen kernel."""
    return math.prod(args[0].shape[:-2])


def _cells(args, out) -> int:
    return int(out.size)


#: (module, class or "", function, span name, extra count).  The span
#: name is the layer and the function, as the per-layer metric names
#: start.  ``simulator.run_coverage`` spans are named per call by
#: ``Tracer.install``, so fixed-time and path runs are told apart.
LAYER_FUNCTIONS = (
    ("numpy.linalg", "", "eigvalsh", "linalg.eigvalsh", ("matrices", _matrices)),
    ("numpy.linalg", "", "eigh", "linalg.eigh", ("matrices", _matrices)),
    ("matconc.symmat", "", "mat_exp", "symmat.mat_exp", None),
    ("matconc.symmat", "", "parse_matrix_json", "symmat.parse_matrix_json", None),
    ("matconc.generators", "GeneratorSpec", "sample_batch", "generators.sample_batch", ("cells", _cells)),
    ("matconc.simulator", "", "run_coverage", "simulator.run_coverage", None),
    ("matconc.martingales", "", "build_factors", "martingales.build_factors", None),
    (
        "matconc.martingales", "MatSupermartingaleState", "step",
        "martingales.MatSupermartingaleState.step", None,
    ),
    ("matconc.scalar_e", "", "sn_process_step", "scalar_e.sn_process_step", None),
    ("matconc.scalar_e", "", "matrix_test_decide", "scalar_e.matrix_test_decide", None),
    ("matconc.rng", "", "spawn_pair", "rng.spawn_pair", None),
    ("matconc.rng", "", "substream", "rng.substream", None),
    ("matconc.report", "McReport", "from_counts", "report.McReport.from_counts", None),
    ("matconc.cli", "", "main", "cli.main", None),
)


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per closed span, in closing order
        self.cols = {k: array("q") for k in ("id", "name", "start", "end", "parent", "run")}
        self.run = -1
        self._next = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self.totals: dict[int, list[int]] = {}  # name id -> [calls, ns, self ns]
        self.per_run: dict[tuple[int, int], int] = {}  # (run, name id) -> ns
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _close(self, nid, sid, parent, t0, t1, self_ns) -> None:
        cols = self.cols
        cols["id"].append(sid)
        cols["name"].append(nid)
        cols["start"].append(t0)
        cols["end"].append(t1)
        cols["parent"].append(parent)
        cols["run"].append(self.run)
        tot = self.totals.get(nid)
        if tot is None:
            tot = self.totals[nid] = [0, 0, 0]
        tot[0] += 1
        tot[1] += t1 - t0
        tot[2] += self_ns
        key = (self.run, nid)
        self.per_run[key] = self.per_run.get(key, 0) + (t1 - t0)

    def _wrap(self, fn, name_of, count):
        """Wrapper recording one span per call of ``fn``.

        ``name_of(args)`` gives the span's name id; ``count``, when set,
        is ``(key, fn(args, result))`` adding to ``self.counts[key]``.
        """
        tracer = self
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            nid = name_of(args)
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer._close(nid, sid, parent, t0, t1, t1 - t0 - frame[1])
            if count is not None:
                counts[count[0]] = counts.get(count[0], 0) + count[1](args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, run_family: dict[str, str]) -> None:
        """Wrap every function of ``LAYER_FUNCTIONS``.

        ``run_family`` maps a bound name to "fixed" or "path"; a
        ``run_coverage`` span is named after its bound's family.  The
        benchmark passes the bound positionally.
        """
        for module, owner_name, attr, name, count in LAYER_FUNCTIONS:
            mod = importlib.import_module(module)
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = vars(owner)[attr]
            if name == "simulator.run_coverage":
                ids = {b: self.name_id(f"{name}.{fam}") for b, fam in run_family.items()}
                name_of = lambda args, ids=ids: ids[args[0]]  # noqa: E731
            else:
                nid = self.name_id(name)
                name_of = lambda args, nid=nid: nid  # noqa: E731
            if count is not None:
                count = (f"{name}.{count[0]}", count[1])
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name_of, count))
            else:
                new = self._wrap(raw, name_of, count)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # reading the trace

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) summed over every span of ``name``."""
        calls, ns, self_ns = self.totals.get(self._ids.get(name, -1), (0, 0, 0))
        return calls, ns / 1e9, self_ns / 1e9

    def run_seconds(self, run: int, name: str) -> float:
        return self.per_run.get((run, self._ids.get(name, -1)), 0) / 1e9

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated row, times in ns."""
        cols = self.cols
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trun\n")
            for i in range(len(cols["id"])):
                fh.write(
                    f"{cols['id'][i]}\t{self.names[cols['name'][i]]}\t{cols['start'][i]}"
                    f"\t{cols['end'][i]}\t{cols['parent'][i]}\t{cols['run'][i]}\n"
                )
