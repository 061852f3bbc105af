"""Regenerate ``data/suite_runs.json``, the pinned coverage matrix.

The file is a ``matconc verify --config`` "runs" file holding the
default verification matrix, ``default_run_specs((1, 2, 5))``, at the
benchmark's sizes.  It is generated once and committed, so that a new
generator or bound added to the default suite does not silently change
the benchmark's workload.  Path-family runs carry a ``horizon`` key and
fixed-time runs do not; the benchmark tells the two apart that way.

Usage::

    python3 perfbench/make_runs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from matconc.simulator import McConfig, default_run_specs, run_coverage  # noqa: E402

# one block per run, small enough that a 20 s benchmark run holds several
# passes over all 72 runs
FIXED_TRIALS = 2000
PATH_TRIALS = 512
PATH_HORIZON = 50
DIMS = (1, 2, 5)

_GEN_FIELDS = ("m", "c", "b", "d_dir", "a", "tail_index", "tau", "scale", "seed")


def generator_json(gen) -> dict:
    out = {"kind": gen.kind, "dim": gen.dim}
    for name in _GEN_FIELDS:
        val = getattr(gen, name)
        if val is not None:
            out[name] = val.tolist() if hasattr(val, "tolist") else val
    return out


def main() -> int:
    runs = []
    for bound, gen, params in default_run_specs(DIMS):
        # the family shows in the report: path runs record their horizon
        probe = run_coverage(bound, gen, McConfig(trials=1, horizon=2, base_seed=1), params)
        run = {"bound": bound, "generator": generator_json(gen)}
        if params is not None:
            run["params"] = params
        if "horizon" in probe.meta:
            run.update(trials=PATH_TRIALS, horizon=PATH_HORIZON)
        else:
            run["trials"] = FIXED_TRIALS
        runs.append(run)
    path = HERE / "data" / "suite_runs.json"
    lines = ",\n".join("  " + json.dumps(run) for run in runs)
    path.write_text('{"runs": [\n' + lines + "\n]}\n")
    print(f"wrote {len(runs)} runs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
