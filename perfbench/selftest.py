"""Self-test of the benchmark at tiny sizes (about half a minute).

Checks that:

- every workload, traced and untraced, exits 0 and ends with a result
  line holding exactly the metrics ``BENCHMARK.json`` names, each also
  printed as ``metric <name> <value> <unit>`` with the same unit;
- the workload detail metrics and the report digest are printed;
- ``BENCHMARK.json`` lists the same workloads and metrics as ``run.py``;
- the pinned runs file is a valid ``matconc verify --config`` file whose
  reports equal the ones the benchmark computes in process;
- a malformed stream line is counted as a failure and does not abort
  the benchmark;
- without matconc sources the benchmark exits non-zero and prints no
  result.

Usage::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

_SECONDS = ("wall_s", "path_steps_per_s", "ref_kernel_s", "run_s_p50", "error_frac")
DETAILS = {
    "verify_suite": ("fixed_trials_per_s", "run_s_p85", *_SECONDS),
    "verify_parallel": _SECONDS,
    "power_compare": ("trial_steps_per_s", *_SECONDS),
    "stream_test": ("matrix_frames_per_s", "scalar_frames_per_s", *_SECONDS),
}

# per-layer call counts each workload must show (exact where given)
LAYER_CALLS = {
    "verify_suite": {
        "simulator.run_coverage.calls": 72, "simulator.run_coverage.fixed.calls": 33,
        "simulator.run_coverage.path.calls": 39, "report.McReport.from_counts.calls": 72,
        "linalg.eigvalsh.calls": None, "linalg.eigh.calls": None,
        "generators.sample_batch.calls": None, "rng.spawn_pair.calls": None,
    },
    "verify_parallel": {"simulator.run_coverage.path.calls": 13},
    "power_compare": {
        "cli.main.calls": 2, "martingales.build_factors.calls": None,
        "martingales.MatSupermartingaleState.step.calls": None,
        "scalar_e.sn_process_step.calls": None, "scalar_e.matrix_test_decide.calls": None,
        "generators.sample_batch.calls": None, "rng.substream.calls": None,
    },
    "stream_test": {
        "cli.main.calls": 2, "symmat.parse_matrix_json.calls": None,
        "martingales.build_factors.calls": None, "scalar_e.sn_process_step.calls": None,
    },
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def run_tiny(workload: str, trace: int, cwd: Path = bench.ROOT, script: Path | None = None):
    script = script or HERE / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=str(cwd),
    )


def check_output(workload: str, trace: int) -> None:
    proc = run_tiny(workload, trace)
    tag = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.splitlines()
    if not lines:
        check(False, f"{tag}: no output")
        return
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, f"{tag}: not correct: {lines[-12:-1]}")
    check(result["attempted"] >= 1, f"{tag}: attempted {result['attempted']}")
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{tag}: metrics {sorted(set(got) ^ set(expected))} differ")
    printed = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in ("metric", "detail"):
            printed[parts[1]] = parts[3]
            float(parts[2])
    for name, unit in expected.items():
        check(printed.get(name) == unit, f"{tag}: metric {name} not printed with unit {unit}")
        check(isinstance(result["metrics"][name]["value"], (int, float)), f"{tag}: {name} not a number")
    if not trace:
        for name in DETAILS[workload]:
            check(name in printed, f"{tag}: detail {name} not printed")
        for name in bench.END_TO_END:
            check(result["metrics"][name]["value"] > 0, f"{tag}: {name} is not positive")
    check(any(line.startswith(f"sha256 {workload} ") for line in lines), f"{tag}: no report digest")
    check(any(line.startswith("env python=") for line in lines), f"{tag}: no environment line")
    if trace:
        for name, want in LAYER_CALLS[workload].items():
            got = result["metrics"][name]["value"]
            check(got == want if want is not None else got > 0, f"{tag}: {name} = {got}")
    if trace and workload == "verify_suite":
        check(sum(line.startswith("split ") for line in lines) == 73, f"{tag}: per-run split table incomplete")


def check_benchmark_json() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check(tuple(w["name"] for w in spec["workloads"]) == bench.WORKLOADS, "BENCHMARK.json workloads")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END, "BENCHMARK.json end_to_end")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER, "BENCHMARK.json per_layer")


def check_runs_file_matches_cli() -> None:
    """The runs file through ``matconc verify`` gives the benchmark's reports."""
    prog = bench.import_matconc()
    out = bench.OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    raw = json.loads(bench.RUNS_FILE.read_text())
    for run in raw["runs"]:
        run["trials"] = 32
    config = out / "runs_tiny.json"
    config.write_text(json.dumps(raw))
    report = out / "verify_report.json"
    rc = bench.call_cli(prog, ["verify", "--config", str(config), "--seed", "11", "--output", str(report)])
    check(rc in (0, 1), f"verify --config on the runs file: exit {rc}")
    if not report.exists():
        return
    cli_reports = json.loads(report.read_text())
    sizes = bench.Sizes(fixed_trials=32, path_trials=32)
    inputs = bench.Inputs(runs=bench.load_runs(prog, sizes, parallel=False))
    res = bench.verify_pass(prog, inputs, 11, 1, bench.Tally(), bench.Reference(prog.np))
    ours = [json.loads(b) for b in res.outputs]
    check(len(cli_reports) == len(ours) == 72, f"run counts {len(cli_reports)} vs {len(ours)}")
    check(cli_reports == ours, "reports from verify --config differ from the benchmark's")


def check_malformed_line_counts() -> None:
    lines, result = bench.run_benchmark("stream_test", 7, 1.0, False, "tiny", corrupt_line=3)
    error_frac = [float(line.split()[2]) for line in lines if line.startswith("detail error_frac ")]
    check(result["failed"] > 0 and not result["correct"], f"malformed line not counted: {result}")
    check(error_frac and error_frac[0] > 0, f"error_frac did not rise: {error_frac}")
    check(set(result["metrics"]) == set(bench.END_TO_END), "malformed line: metrics missing")


def check_refuses_without_sources() -> None:
    bare = bench.OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_tiny("verify_suite", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    check(proc.returncode != 0, "benchmark without sources exited 0")
    check('"metrics"' not in proc.stdout, "benchmark without sources printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_benchmark_json()
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace)
    check_runs_file_matches_cli()
    check_malformed_line_counts()
    check_refuses_without_sources()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
