"""nlwlab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  `--seed` is the workload's seed base; the
program receives only the config resolved from it (see `workloads.py`).

--trace 0 measures the end-to-end figures, all with tracing off:
  setup_s      median over three fresh processes of import, config
               resolution and one untimed warm-up run;
  run_s        median wall time of one experiment run plus its CSV and
               summary writes, repeated for S seconds in one process;
  peak_rss_mb  peak resident memory of that process.
--trace 1 repeats the experiment for S seconds with every layer wrapped
(see `tracing.py`) and then times the public functions one call at a time;
it reports per-run call counts, median per-run self times, FFT counts and
the `micro.*` per-call costs.

Either way the outputs are then checked apart from the program
(`checks.py`), and the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  An operation is one
experiment run with its output checks; it fails when the experiment raises
or one of its assertions fails.  The process exits 0 when it ran to the end,
whatever the checks say, and 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROCESSES = 3
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH_DIR))
from tracing import LAYER_FUNCTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The program or a benchmark process could not be run."""


def _worker(workload: str, base: int, mode: str, seconds: float, out: Path,
            tiny: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed-base", str(base), "--mode", mode, "--seconds", repr(seconds),
           "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(workload, base: int, runs: list[dict], tiny: bool = False) -> list:
    """Independent checks on the kept outputs, plus byte identity across runs."""
    from checks import CHECKS, Check
    from nlwlab.harness import read_csv

    values = workload.config(base, tiny=tiny)
    rows = read_csv(Path(runs[-1]["out"]) / f"{workload.experiment}.csv")[1]
    distinct = len({r["csv_sha256"] for r in runs})
    return [Check("csv_identical_across_runs", float(distinct - 1), 0.0)] \
        + CHECKS[workload.experiment](values, rows)


def measure(name: str, base: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload end to end or traced; return the result object."""
    workload = WORKLOADS[name]
    out = OUT_ROOT / f"{name}-seed{base}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    lines = []
    if not trace:
        main_run = _worker(name, base, "timed", seconds, out / "timed", tiny)
        setups = [main_run["setup_s"]] + [
            _worker(name, base, "setup", 0.0, out / f"setup{i}", tiny)["setup_s"]
            for i in range(1, SETUP_PROCESSES)]
        runs = main_run["runs"]
        times = [r["run_s"] for r in runs]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
        q1, _, q3 = statistics.quantiles(times, n=4)
        lines.append(f"{name}: {len(runs)} runs of {workload.experiment}, "
                     f"run_s quartiles {q1:.4f} / {q3:.4f} s, "
                     f"setup_s samples {', '.join(f'{s:.3f}' for s in setups)}")
    else:
        traced = _worker(name, base, "traced", seconds, out / "traced", tiny)
        runs = traced["runs"]
        layers = [r["layers"] for r in runs]
        metrics = {}
        for key in [f"{f}.calls" for f in LAYER_FUNCTIONS] + ["fft.calls", "fft.points"]:
            counts = {layer[key] for layer in layers}
            if len(counts) != 1:
                raise BenchError(f"{key} differs between identical runs: {sorted(counts)}")
            metrics[key] = {"value": counts.pop(), "unit": "count"}
        for key in [f"{f}.self_s" for f in LAYER_FUNCTIONS] + ["fft.self_s"]:
            metrics[key] = {"value": statistics.median(layer[key] for layer in layers),
                            "unit": "s"}
        for key, value in traced["micro"].items():
            metrics[key] = {"value": value, "unit": "1/s" if key.endswith("per_s") else "ms"}
        traced_run_s = statistics.median(r["run_s"] for r in runs)
        lines.append(f"{name}: {len(runs)} traced runs of {workload.experiment}, "
                     f"traced run_s {traced_run_s:.4f} s")
        (out / "trace.json").write_text(json.dumps(
            {"workload": name, "seed_base": base, "traced_run_s": traced_run_s,
             "runs": runs, "micro": traced["micro"]}, indent=1) + "\n")

    checks = check_outputs(workload, base, runs, tiny)
    failed = sum(1 for r in runs if not r["passed"])
    for c in checks:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {name}/{c.name}: "
                     f"{c.value:.3e} <= {c.bound:.1e}")
    for key, metric in metrics.items():
        lines.append(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    return {"lines": lines, "checks": checks,
            "result": {"correct": all(c.passed for c in checks),
                       "attempted": len(runs), "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or `all` for each one untraced then traced")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed base; the workload's seeds are a block derived from it")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "nlwlab" / "__init__.py").is_file():
        print(f"error: no nlwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = []
    for name, trace in plan:
        try:
            report = measure(name, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in report["lines"]:
            print(line)
        results.append(report["result"])
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}{' traced' if trace else ''}": r["metrics"]
                        for (name, trace), r in zip(plan, results)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
