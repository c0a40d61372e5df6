"""Self-test of the benchmark: every workload and every check once at tiny size,
then negative controls that the checks must catch.

    python3 bench/selftest.py

Run from the repository root.  It exits 0 only when
  * every workload runs end to end and traced at tiny size, with every check
    passing, no failed operation, and exactly the metric names of
    BENCHMARK.json;
  * each negative control is caught: a kick evaluated without oversampling,
    a kick with the wrong power, and a perturbed strichartz value column and
    ratio column;
  * run.py refuses, with a non-zero exit and no result line, to run in a
    copy of the benchmark that holds no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from checks import CHECKS  # noqa: E402
from nlwlab import dynamics  # noqa: E402
from nlwlab.harness import run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _rows(name: str) -> tuple[dict, list[dict]]:
    workload = WORKLOADS[name]
    values = workload.config(0, tiny=True)
    return values, run_experiment(workload.experiment, values, workers=1).records


def _caught(check_fn, values: dict, rows: list[dict], prefix: str) -> bool:
    return any(not c.passed for c in check_fn(values, rows) if c.name.startswith(prefix))


def negative_controls() -> list[str]:
    """Each altered program or output must fail its check; returns what slipped."""
    missed = []
    values, rows = _rows("growth-kick")
    original = dynamics._nonlinear_raw
    altered = {
        "kick without oversampling":
            lambda grid, u, p, oversample: original(grid, u, p, 1),
        "kick with power p+1":
            lambda grid, u, p, oversample: original(grid, u, p + 1.0, oversample),
    }
    for label, kick in altered.items():
        dynamics._nonlinear_raw = kick
        try:
            if not _caught(CHECKS["growth"], values, rows, "kick_vs_6x"):
                missed.append(label)
        finally:
            dynamics._nonlinear_raw = original

    values, rows = _rows("strichartz-norms")
    for column in ("value", "ratio"):
        bad = [dict(r, **{column: r[column] * (1.0 + 1e-6)}) if r["phase"] == "linear"
               else r for r in rows]
        if not _caught(CHECKS["strichartz"], values, bad, "linear_rows_seed"):
            missed.append(f"perturbed strichartz {column} column")
    return missed


def refuses_without_program() -> bool:
    """In a directory holding only the benchmark, run.py exits non-zero, silently."""
    bare = run.OUT_ROOT / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "growth-kick",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            report = run.measure(name, 0, 0.0, bool(trace), tiny=True)
            result = report["result"]
            for line in report["lines"]:
                if line.startswith("[FAIL]"):
                    print(line)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: checks or assertions failed")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{name} trace {trace}: metric names differ from "
                                f"BENCHMARK.json: {sorted(set(result['metrics']) ^ expected[trace])}")
            print(f"ran {name} trace {trace}: {result['attempted']} runs, "
                  f"{len(report['checks'])} checks")
    for label in negative_controls():
        problems.append(f"negative control not caught: {label}")
    print("negative controls run")
    if not refuses_without_program():
        problems.append("run.py did not refuse to run without the program")
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
