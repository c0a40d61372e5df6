"""One benchmark process: set up a workload, then run it and report as JSON.

Run by `run.py` in a fresh interpreter, so that set-up time includes the
import and peak resident memory belongs to this workload alone:

    python3 bench/worker.py --workload NAME --seed-base N --mode MODE \
        --seconds S --out DIR [--tiny]

Modes: `setup` stops after set-up; `timed` repeats the experiment run plus
its CSV and summary writes for S seconds; `traced` does the same with every
layer wrapped by `tracing.Tracer`, then times single calls of the public
functions directly (the `micro.*` figures).  The last line of standard output
is the JSON report.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

import nlwlab  # noqa: E402
from nlwlab import harness  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, grid_of, recipe_of  # noqa: E402

MICRO_CALLS = 21
MIN_RUNS = 3


def run_once(experiment: str, values: dict, out: Path) -> dict:
    """One operation as the CLI does it: run the experiment, write its records."""
    t0 = time.perf_counter()
    result = harness.run_experiment(experiment, values, workers=1)
    csv_path = harness.write_csv(out / f"{experiment}.csv", experiment, result.records)
    harness.write_summary(out / f"{experiment}_summary.json", result.summary)
    elapsed = time.perf_counter() - t0
    return {"run_s": elapsed, "passed": result.passed,
            "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            "out": str(out)}


def repeat(experiment: str, values: dict, out: Path, seconds: float,
           tracer: Tracer | None = None) -> list[dict]:
    """Whole runs until `seconds` have been spent, and at least MIN_RUNS so
    that the median has a middle value and the CSV bytes of several runs can
    be compared; the last run's files are kept."""
    runs: list[dict] = []
    spent = 0.0
    while len(runs) < MIN_RUNS or spent < seconds:
        rep_dir = out / f"rep{len(runs)}"
        if tracer is not None:
            tracer.reset()
        run = run_once(experiment, values, rep_dir)
        if tracer is not None:
            run["layers"] = tracer.snapshot()
        spent += run["run_s"]
        if runs:
            shutil.rmtree(runs[-1]["out"])
        runs.append(run)
    return runs


def _median_ms(fn, *args) -> float:
    fn(*args)
    times = []
    for _ in range(MICRO_CALLS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def micro(workload, values: dict, out: Path) -> dict:
    """Per-call cost of each layer at the workload grid, called directly."""
    grid = grid_of(values)
    p, s = values["pde.p"], values["pde.s"]
    oversample, dt = values["stepper.oversample"], values["stepper.dt"]
    recipe = recipe_of(values, values["seeds"][0])
    state = nlwlab.synthesize(recipe, grid)
    cfg = nlwlab.StepperConfig(dt=dt, p=p, oversample=oversample)
    params = nlwlab.PdeParams(p=p, s=s)
    r_frac = next(t.r for t in nlwlab.reference_triples(params) if t.r != int(t.r))
    # a cutoff inside the band, so every branch of the smoothing profile acts
    cutoff = grid.max_wavenumber / 4.0
    smoother = nlwlab.smoothing_multiplier(cutoff, s)

    records = harness.read_csv(out / f"{workload.experiment}.csv")[1]
    csv_dir = out / "micro_csv"
    counter = itertools.count()

    def emit() -> None:
        harness.write_csv(csv_dir / f"{next(counter)}.csv", workload.experiment, records)

    figures = {
        "micro.kick_ms": _median_ms(nlwlab.nonlinear_term, state.u, p, oversample),
        "micro.strang_step_ms": _median_ms(nlwlab.strang_step, state, cfg),
        "micro.rotation_ms": _median_ms(nlwlab.propagate_linear, state, dt),
        "micro.lebesgue_ov2_ms": _median_ms(nlwlab.lebesgue_norm, state.u, p + 1.0, 2),
        "micro.lebesgue_ov1_ms": _median_ms(nlwlab.lebesgue_norm, state.u, r_frac, 1),
        "micro.sobolev_ms": _median_ms(nlwlab.sobolev_norm, state.u, s),
        "micro.smoothing_apply_ms": _median_ms(nlwlab.apply_multiplier, state.u, smoother),
        "micro.smoothed_energy_ms": _median_ms(nlwlab.smoothed_energy, state, cutoff, s, p),
        "micro.synthesize_ms": _median_ms(nlwlab.synthesize, recipe, grid),
    }
    figures["micro.csv_rows_per_s"] = len(records) / (1e-3 * _median_ms(emit))
    shutil.rmtree(csv_dir)
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    shutil.rmtree(args.out, ignore_errors=True)

    values = workload.config(args.seed_base, tiny=args.tiny)
    warm = workload.config(args.seed_base, tiny=args.tiny, warmup=True)
    run_once(workload.experiment, warm, args.out / "warmup")
    report = {"setup_s": time.perf_counter() - _T_START}
    shutil.rmtree(args.out / "warmup")

    if args.mode == "timed":
        report["runs"] = repeat(workload.experiment, values, args.out, args.seconds)
    elif args.mode == "traced":
        tracer = Tracer()
        tracer.install()
        try:
            report["runs"] = repeat(workload.experiment, values, args.out,
                                    args.seconds, tracer)
        finally:
            tracer.remove()
        report["micro"] = micro(workload, values, Path(report["runs"][-1]["out"]))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
