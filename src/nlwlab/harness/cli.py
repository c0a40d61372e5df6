"""Command-line entry point.

Subcommands: `params` prints derived constants for a (p, s) pair; each
experiment subcommand resolves its configuration, runs the seeded cells,
writes a CSV of records plus a JSON summary, and prints one line per
assertion.

Exit codes: 0 all assertions pass, 1 at least one assertion fails,
2 configuration or parameter errors, 3 runtime failures (blow-up, I/O, or
any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..data import DataError
from ..dynamics import BlowUpError
from ..fields import FieldError
from ..params import (
    ParamError,
    PdeParams,
    ThresholdError,
    critical_regularity,
    cutoff_choice,
    growth_exponents,
    regularity_threshold,
    scale_choice,
)
from .config import EXPERIMENTS, ConfigError, build_config
from .experiments import run_experiment, worker_count
from .records import write_csv, write_summary

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlwlab",
        description="Simulation laboratory for a defocusing nonlinear wave "
                    "equation on a periodic box.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser(
        "params", help="print derived constants for a (p, s) pair")
    p_params.add_argument("--p", type=float, required=True,
                          help="nonlinearity power")
    p_params.add_argument("--s", type=float, required=True,
                          help="data regularity")
    p_params.add_argument("--cu", type=float, default=1.0,
                          help="data size functional value")
    p_params.add_argument("--horizon", type=float, default=1.0,
                          help="time horizon for the cutoff choice")
    p_params.add_argument("--cutoff", type=float, default=16.0,
                          help="frequency cutoff for the scale choice")
    p_params.add_argument("--prefactor", type=float, default=1.0)
    p_params.add_argument("--floor", type=float, default=1.0)

    for name in EXPERIMENTS:
        p_exp = sub.add_parser(name, help=f"run the {name} experiment")
        p_exp.add_argument("--config", type=Path, default=None,
                           help="key=value configuration file")
        p_exp.add_argument("--out", type=Path, default=None,
                           help="output directory (default results/<name>)")
        p_exp.add_argument("--seeds", type=str, default=None,
                           help="comma-separated seed list override")
        p_exp.add_argument("--override", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="config override, repeatable")
        p_exp.add_argument("--workers", type=int, default=None,
                           help="process count (default NLWLAB_WORKERS or "
                                "all cores)")
    return parser


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    return repr(value) if isinstance(value, float) else str(value)


def _run_params(args) -> int:
    report: dict[str, float | None] = {"p": args.p, "s": args.s}
    try:
        report["s_crit"] = critical_regularity(args.p)
        report["s_threshold"] = regularity_threshold(args.p)
        params = PdeParams(p=args.p, s=args.s)
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        exps = growth_exponents(params)
        report["alpha"] = exps.alpha
        report["beta"] = exps.beta
        report["scale"] = scale_choice(args.cu, args.cutoff, params,
                                       prefactor=args.prefactor)
        report["cutoff"] = cutoff_choice(args.cu, args.horizon, params,
                                         prefactor=args.prefactor,
                                         floor=args.floor)
    except ThresholdError:
        for key in ("alpha", "beta", "scale", "cutoff"):
            report[key] = None
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    width = max(len(k) for k in report)
    for key, value in report.items():
        print(f"{key:<{width}}  {_fmt(value)}")
    print(json.dumps(report, sort_keys=True))
    return EXIT_PASS


def _run_one_experiment(name: str, args) -> int:
    try:
        file_text = None
        if args.config is not None:
            file_text = args.config.read_text(encoding="utf-8")
        overrides = list(args.override)
        if args.seeds is not None:
            overrides.append(f"seeds={args.seeds}")
        values = build_config(name, file_text=file_text, overrides=overrides)
        workers = worker_count() if args.workers is None else args.workers
        if workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {workers}")
    except (ConfigError, ParamError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_experiment(name, values, workers=workers)
        out_dir = args.out if args.out is not None else Path("results") / name
        csv_path = out_dir / f"{name}.csv"
        write_csv(csv_path, name, result.records)
        write_summary(out_dir / f"{name}_summary.json", result.summary)
    except (ConfigError, ParamError, DataError, FieldError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"runtime error: solution blew up at t={exc.time}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    except (RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    for check in result.summary["assertions"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {name}/{check['name']}: value={check['value']:.6g} "
              f"{check['sense']} threshold={check['threshold']:.6g}")
    print(f"records: {csv_path}")
    return EXIT_PASS if result.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "params":
            return _run_params(args)
        return _run_one_experiment(args.command, args)
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
