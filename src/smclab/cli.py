"""Command line interface: run scenarios, execute the suite, plot CSVs.

Exit codes: 0 success, 2 configuration problem, 3 divergence or overflow,
4 suite finished with partial failures.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import scenarios, sim
from .errors import ScenarioValidationError, SmcLabError
from .figures import render_line_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_PARTIAL = 4

OUT_ENV_VAR = "SMC_LAB_OUT"
DEFAULT_OUT = "smclab_out"

def _out_dir(flag_value) -> Path:
    if flag_value:
        return Path(flag_value)
    return Path(os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT)


def cmd_run(args) -> int:
    scenario = scenarios.validate(scenarios.document(args.scenario, args.set or ()))

    out_dir = _out_dir(args.out_dir)
    scenarios.make_dir(out_dir)
    ts, report, why = scenarios.run(scenario)
    views = () if args.no_svg else scenario.views
    for path in scenarios.write_run(scenario.name, ts, views, out_dir, report):
        print(f"wrote {path}")
    if why is None:
        return EXIT_OK
    partial = ", partial output written" if ts.diverged else ""
    print(f"run {why}{partial}", file=sys.stderr)
    return EXIT_DIVERGED


def cmd_suite(args) -> int:
    out_dir = _out_dir(args.out_dir)
    result = scenarios.run_suite(scenarios.builtin_suite(), out_dir,
                                 parallelism=args.parallelism)

    for group in sorted(result.matrices):
        print(f"=== {group} ===")
        print(result.matrices[group].to_text())
        print()
    print(f"ran {len(result.runs)} scenarios, output in {out_dir}")
    if result.failures:
        for name in sorted(result.failures):
            print(f"failed: {name}: {result.failures[name]}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_plot(args) -> int:
    columns = [c for c in args.columns.split(",") if c]
    if not columns:
        raise SmcLabError("--columns lists no column names")
    traces = []
    for csv_ref in args.csv:
        path = Path(csv_ref)
        ts = sim.TimeSeries.read_csv(path)
        names = ts.column_names()
        for column in columns:
            if column not in names:
                raise SmcLabError(f"{path} has no column '{column}' "
                                  f"(available: {', '.join(names)})")
            for name in ("t", column):
                if not np.isfinite(ts.column(name)).all():
                    raise SmcLabError(
                        f"{path}: column '{name}' holds nan or inf values, "
                        "which cannot be plotted"
                    )
            label = column if len(args.csv) == 1 else f"{path.stem}:{column}"
            traces.append((label, ts.t, ts.column(column)))

    out = Path(args.out) if args.out else Path(args.csv[0]).with_suffix(".plot.svg")
    scenarios.make_dir(out.parent)
    out.write_text(render_line_svg(traces, title=args.title or "", ylabel=",".join(columns)),
                   encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smclab",
        description="Sliding mode control lab: simulate, benchmark, plot.",
        epilog="example: smclab run fig1_pendulum_observer_free --set controller.lambda=5",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run one scenario (JSON file or built-in name)",
        epilog="example: smclab run scenario.json --set sim.dt=0.002 --set controller.lambda=4",
    )
    p_run.add_argument("scenario", help="scenario JSON path or built-in scenario name")
    p_run.add_argument("--out-dir", help=f"output directory (default ${OUT_ENV_VAR} or ./{DEFAULT_OUT})")
    p_run.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="dotted-path override, e.g. controller.lambda=5")
    p_run.add_argument("--no-svg", action="store_true", help="skip the SVG plot")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser(
        "suite",
        help="run the built-in benchmark suite",
        epilog="example: smclab suite --out-dir results",
    )
    p_suite.add_argument("--out-dir", help=f"output directory (default ${OUT_ENV_VAR} or ./{DEFAULT_OUT})")
    p_suite.add_argument("--parallelism", type=int, default=1,
                         help="accepted for compatibility, must be >= 1 (default 1); "
                              "runs execute one at a time in the calling thread, "
                              "so output is identical at every value")
    p_suite.set_defaults(func=cmd_suite)

    p_plot = sub.add_parser(
        "plot",
        help="plot columns of one or more run CSVs to SVG",
        epilog="example: smclab plot a.csv b.csv --columns u --out controls.svg",
    )
    p_plot.add_argument("csv", nargs="+", help="run CSV file(s)")
    p_plot.add_argument("--columns", required=True,
                        help="comma separated column names, e.g. x,u")
    p_plot.add_argument("--out", help="output SVG path (default next to first CSV)")
    p_plot.add_argument("--title", help="plot title")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        for message in exc.errors:
            print(f"invalid scenario: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except SmcLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reads and directories raise SmcLabError: a write failed
        print(f"error: cannot write {exc.filename or 'an output file'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
