"""Command line interface: run scenarios, execute the suite, plot CSVs.

Exit codes: 0 success, 2 configuration problem, 3 divergence or overflow,
4 suite finished with partial failures.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import scenarios, sim
from .errors import ScenarioValidationError, SmcLabError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_PARTIAL = 4

OUT_ENV_VAR = "SMC_LAB_OUT"
DEFAULT_OUT = "smclab_out"

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#17becf", "#7f7f7f",
)
_MAX_POINTS = 2000
_TICKS = 6      # most ticks per axis


def _nice_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * mag) <= _TICKS:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    k = 0
    while first + k * step <= hi + 1e-9 * span:
        val = first + k * step
        ticks.append(0.0 if abs(val) < 1e-9 * step else val)
        k += 1
    return ticks


def render_line_svg(traces, title: str = "", ylabel: str = "") -> str:
    """Self-contained SVG line chart over t; traces are (label, xs, ys) triples."""
    width, height = 800.0, 480.0
    ml, mr, mt, mb = 72.0, 16.0, 36.0, 48.0
    xs_all = np.concatenate([np.asarray(t[1], dtype=float) for t in traces])
    ys_all = np.concatenate([np.asarray(t[2], dtype=float) for t in traces])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise SmcLabError("the plotted values span more than a float can hold")

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    for tick in _nice_ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt:.2f}" x2="{x:.2f}" '
            f'y2="{height - mb:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 16:.2f}" font-size="11" '
            f'text-anchor="middle" fill="#333333">{tick:g}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{ml:.2f}" y1="{y:.2f}" x2="{width - mr:.2f}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6:.2f}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" fill="#333333">{tick:g}</text>'
        )
    parts.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{width - ml - mr:.2f}" '
        f'height="{height - mt - mb:.2f}" fill="none" stroke="#333333"/>'
    )

    for i, (label, xs, ys) in enumerate(traces):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        stride = max(1, xs.shape[0] // _MAX_POINTS)
        idx = np.arange(0, xs.shape[0], stride)
        if idx[-1] != xs.shape[0] - 1:
            idx = np.append(idx, xs.shape[0] - 1)
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs[idx], ys[idx]))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )

    for i, (label, _, _) in enumerate(traces):
        color = _PALETTE[i % len(_PALETTE)]
        y = mt + 16 + 16 * i
        parts.append(
            f'<line x1="{width - mr - 150:.2f}" y1="{y:.2f}" '
            f'x2="{width - mr - 126:.2f}" y2="{y:.2f}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 120:.2f}" y="{y + 4:.2f}" font-size="11" '
            f'fill="#333333">{escape(str(label))}</text>'
        )

    if title:
        parts.append(
            f'<text x="{width / 2:.2f}" y="{mt - 12:.2f}" font-size="14" '
            f'text-anchor="middle" fill="#111111">{escape(title)}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 10:.2f}" '
        f'font-size="12" text-anchor="middle" fill="#111111">t [s]</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(mt + height - mb) / 2:.2f}" font-size="12" '
            f'text-anchor="middle" fill="#111111" '
            f'transform="rotate(-90 16 {(mt + height - mb) / 2:.2f})">'
            f'{escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _out_dir(flag_value) -> Path:
    if flag_value:
        return Path(flag_value)
    return Path(os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT)


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SmcLabError(f"cannot create output directory {path}: {exc}") from None


def _parse_override(text: str):
    if "=" not in text:
        raise SmcLabError(f"override '{text}' must look like path.to.key=value")
    path, raw_value = text.split("=", 1)
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise SmcLabError(f"override '{text}' has an empty key path")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    return keys, value


def _apply_override(raw: dict, keys, value, source: str):
    if not isinstance(raw, dict):
        raise SmcLabError(f"override '{source}': the scenario is not a JSON object")
    node = raw
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = {}
            node[key] = child
        if not isinstance(child, dict):
            raise SmcLabError(
                f"override '{source}': '{key}' does not address an object"
            )
        node = child
    node[keys[-1]] = value


def _node_traces(ts: sim.TimeSeries, base: str):
    """(name, t, column) for each node's ``base`` column: x, or x1 .. xn."""
    return [
        (name, ts.t, ts.column(name))
        for name in ts.column_names()
        if name.rstrip("0123456789") == base
    ]


def _write_views(ts: sim.TimeSeries, name: str, views, out_dir: Path) -> list[Path]:
    """Write one SVG per view in ``views`` (see ``scenarios.VIEWS``)."""
    written = []
    for view, (suffix, column, ylabel) in scenarios.VIEWS.items():
        if view in views:
            path = out_dir / f"{name}{suffix}"
            path.write_text(
                render_line_svg(_node_traces(ts, column), title=name, ylabel=ylabel)
            )
            written.append(path)
    return written


def _load_raw_scenario(ref: str) -> dict:
    path = Path(ref)
    if path.exists():
        try:
            with open(path, "r", encoding="utf-8") as f:
                return json.load(f)
        except json.JSONDecodeError as exc:
            raise SmcLabError(f"{path}: not valid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise SmcLabError(f"{path}: cannot read: {exc}") from None
    for sc in scenarios.builtin_suite():
        if sc.name == ref:
            return sc.to_dict()
    raise SmcLabError(
        f"'{ref}' is neither a readable file nor a built-in scenario name"
    )


def cmd_run(args) -> int:
    raw = _load_raw_scenario(args.scenario)
    if args.dt is not None:
        _apply_override(raw, ["sim", "dt"], args.dt, "--dt")
    for text in args.set or []:
        keys, value = _parse_override(text)
        _apply_override(raw, keys, value, text)
    scenario = scenarios.validate(raw)

    out_dir = _out_dir(args.out_dir)
    _make_dir(out_dir)
    ts, report, why = scenarios.run(scenario)

    csv_path = out_dir / f"{scenario.name}.csv"
    ts.write_csv(csv_path)
    written = [csv_path]

    if report is not None:
        metrics_path = out_dir / f"{scenario.name}.metrics.txt"
        metrics_path.write_text(report.to_kv_text())
        written.append(metrics_path)

    if not args.no_svg:
        written += _write_views(ts, scenario.name, scenario.views, out_dir)

    for path in written:
        print(f"wrote {path}")
    if why is None:
        return EXIT_OK
    partial = ", partial output written" if ts.diverged else ""
    print(f"run {why}{partial}", file=sys.stderr)
    return EXIT_DIVERGED


def cmd_suite(args) -> int:
    if args.parallelism < 1:
        print("error: --parallelism must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = _out_dir(args.out_dir)
    _make_dir(out_dir)
    suite = scenarios.builtin_suite()
    result = scenarios.run_suite(suite, out_dir, parallelism=args.parallelism)

    by_name = {sc.name: sc for sc in suite}
    for name in sorted(result.runs):
        _write_views(result.runs[name][0], name, by_name[name].views, out_dir)

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
        print("error: --columns lists no column names", file=sys.stderr)
        return EXIT_CONFIG
    traces = []
    try:
        for csv_ref in args.csv:
            path = Path(csv_ref)
            ts = sim.TimeSeries.read_csv(path)
            names = ts.column_names()
            for column in columns:
                if column not in names:
                    print(
                        f"error: {path} has no column '{column}' "
                        f"(available: {', '.join(names)})",
                        file=sys.stderr,
                    )
                    return EXIT_CONFIG
                for name in ("t", column):
                    if not np.isfinite(ts.column(name)).all():
                        raise SmcLabError(
                            f"{path}: column '{name}' holds nan or inf values, "
                            "which cannot be plotted"
                        )
                label = column if len(args.csv) == 1 else f"{path.stem}:{column}"
                traces.append((label, ts.t, ts.column(column)))
    except (OSError, SmcLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out) if args.out else Path(args.csv[0]).with_suffix(".plot.svg")
    _make_dir(out.parent)
    svg = render_line_svg(traces, title=args.title or "", ylabel=",".join(columns))
    try:
        out.write_text(svg)
    except OSError as exc:
        raise SmcLabError(f"cannot write {out}: {exc}") from None
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
    p_run.add_argument("--dt", type=float, help="shorthand for --set sim.dt=DT")
    p_run.add_argument("--no-svg", action="store_true", help="skip the SVG plot")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser(
        "suite",
        help="run the built-in benchmark suite",
        epilog="example: smclab suite --out-dir results --parallelism 4",
    )
    p_suite.add_argument("--out-dir", help=f"output directory (default ${OUT_ENV_VAR} or ./{DEFAULT_OUT})")
    p_suite.add_argument("--parallelism", type=int, default=1,
                         help="number of concurrent runs (default 1)")
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


if __name__ == "__main__":
    raise SystemExit(main())
