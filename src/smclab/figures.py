"""SVG line charts of run series, and the figure each scenario view names."""
from __future__ import annotations

# html.escape(quote=False) replaces &, < and > as xml.sax.saxutils.escape
# does, without importing urllib, http, email and ssl
import html
import math
import sys
from pathlib import Path

import numpy as np

from . import sim
from .errors import SmcLabError

# view name -> (SVG file suffix, plotted per-node column, y axis label)
VIEWS = {"state": (".svg", "x", "position"), "control": (".u.svg", "u", "control")}
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
    # an overflowing slack would never end the loop
    limit = min(hi + 1e-9 * span, sys.float_info.max)
    ticks = []
    k = 0
    while first + k * step <= limit:
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
        # +-1 around a flat trace, or +-|y| / 16 where 1 would vanish in
        # rounding; the ends stay within the largest float
        pad = 1.0 if abs(y_lo) < 2.0 ** 52 else abs(y_lo) / 16
        big = sys.float_info.max
        y_lo, y_hi = max(y_lo - pad, -big), min(y_hi + pad, big)
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
        pts = " ".join(map("{:.2f},{:.2f}".format,
                           px(xs[idx]).tolist(), py(ys[idx]).tolist()))
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
            f'fill="#333333">{html.escape(str(label), quote=False)}</text>'
        )

    if title:
        parts.append(
            f'<text x="{width / 2:.2f}" y="{mt - 12:.2f}" font-size="14" '
            f'text-anchor="middle" fill="#111111">'
            f'{html.escape(title, quote=False)}</text>'
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
            f'{html.escape(ylabel, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _node_traces(ts: sim.TimeSeries, base: str):
    """(name, t, column) for each node's ``base`` column: x, or x1 .. xn."""
    return [
        (name, ts.t, ts.column(name))
        for name in ts.column_names()
        if name.rstrip("0123456789") == base
    ]


def write_views(ts: sim.TimeSeries, name: str, views, out_dir: Path) -> list[Path]:
    """Write one SVG per view in ``views`` (see :data:`VIEWS`).

    A view whose values a float cannot span, which only a failed run
    records, is left out with one line on stderr."""
    written = []
    for view, (suffix, column, ylabel) in VIEWS.items():
        if view in views:
            path = out_dir / f"{name}{suffix}"
            try:
                svg = render_line_svg(_node_traces(ts, column), title=name, ylabel=ylabel)
            except SmcLabError as exc:
                print(f"skipped {path}: {exc}", file=sys.stderr)
                continue
            path.write_text(svg)
            written.append(path)
    return written
