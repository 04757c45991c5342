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
    # one tick where the span, its sixth or the sixth's power of ten is 0
    mag = 10.0 ** math.floor(math.log10(span / _TICKS)) if span / _TICKS > 0 else 0.0
    if mag == 0.0:
        return [lo]
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


def _axis(values: np.ndarray, margin: float = 0.0) -> tuple[float, float]:
    """The ends of an axis over ``values``: ``margin`` of their span beyond
    each, or +-1 around a flat range, +-|v| / 16 where 1 would vanish in
    rounding; flat ends stay within the largest float."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        pad = 1.0 if abs(lo) < 2.0 ** 52 else abs(lo) / 16
        big = sys.float_info.max
        return max(lo - pad, -big), min(hi + pad, big)
    pad = margin * (hi - lo)
    return lo - pad, hi + pad


def _line(x1, y1, x2, y2, stroke: str, width: int) -> str:
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x, y, body, size=11, fill="#333333", anchor="middle", extra="") -> str:
    """``body`` escaped at (x, y); an ``x`` given as a string is written as is."""
    x = x if isinstance(x, str) else f"{x:.2f}"
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y:.2f}" font-size="{size}"{anchor} fill="{fill}"{extra}>'
            f'{html.escape(str(body), quote=False)}</text>')


def render_line_svg(traces, title: str = "", ylabel: str = "") -> str:
    """Self-contained SVG line chart over t; traces are (label, xs, ys) triples."""
    width, height = 800.0, 480.0
    ml, mr, mt, mb = 72.0, 16.0, 36.0, 48.0
    x_lo, x_hi = _axis(np.concatenate([np.asarray(t[1], dtype=float) for t in traces]))
    y_lo, y_hi = _axis(np.concatenate([np.asarray(t[2], dtype=float) for t in traces]), 0.05)
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
        parts += (_line(x, mt, x, height - mb, "#dddddd", 1),
                  _text(x, height - mb + 16, f"{tick:g}"))
    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        parts += (_line(ml, y, width - mr, y, "#dddddd", 1),
                  _text(ml - 6, y + 4, f"{tick:g}", anchor="end"))
    parts.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{width - ml - mr:.2f}" '
        f'height="{height - mt - mb:.2f}" fill="none" stroke="#333333"/>'
    )

    legend = []
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
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        y = mt + 16 + 16 * i
        legend += (_line(width - mr - 150, y, width - mr - 126, y, color, 2),
                   _text(width - mr - 120, y + 4, label, anchor=""))
    parts += legend

    if title:
        parts.append(_text(width / 2, mt - 12, title, 14, "#111111"))
    parts.append(_text((ml + width - mr) / 2, height - 10, "t [s]", 12, "#111111"))
    if ylabel:
        mid = (mt + height - mb) / 2
        parts.append(_text("16", mid, ylabel, 12, "#111111",
                           extra=f' transform="rotate(-90 16 {mid:.2f})"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _node_traces(ts: sim.TimeSeries, base: str):
    """(name, t, column) for each node's ``base`` column: x, or x1 .. xn."""
    return [(name, ts.t, ts.table[:, j]) for j, name in enumerate(ts.column_names())
            if name.rstrip("0123456789") == base]


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
            path.write_text(svg, encoding="utf-8")
            written.append(path)
    return written
