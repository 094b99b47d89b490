"""Minimal self-contained SVG line plots; no plotting dependency. Every
``<text>`` is built by ``_text``, which escapes ``&``, ``<`` and ``>``, so
any title, axis label or legend entry reads back as given."""

from __future__ import annotations

import math

import numpy as np

from .csvio import atomic_write_text
from .errors import ValidationError

PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

WIDTH = 760
HEIGHT = 440
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 5  # about five ticks
    if not raw > 0:  # a span so small that its step underflows: one tick
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next((mult * mag for mult in (1.0, 2.0, 5.0) if raw <= mult * mag), 10.0 * mag)
    # at most six multiples of step fit the span; where step is below an ulp, several round to one
    first = math.ceil(lo / step)
    ticks = (k * step for k in range(first, first + 6))
    return sorted({t for t in ticks if lo - 1e-9 * step <= t <= hi + 1e-9 * step})


def _text(x, y, size: int, body, anchor: str = "", transform: str = "") -> str:
    """One ``<text>`` element at the formatted position (x, y), its ``body`` escaped."""
    body = f"{body}".replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{body}</text>')


def render_line_plot(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render labelled (x, y) series as a :data:`WIDTH` x :data:`HEIGHT` SVG
    document string. Raises ValidationError for no series, no point, a
    non-finite value, or a padded range too wide to map onto the axes."""
    if not series:
        raise ValidationError("a line plot needs at least one series")
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    if not (xs.size and np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValidationError("a line plot needs at least one point and only finite values")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    # a zero span is padded by the larger of 1.0 and 5 % of its value, which rounding cannot absorb
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, 0.05 * abs(x_lo))
    pad = 0.05 * (y_hi - y_lo) or max(1.0, 0.05 * abs(y_lo))
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    if not (math.isfinite(plot_w * (x_hi - x_lo)) and math.isfinite(plot_h * (y_hi - y_lo))):
        raise ValidationError(f"plot range x [{x_lo:g}, {x_hi:g}], y [{y_lo:g}, {y_hi:g}] is too wide")

    def px(x: float) -> float:
        return _MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(f"{WIDTH / 2:.1f}", 20, 14, title, anchor="middle"),
    ]
    axis = (
        f'M {_MARGIN_LEFT} {_MARGIN_TOP} L {_MARGIN_LEFT} {_MARGIN_TOP + plot_h} '
        f'L {_MARGIN_LEFT + plot_w} {_MARGIN_TOP + plot_h}'
    )
    parts.append(f'<path d="{axis}" stroke="#333" fill="none" stroke-width="1"/>')
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        y0 = _MARGIN_TOP + plot_h
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="#333"/>')
        parts.append(_text(f"{x:.2f}", y0 + 18, 11, f"{t:.6g}", anchor="middle"))
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(_text(_MARGIN_LEFT - 8, f"{y + 4:.2f}", 11, f"{t:.6g}", anchor="end"))
    parts.append(_text(f"{_MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 8, 12, xlabel, anchor="middle"))
    mid = f"{_MARGIN_TOP + plot_h / 2:.1f}"
    parts.append(_text(16, mid, 12, ylabel, anchor="middle", transform=f"rotate(-90 16 {mid})"))
    for k, (label, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        # px and py map whole arrays; elementwise float64 arithmetic in the same
        # order gives the same doubles as mapping one point at a time
        coords = np.column_stack((px(np.asarray(x, dtype=float)), py(np.asarray(y, dtype=float))))
        pts = " ".join(["%.2f,%.2f"] * len(coords)) % tuple(coords.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_TOP + 14 + 16 * k
        lx = _MARGIN_LEFT + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(_text(lx + 28, ly, 11, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_plot(path: str, series, title: str, xlabel: str, ylabel: str) -> None:
    atomic_write_text(path, render_line_plot(series, title, xlabel, ylabel))
