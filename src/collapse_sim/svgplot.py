"""Minimal self-contained SVG line plots; no plotting dependency."""

from __future__ import annotations

import math

import numpy as np

from .csvio import atomic_write_text

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
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt_tick(x: float) -> str:
    return f"{x:.6g}"


def render_line_plot(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render labelled (x, y) series as a :data:`WIDTH` x :data:`HEIGHT` SVG
    document string."""
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
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
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">{ylabel}</text>'
    )
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
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_plot(path: str, series, title: str, xlabel: str, ylabel: str) -> None:
    atomic_write_text(path, render_line_plot(series, title, xlabel, ylabel))
