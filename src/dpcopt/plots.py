"""Tiny SVG line charts.

CSV is the authoritative output of a run; these charts exist so a run
directory can be eyeballed without further tooling. One polyline, two
axes, a log y axis. No dependency beyond the stdlib.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["line_chart", "write_chart"]

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

_STYLE = 'font-family="monospace" font-size="12"'


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt_tick(value: float) -> str:
    if value != 0 and (abs(value) >= 1e4 or abs(value) < 1e-2):
        return f"{value:.2e}"
    return f"{value:.4g}"


def line_chart(
    xs: list[float],
    ys: list[float],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render one line as a standalone SVG document, with log10 y.

    Points with a non-positive y are dropped (residuals can hit exact zero
    on noise-free runs).
    """
    pairs = [
        (x, y)
        for x, y in zip(xs, ys)
        if math.isfinite(x) and math.isfinite(y) and y > 0
    ]
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" {_STYLE}>{title}</text>',
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f"{_STYLE}>{x_label}</text>",
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2}" text-anchor="middle" {_STYLE} '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2})">{y_label}</text>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    if pairs:
        tx = [p[0] for p in pairs]
        ty = [math.log10(p[1]) for p in pairs]
        x_lo, x_hi = min(tx), max(tx)
        y_lo, y_hi = min(ty), max(ty)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def px(value: float) -> float:
            return MARGIN_LEFT + (value - x_lo) / x_span * plot_w

        def py(value: float) -> float:
            return MARGIN_TOP + plot_h - (value - y_lo) / y_span * plot_h

        for tick in _ticks(x_lo, x_hi):
            x = px(tick)
            parts.append(
                f'<line x1="{x:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.2f}" '
                f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 18}" '
                f'text-anchor="middle" {_STYLE}>{_fmt_tick(tick)}</text>'
            )
        for tick in _ticks(y_lo, y_hi):
            y = py(tick)
            parts.append(
                f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" '
                f'y2="{y:.2f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
                f"{_STYLE}>1e{tick:.1f}</text>"
            )
        points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(tx, ty))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
        )
    else:
        parts.append(
            f'<text x="{WIDTH / 2}" y="{HEIGHT / 2}" text-anchor="middle" {_STYLE}>'
            "no plottable points</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, svg: str) -> None:
    Path(path).write_text(svg, encoding="utf-8")
