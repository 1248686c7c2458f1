"""Minimal deterministic SVG line charts: polylines, axes, ticks, legend.

CSV tables are the interface of record; these charts are a convenience and
deliberately avoid any plotting dependency.  Output is byte-deterministic for
identical inputs.
"""

from __future__ import annotations

from typing import Sequence

from .files import atomic_write

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_W, _H = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 36, 48


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _bounds(values, pad_fraction=0.05):
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = abs(hi) * pad_fraction + 1e-9
    else:
        pad = (hi - lo) * pad_fraction
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def line_chart(
    path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
):
    """Write a line chart of (label, xs, ys) series to an SVG file."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("line_chart needs at least one point")
    x_lo, x_hi = _bounds(xs_all)
    y_lo, y_hi = _bounds(ys_all)
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (1 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    axis_y = _H - _MARGIN_B
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_W - _MARGIN_R}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(_MARGIN_L + _W - _MARGIN_R) / 2:.1f}" y="{_H - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        cy = (_MARGIN_T + axis_y) / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 16 {cy:.1f})">{y_label}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        legend_y = _MARGIN_T + 14 + 16 * idx
        parts.append(
            f'<line x1="{_W - _MARGIN_R - 140}" y1="{legend_y - 4}" '
            f'x2="{_W - _MARGIN_R - 118}" y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MARGIN_R - 112}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with atomic_write(path) as handle:
        handle.write("\n".join(parts) + "\n")
