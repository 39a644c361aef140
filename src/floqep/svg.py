"""Minimal self-contained SVG plotting.

Polyline plots with axes, tick labels, legends, and point markers; the
output is a standalone file viewable in any browser.  Deliberately free of
rendering dependencies so every figure a run emits is reproducible from
the package alone.
"""

from __future__ import annotations

import math

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 44, 56
_WIDTH, _HEIGHT = 860, 520


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    step = _nice_step(hi - lo, target)
    t = math.ceil(lo / step) * step
    out = []
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


class _Frame:
    """Data-to-pixel transform over the inner plot box."""

    def __init__(self, x_range, y_range):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.box_w = _WIDTH - _LEFT - _RIGHT
        self.box_h = _HEIGHT - _TOP - _BOTTOM

    def x(self, v: float) -> float:
        return _LEFT + (v - self.x_lo) / (self.x_hi - self.x_lo) * self.box_w

    def y(self, v: float) -> float:
        return _TOP + (self.y_hi - v) / (self.y_hi - self.y_lo) * self.box_h


def _padded_range(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = max(abs(lo), 1.0) * 0.05
    else:
        pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def line_plot(path, series, *, title="", x_label="", y_label="",
              markers=()):
    """Write a polyline plot.

    ``series`` is a list of (label, xs, ys) triples; ``markers`` a list of
    (x, y, label) points drawn as annotated circles (used for coalescence
    positions on parameter-plane maps).
    """
    xs_all = [x for _, xs, _ in series for x in xs] + [m[0] for m in markers]
    ys_all = [y for _, _, ys in series for y in ys] + [m[1] for m in markers]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    frame = _Frame(_padded_range(xs_all), _padded_range(ys_all))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
             f'font-family="sans-serif" font-size="12">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']

    for tx in _ticks(frame.x_lo, frame.x_hi):
        px = frame.x(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{_TOP}" x2="{px:.1f}" '
                     f'y2="{_TOP + frame.box_h}" stroke="#e0e0e0"/>')
        parts.append(f'<text x="{px:.1f}" y="{_TOP + frame.box_h + 18}" '
                     f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(frame.y_lo, frame.y_hi):
        py = frame.y(ty)
        parts.append(f'<line x1="{_LEFT}" y1="{py:.1f}" '
                     f'x2="{_LEFT + frame.box_w}" y2="{py:.1f}" stroke="#e0e0e0"/>')
        parts.append(f'<text x="{_LEFT - 6}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{_fmt(ty)}</text>')
    parts.append(f'<rect x="{_LEFT}" y="{_TOP}" width="{frame.box_w}" '
                 f'height="{frame.box_h}" fill="none" stroke="#404040"/>')

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{frame.x(x):.2f},{frame.y(y):.2f}"
                       for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        if label:
            ly = _TOP + 16 + 16 * i
            lx = _LEFT + frame.box_w - 12
            parts.append(f'<line x1="{lx - 30}" y1="{ly - 4}" x2="{lx - 8}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
            parts.append(f'<text x="{lx - 36}" y="{ly}" '
                         f'text-anchor="end">{_esc(label)}</text>')

    for x, y, label in markers:
        px, py = frame.x(x), frame.y(y)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" '
                     f'fill="#d62728" stroke="#7f1d1d"/>')
        if label:
            parts.append(f'<text x="{px + 6:.1f}" y="{py - 6:.1f}">'
                         f'{_esc(label)}</text>')

    if title:
        parts.append(f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
                     f'font-size="15">{_esc(title)}</text>')
    if x_label:
        parts.append(f'<text x="{_LEFT + frame.box_w / 2:.0f}" '
                     f'y="{_HEIGHT - 14}" text-anchor="middle">{_esc(x_label)}</text>')
    if y_label:
        cy = _TOP + frame.box_h / 2
        parts.append(f'<text x="18" y="{cy:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 18 {cy:.0f})">{_esc(y_label)}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def ep_map_plot(path, records, *, title="coalescence map"):
    """Parameter-plane map of refined coalescences."""
    markers = [(r.lambda_ep, r.intensity_ep, f"({r.pair[0]},{r.pair[1]})")
               for r in records]
    line_plot(path, [], title=title, x_label="wavelength (nm)",
              y_label="intensity (10^13 W/cm^2)", markers=markers)
