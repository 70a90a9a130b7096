"""Self-contained SVG emission: staircase/hull overlays and sequence plots."""

from __future__ import annotations

import math

from .convex import ConvexRegion
from .lattice import MonomialIdeal

_SIZE = 420
_MARGIN = 36
_CELLS = 64  # grid cells per axis at most, however large the exponents


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _header() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]


def _close(parts: list[str]) -> str:
    return "\n".join(parts) + "\n</svg>\n"


def _grid(span, stroke: str):
    """``px`` for data coordinates on [0, span]^2, the unit size, the grid
    step (the least integer giving at most ``_CELLS`` cells per axis) and
    grid lines at its multiples in 0..span.  A coarse grid also gets a line
    at span itself, so the plot keeps its far edges."""
    scale = (_SIZE - 2 * _MARGIN) / span
    step = max(1, math.ceil(span / _CELLS))

    def px(x, y):
        return (_MARGIN + float(x) * scale,
                _SIZE - _MARGIN - float(y) * scale)

    ticks = list(range(0, int(span) + 1, step))
    if step > 1 and ticks[-1] != span:
        ticks.append(span)
    lines = []
    for i in ticks:
        for (x0, y0), (x1, y1) in ((px(i, 0), px(i, span)), (px(0, i), px(span, i))):
            lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
                         f'y2="{_fmt(y1)}" stroke="{stroke}" stroke-width="0.5"/>')
    return px, scale, step, lines


def _chain(px, points) -> str:
    return " ".join(",".join(_fmt(c) for c in px(*p)) for p in points)


def _title(title: str) -> list[str]:
    return [f'<text x="{_MARGIN}" y="{_MARGIN - 10}" '
            f'font-family="monospace" font-size="12">{title}</text>'] if title else []


def staircase_svg(ideal: MonomialIdeal, region: ConvexRegion | None = None) -> str:
    """Staircase of a 2-D ideal, shaded, with the hull boundary overlaid.

    On a unit grid each cell whose lower-left corner is in the ideal is
    shaded; on a coarser grid the staircase is one polygon through the
    generators' exact corners."""
    if ideal.ring.d != 2:
        raise ValueError("staircase plots are two-dimensional only")
    gens = ideal.gens
    span = max([g[0] for g in gens] + [g[1] for g in gens] + [4]) + 2
    px, scale, step, grid = _grid(span, "#dddddd")
    parts = _header()
    if step == 1:
        for x in range(span):
            for y in range(span):
                if ideal.contains((x, y)):
                    x0, y0 = px(x, y + 1)
                    parts.append(
                        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(scale)}" '
                        f'height="{_fmt(scale)}" fill="#c8d8f0" stroke="none"/>')
    else:
        # sorted by x the generators fall in y: the boundary steps down to
        # each one, then across to the next one's column
        ordered = sorted(gens)
        corners = [(ordered[0][0], span)]
        for (x, y), (nx, _) in zip(ordered, ordered[1:] + [(span, 0)]):
            corners += [(x, y), (nx, y)]
        corners.append((span, span))
        parts.append(f'<polygon points="{_chain(px, corners)}" fill="#c8d8f0" '
                     f'stroke="none"/>')
    parts += grid
    if region is not None and region.halfspaces:
        parts.append(f'<polyline points="{_chain(px, region.vertices)}" fill="none" '
                     f'stroke="#d04040" stroke-width="2"/>')
    for gx, gy in gens:
        x0, y0 = px(gx, gy)
        parts.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="3.5" '
                     f'fill="#204080"/>')
    return _close(parts)


def regions_svg(regions, labels=()) -> str:
    """Vertex chains of 2-D regions, overlaid in distinct colors."""
    colors = ("#204080", "#d04040", "#208040", "#806020")
    chains = [D.vertices for D in regions]
    span = max((float(c) for verts in chains for v in verts for c in v),
               default=1.0) * 1.15 + 0.5
    px, _, _, grid = _grid(span, "#eeeeee")
    parts = _header() + grid
    for idx, verts in enumerate(chains):
        color = colors[idx % len(colors)]
        parts.append(f'<polyline points="{_chain(px, verts)}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        if idx < len(labels):
            x0, y0 = px(*verts[0])
            parts.append(f'<text x="{_fmt(x0 + 4)}" y="{_fmt(y0 - 4)}" '
                         f'font-family="monospace" font-size="11" '
                         f'fill="{color}">{labels[idx]}</text>')
    return _close(parts)


def sequence_svg(points, window=None, title: str = "") -> str:
    """Polyline of (n, value) samples with the tail window shaded."""
    data = [(int(n), float(v)) for n, v in points]
    if not data:
        raise ValueError("nothing to plot")
    xs = [n for n, _ in data]
    ys = [v for _, v in data]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi += 1
    if y_hi == y_lo:
        y_hi += 1
    pad = 0.08 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(n, v):
        fx = (n - x_lo) / (x_hi - x_lo)
        fy = (v - y_lo) / (y_hi - y_lo)
        return (_MARGIN + fx * (_SIZE - 2 * _MARGIN),
                _SIZE - _MARGIN - fy * (_SIZE - 2 * _MARGIN))

    parts = _header()
    if window is not None:
        w0, w1 = window
        x0, _ = px(w0, y_lo)
        x1, _ = px(w1, y_lo)
        parts.append(f'<rect x="{_fmt(x0)}" y="{_MARGIN}" '
                     f'width="{_fmt(x1 - x0)}" height="{_SIZE - 2 * _MARGIN}" '
                     f'fill="#f2e8c8"/>')
    parts.append(f'<rect x="{_MARGIN}" y="{_MARGIN}" '
                 f'width="{_SIZE - 2 * _MARGIN}" height="{_SIZE - 2 * _MARGIN}" '
                 f'fill="none" stroke="#888888"/>')
    parts.append(f'<polyline points="{_chain(px, data)}" fill="none" '
                 f'stroke="#204080" stroke-width="1.5"/>')
    parts += _title(title)
    return _close(parts)


def polygon_svg(points, title: str = "") -> str:
    """A closed exact-rational polygon (e.g. a counting body) on a grid."""
    pts = [(float(x), float(y)) for x, y in points]
    span = max([c for p in pts for c in p] + [1.0]) * 1.15 + 0.5
    px, _, _, grid = _grid(span, "#eeeeee")
    parts = _header() + grid
    parts.append(f'<polygon points="{_chain(px, pts)}" fill="#c8d8f0" '
                 f'stroke="#204080" stroke-width="2" fill-opacity="0.6"/>')
    parts += _title(title)
    return _close(parts)
