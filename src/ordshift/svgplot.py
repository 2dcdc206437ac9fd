"""Star plots and smooth-function plots as standalone SVG 1.1 documents.

A star is a cross at (e^alpha, e^beta): the horizontal arm spans the
dispersion confidence interval, the vertical arm the location interval.
Both axes are log-scaled and the reference lines x=1 / y=1 mark
non-significance: a star crossing y=1 has a non-significant location
effect, one crossing x=1 a non-significant dispersion effect.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .exceptions import SpecError
from .fit import FitResult, smooth_values

_GRID_POINTS = 200
# star plot: canvas size and axis labels
_STAR_WIDTH, _STAR_HEIGHT = 640, 480
_STAR_X_LABEL = "dispersion  exp(alpha)"
_STAR_Y_LABEL = "location  exp(beta)"
# smooth plot: size of one panel, placed side by side
_PANEL_WIDTH, _PANEL_HEIGHT = 360, 300


def _c(value: float) -> str:
    return f"{value:.2f}"


class _Canvas:
    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=None, cls=None):
        attrs = f'x1="{_c(x1)}" y1="{_c(y1)}" x2="{_c(x2)}" y2="{_c(y2)}"'
        attrs += f' stroke="{stroke}" stroke-width="{width:g}"'
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        if cls:
            attrs += f' class="{cls}"'
        self.parts.append(f"<line {attrs}/>")

    def circle(self, cx, cy, r, fill="black", cls=None):
        attrs = f'cx="{_c(cx)}" cy="{_c(cy)}" r="{r:g}" fill="{fill}"'
        if cls:
            attrs += f' class="{cls}"'
        self.parts.append(f"<circle {attrs}/>")

    def text(self, x, y, content, size=11, anchor="start", rotate=None, cls=None):
        attrs = f'x="{_c(x)}" y="{_c(y)}" font-size="{size}" font-family="sans-serif"'
        attrs += f' text-anchor="{anchor}"'
        if rotate is not None:
            attrs += f' transform="rotate({rotate:g} {_c(x)} {_c(y)})"'
        if cls:
            attrs += f' class="{cls}"'
        self.parts.append(f"<text {attrs}>{escape(content)}</text>")

    def polyline(self, xs, ys, stroke="black", width=1.5, cls=None):
        pts = " ".join(f"{_c(x)},{_c(y)}" for x, y in zip(xs, ys))
        attrs = f'points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width:g}"'
        if cls:
            attrs += f' class="{cls}"'
        self.parts.append(f"<polyline {attrs}/>")

    def rect(self, x, y, w, h, stroke="black"):
        self.parts.append(
            f'<rect x="{_c(x)}" y="{_c(y)}" width="{_c(w)}" height="{_c(h)}" '
            f'fill="none" stroke="{stroke}"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _log_range(values):
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    finite.append(1.0)
    lo, hi = math.log(min(finite)), math.log(max(finite))
    if hi - lo < 1e-9:
        lo, hi = math.log(0.5), math.log(2.0)
    pad = 0.08 * (hi - lo)
    return lo - pad, hi + pad


def render_star_svg(points) -> str:
    """Star plot of (e^alpha, e^beta) points with CI cross-arms.

    An empty point list still yields a well-formed plot with the two
    reference lines.
    """
    width, height = _STAR_WIDTH, _STAR_HEIGHT
    left, right, top, bottom = 70, 24, 24, 56
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [v for p in points for v in (p.disp_lo, p.disp, p.disp_hi)]
    ys = [v for p in points for v in (p.loc_lo, p.loc, p.loc_hi)]
    x_lo, x_hi = _log_range(xs)
    y_lo, y_hi = _log_range(ys)

    def px(v):
        return left + (math.log(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return top + plot_h - (math.log(v) - y_lo) / (y_hi - y_lo) * plot_h

    svg = _Canvas(width, height)
    svg.rect(left, top, plot_w, plot_h)

    for i in range(5):
        lx = math.exp(x_lo + (x_hi - x_lo) * i / 4)
        ly = math.exp(y_lo + (y_hi - y_lo) * i / 4)
        svg.line(px(lx), top + plot_h, px(lx), top + plot_h + 4)
        svg.text(px(lx), top + plot_h + 16, f"{lx:.2f}", anchor="middle")
        svg.line(left - 4, py(ly), left, py(ly))
        svg.text(left - 6, py(ly) + 4, f"{ly:.2f}", anchor="end")

    svg.text(left + plot_w / 2, height - 14, _STAR_X_LABEL, anchor="middle")
    svg.text(16, top + plot_h / 2, _STAR_Y_LABEL, anchor="middle", rotate=-90)

    svg.line(px(1.0), top, px(1.0), top + plot_h, stroke="grey", dash="4 3", cls="ref")
    svg.line(left, py(1.0), left + plot_w, py(1.0), stroke="grey", dash="4 3", cls="ref")

    for p in points:
        x, y = px(p.disp), py(p.loc)
        svg.line(px(p.disp_lo), y, px(p.disp_hi), y, width=1.5, cls="star-arm")
        svg.line(x, py(p.loc_lo), x, py(p.loc_hi), width=1.5, cls="star-arm")
        svg.circle(x, y, 3, cls="star")
        svg.text(x + 5, y - 5, p.variable, cls="star-label")
    return svg.render()


def render_smooth_svg(result: FitResult, variable: str) -> str:
    """Fitted smooth functions of one variable on a 200-point grid.

    One panel per smooth term (location and/or dispersion); curves are
    centered over the sample and the grid spans the observed range.
    """
    sides = [s for s in ("location", "dispersion") if (s, variable) in result.smooths]
    if not sides:
        raise SpecError(f"variable {variable!r} has no smooth term in this fit")

    panel_width, height = _PANEL_WIDTH, _PANEL_HEIGHT
    left, right, top, bottom = 56, 16, 28, 44
    plot_w, plot_h = panel_width - left - right, height - top - bottom
    svg = _Canvas(panel_width * len(sides), height)

    for panel, side in enumerate(sides):
        info = result.smooths[(side, variable)]
        grid = np.linspace(info.basis.lo, info.basis.hi, _GRID_POINTS)
        values = smooth_values(result, side, variable, grid)
        v_lo = min(float(values.min()), 0.0)
        v_hi = max(float(values.max()), 0.0)
        pad = 0.08 * (v_hi - v_lo or 1.0)
        v_lo, v_hi = v_lo - pad, v_hi + pad
        x0 = panel * panel_width + left

        def px(v):
            return x0 + (v - grid[0]) / (grid[-1] - grid[0]) * plot_w

        def py(v):
            return top + plot_h - (v - v_lo) / (v_hi - v_lo) * plot_h

        svg.rect(x0, top, plot_w, plot_h)
        label = "f" if side == "location" else "f_S"
        svg.text(x0 + plot_w / 2, 18, f"{side} effect {label}({variable})", anchor="middle")
        svg.line(x0, py(0.0), x0 + plot_w, py(0.0), stroke="grey", dash="4 3", cls="zero")
        for tick in (grid[0], (grid[0] + grid[-1]) / 2, grid[-1]):
            svg.line(px(tick), top + plot_h, px(tick), top + plot_h + 4)
            svg.text(px(tick), top + plot_h + 16, f"{tick:g}", anchor="middle")
        for tick in np.linspace(v_lo, v_hi, 3):
            svg.line(x0 - 4, py(tick), x0, py(tick))
            svg.text(x0 - 6, py(tick) + 4, f"{tick:.2f}", anchor="end")
        svg.text(x0 + plot_w / 2, height - 12, variable, anchor="middle")
        svg.polyline([px(g) for g in grid], [py(v) for v in values], cls="curve")
    return svg.render()
