"""Minimal deterministic SVG output.

Self-contained documents with a fixed 1000x1000 viewBox mapping the
world square (-1.1, 1.1)^2; every coordinate is written with 9
significant digits and no timestamps, so repeated runs are
byte-identical and the files diff cleanly in golden tests.
"""

from __future__ import annotations

from .polynomials import fmt9

WORLD = 1.1
SIZE = 1000.0


def to_px(x: float, y: float) -> tuple[float, float]:
    scale = SIZE / (2.0 * WORLD)
    return ((x + WORLD) * scale, (WORLD - y) * scale)


class SvgCanvas:
    def __init__(self) -> None:
        self._parts: list[str] = []

    def polyline(self, points, stroke: str, width: float = 2.0, closed: bool = False) -> None:
        coords = " ".join(
            f"{fmt9(px)},{fmt9(py)}" for px, py in (to_px(x, y) for x, y in points)
        )
        tag = "polygon" if closed else "polyline"
        self._parts.append(
            f'<{tag} points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{fmt9(width)}"/>'
        )

    def line(self, a, b, stroke: str, width: float = 1.0, dashed: bool = False) -> None:
        (x1, y1), (x2, y2) = to_px(*a), to_px(*b)
        dash = ' stroke-dasharray="8,6"' if dashed else ""
        self._parts.append(
            f'<line x1="{fmt9(x1)}" y1="{fmt9(y1)}" x2="{fmt9(x2)}" y2="{fmt9(y2)}" '
            f'stroke="{stroke}" stroke-width="{fmt9(width)}"{dash}/>'
        )

    def circle(self, center, r_px: float, fill: str) -> None:
        cx, cy = to_px(*center)
        self._parts.append(
            f'<circle cx="{fmt9(cx)}" cy="{fmt9(cy)}" r="{fmt9(r_px)}" fill="{fill}"/>'
        )

    def rect_world(self, x0, y0, x1, y1, stroke: str, width: float = 1.5) -> None:
        self.polyline([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], stroke, width, closed=True)

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {fmt9(SIZE)} {fmt9(SIZE)}">\n'
            f'<rect width="{fmt9(SIZE)}" height="{fmt9(SIZE)}" fill="white"/>\n'
        )
        return head + "\n".join(self._parts) + "\n</svg>\n"


def phase_portrait_svg(cycle_points, trajectories) -> str:
    """Phase portrait: spiral trajectories in grey, the limit cycle in red."""
    canvas = SvgCanvas()
    canvas.rect_world(-1.0, -1.0, 1.0, 1.0, stroke="#cccccc", width=1.0)
    canvas.line((-WORLD, 0.0), (WORLD, 0.0), stroke="#dddddd", width=1.0)
    canvas.line((0.0, -WORLD), (0.0, WORLD), stroke="#dddddd", width=1.0)
    for traj in trajectories:
        canvas.polyline(traj, stroke="#888888", width=1.5)
    canvas.polyline(cycle_points, stroke="#cc2222", width=3.0, closed=True)
    return canvas.render()


def branch_grid_svg(nodes, curves, anchors) -> str:
    """Branch-rectangle grid with the lifted cycles and their anchors."""
    canvas = SvgCanvas()
    canvas.rect_world(-1.0, -1.0, 1.0, 1.0, stroke="#888888", width=1.5)
    for c in nodes[1:-1]:  # interior critical lines only
        canvas.line((c, -1.0), (c, 1.0), stroke="#bbbbbb", width=1.0, dashed=True)
        canvas.line((-1.0, c), (1.0, c), stroke="#bbbbbb", width=1.0, dashed=True)
    for curve in curves:
        canvas.polyline(curve, stroke="#2255cc", width=2.0, closed=True)
    for pt in anchors:
        canvas.circle(pt, 5.0, fill="#cc2222")
    return canvas.render()


def poly_graph_svg(sample_points, intervals) -> str:
    """Graph of a univariate polynomial with its full-branch intervals shaded."""
    canvas = SvgCanvas()
    for iv in intervals:
        lo, hi = max(iv.lo, -WORLD), min(iv.hi, WORLD)
        (x0, y0), (x1, y1) = to_px(lo, 1.0), to_px(hi, -1.0)
        canvas._parts.append(
            f'<rect x="{fmt9(x0)}" y="{fmt9(y0)}" width="{fmt9(x1 - x0)}" '
            f'height="{fmt9(y1 - y0)}" fill="#dce8f8"/>'
        )
    canvas.rect_world(-1.0, -1.0, 1.0, 1.0, stroke="#cccccc", width=1.0)
    canvas.line((-WORLD, 0.0), (WORLD, 0.0), stroke="#dddddd", width=1.0)
    canvas.polyline(sample_points, stroke="#2255cc", width=2.5)
    return canvas.render()
