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


def _polyline(points, stroke: str, width: float, closed: bool = False) -> str:
    coords = " ".join(
        f"{fmt9(px)},{fmt9(py)}" for px, py in (to_px(x, y) for x, y in points)
    )
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{coords}" fill="none" stroke="{stroke}" stroke-width="{fmt9(width)}"/>'


def _line(a, b, stroke: str, dashed: bool = False) -> str:
    (x1, y1), (x2, y2) = to_px(*a), to_px(*b)
    dash = ' stroke-dasharray="8,6"' if dashed else ""
    return (f'<line x1="{fmt9(x1)}" y1="{fmt9(y1)}" x2="{fmt9(x2)}" y2="{fmt9(y2)}" '
            f'stroke="{stroke}" stroke-width="1"{dash}/>')


def _frame(stroke: str, width: float) -> str:
    """The square [-1, 1]^2."""
    return _polyline([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)], stroke, width,
                     closed=True)


def _document(parts: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {fmt9(SIZE)} {fmt9(SIZE)}">\n'
        f'<rect width="{fmt9(SIZE)}" height="{fmt9(SIZE)}" fill="white"/>\n'
    )
    return head + "\n".join(parts) + "\n</svg>\n"


def phase_portrait_svg(cycle_points, trajectories) -> str:
    """Phase portrait: spiral trajectories in grey, the limit cycle in red."""
    return _document([
        _frame("#cccccc", 1.0),
        _line((-WORLD, 0.0), (WORLD, 0.0), "#dddddd"),
        _line((0.0, -WORLD), (0.0, WORLD), "#dddddd"),
        *(_polyline(traj, "#888888", 1.5) for traj in trajectories),
        _polyline(cycle_points, "#cc2222", 3.0, closed=True),
    ])


def branch_grid_svg(nodes, curves, anchors) -> str:
    """Branch-rectangle grid with the lifted cycles and their anchors."""
    parts = [_frame("#888888", 1.5)]
    for c in nodes[1:-1]:  # interior critical lines only
        parts += [_line((c, -1.0), (c, 1.0), "#bbbbbb", dashed=True),
                  _line((-1.0, c), (1.0, c), "#bbbbbb", dashed=True)]
    parts += [_polyline(curve, "#2255cc", 2.0, closed=True) for curve in curves]
    parts += [f'<circle cx="{fmt9(cx)}" cy="{fmt9(cy)}" r="5" fill="#cc2222"/>'
              for cx, cy in (to_px(*pt) for pt in anchors)]
    return _document(parts)


def poly_graph_svg(sample_points, intervals) -> str:
    """Graph of a univariate polynomial with its full-branch intervals shaded."""
    parts = []
    for iv in intervals:
        lo, hi = max(iv.lo, -WORLD), min(iv.hi, WORLD)
        (x0, y0), (x1, y1) = to_px(lo, 1.0), to_px(hi, -1.0)
        parts.append(f'<rect x="{fmt9(x0)}" y="{fmt9(y0)}" width="{fmt9(x1 - x0)}" '
                     f'height="{fmt9(y1 - y0)}" fill="#dce8f8"/>')
    return _document(parts + [
        _frame("#cccccc", 1.0),
        _line((-WORLD, 0.0), (WORLD, 0.0), "#dddddd"),
        _polyline(sample_points, "#2255cc", 2.5),
    ])
