"""Monotone full-branch structure of univariate polynomials on (-1, 1).

A full branch of p is an open interval that p maps strictly monotonically
onto (-1, 1).  For the Chebyshev polynomial T_m the m branches are known
in closed form from the nodes cos(k*pi/m).  For any rational p,
`full_branch_intervals` decides them exactly, with no tolerance: a branch
runs between two consecutive real roots of p**2 = 1 at opposite levels
where p' keeps one sign, and those roots and the critical points of p are
isolated on integer polynomials by Descartes' rule.  Each root's cell is
then narrowed by a safeguarded secant on exact integer values to the same
dyadic cell that bisection would reach.  Only the reported endpoints
become floats: the nearest ones, or one float further out each when a
branch is narrower than the float spacing.
`degenerate` means that p' and p'' share a root: p has a critical point
where p' may keep its sign (x**3 at 0), so a branch can hold a critical
point.

Convention: branches are indexed right to left, interval k running from
nodes[k] up to nodes[k-1], and T_m is increasing on odd-indexed branches
and decreasing on even-indexed ones (the sign of T_m' on branch k is
(-1)**(k-1)).  The closed-form inverse and the exact classifier both
follow this convention, which keeps the orientation bookkeeping of the
pullback machinery deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polynomials import UniPoly, chebyshev, integer_numerators

INCREASING = 1
DECREASING = -1


@dataclass(frozen=True)
class BranchInterval:
    """Open interval (lo, hi) carrying a 1-based index and monotonicity sign."""

    index: int
    lo: float
    hi: float
    direction: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty branch interval ({self.lo}, {self.hi})")
        if self.direction not in (INCREASING, DECREASING):
            raise ValueError("direction must be +1 or -1")

    def contains(self, x: float, margin: float = 0.0) -> bool:
        return self.lo + margin < x < self.hi - margin


@dataclass(frozen=True)
class BranchSet:
    """All full branches of a polynomial, ordered right to left."""

    poly: UniPoly
    intervals: tuple[BranchInterval, ...]
    degenerate: bool = False

    @property
    def count(self) -> int:
        return len(self.intervals)


def cheb_nodes(m: int) -> list[float]:
    """Nodes cos(k*pi/m), k = 0..m, strictly decreasing from 1 to -1.

    Built symmetrically so that nodes[k] == -nodes[m-k] exactly and the
    middle node of an even m is exactly 0.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    nodes = [0.0] * (m + 1)
    for k in range(m // 2 + 1):
        nodes[k] = math.cos(k * math.pi / m)
    if m % 2 == 0:
        nodes[m // 2] = 0.0
    for k in range(m // 2 + 1, m + 1):
        nodes[k] = -nodes[m - k]
    nodes[0], nodes[m] = 1.0, -1.0
    return nodes


@lru_cache(maxsize=None)
def cheb_branches(m: int) -> BranchSet:
    """The m full branches of T_m on (-1, 1), in closed form; built once
    per m, the BranchSet being immutable."""
    nodes = cheb_nodes(m)
    intervals = tuple(
        BranchInterval(
            index=k,
            lo=nodes[k],
            hi=nodes[k - 1],
            direction=INCREASING if k % 2 == 1 else DECREASING,
        )
        for k in range(1, m + 1)
    )
    return BranchSet(poly=chebyshev(m), intervals=intervals)


def cheb_preimage(m: int, k: int, y: float) -> float:
    """The preimage of y under T_m on branch k, unchecked.

    u = cos(((k-1)*pi + arccos y) / m) on odd branches and
    u = cos((k*pi - arccos y) / m) on even ones, for -1 <= y <= 1.  Being
    a closed form it keeps the accuracy of acos and cos at every m, where
    float Horner on T_m does not; `branch_inverse` adds the range and
    exact residual checks.
    """
    a = math.acos(y)
    if k % 2 == 1:
        theta = ((k - 1) * math.pi + a) / m
    else:
        theta = (k * math.pi - a) / m
    return math.cos(theta)


def branch_inverse(m: int, k: int, y: float) -> float:
    """The unique preimage of y under T_m inside branch k: `cheb_preimage`,
    checked.  Valid only for y strictly inside (-1, 1); the endpoints are
    critical values.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if not 1 <= k <= m:
        raise ValueError(f"branch index {k} out of range 1..{m}")
    if not -1.0 < y < 1.0:
        raise ValueError(f"y={y} outside (-1, 1); branch endpoints are critical values")
    u = cheb_preimage(m, k, y)
    bset = cheb_branches(m)
    # exact: float Horner on T_m errs by ~eps*sum|a_i|, over 1e-12 from m=13
    resid = abs(bset.poly.evaluate(Fraction(u)) - Fraction(y))
    if resid > 1e-12 or not bset.intervals[k - 1].contains(u):
        raise ArithmeticError(
            f"branch inverse postcondition failed: m={m} k={k} y={y} u={u} resid={float(resid)}"
        )
    return u


def _primitive(f: list[int]) -> list[int]:
    """f divided by the gcd of its coefficients (which run from the constant up)."""
    g = math.gcd(*f)
    return [c // g for c in f]


def _derivative(f: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(f)][1:]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials, by primitive pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r, lead, db = a, b[-1], len(b) - 1
        while len(r) > db:  # one pseudo-division step per leading term
            q, s = r[-1], len(r) - 1 - db
            r = [c * lead for c in r]
            for i, c in enumerate(b):
                r[s + i] -= q * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive(r)
    return a


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a (so the quotient is integral)."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for s in range(len(q) - 1, -1, -1):
        q[s] = a[s + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[s + i] -= q[s] * c
    return q


def _shift1(f: list[int]) -> list[int]:
    """Coefficients of f(x + 1) (Taylor shift)."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] += f[j + 1]
    return f


def _value_at(f: list[int], num: int, k: int) -> int:
    """f at the dyadic rational num / 2**k times 2**(k * deg f) (times 1 for
    k < 0), an integer: on one level k, f scaled by one positive factor."""
    if k < 0:
        num, k = num << -k, 0
    acc, n = 0, len(f) - 1
    for i in range(n, -1, -1):
        acc = acc * num + (f[i] << k * (n - i))
    return acc


def _sign_at(f: list[int], num: int, k: int) -> int:
    """Sign of f at the dyadic rational num / 2**k, exactly."""
    acc = _value_at(f, num, k)
    return (acc > 0) - (acc < 0)


def _isolate(f: list[int]) -> list[tuple]:
    """The real roots of the squarefree integer polynomial f, one cell
    (g, num, k, s) per root: the root is num / 2**k if s == 0, else it lies
    in (num / 2**k, (num + 1) / 2**k) and g (f, or f / x if f(0) = 0) has
    the sign s between num / 2**k and the root.

    Descartes' rule with bisection (Collins & Akritas 1976) on (0, 2**B)
    and (-2**B, 0), B from Fujiwara's root bound: with a cell mapped onto
    (0, 1) as h of degree n, the sign variations of (1 + x)**n h(1 / (1 + x))
    bound the number of roots in the cell and share its parity, so a cell
    with more than one variation is halved.
    """
    cells = []
    if f[0] == 0:
        cells.append((f, 0, 0, 0))
        f = f[1:]
    n = len(f) - 1
    top = f[-1].bit_length() - 1
    bound = 1 + max([0] + [-((top - f[n - i].bit_length()) // i) for i in range(1, n + 1)])
    for side in (1, -1):
        todo = [([c * side**i << bound * i for i, c in enumerate(f)], 0, 0)]
        while todo:
            h, c, k = todo.pop()
            if h[0] == 0:  # a root at the left end of the cell
                cells.append((f, side * c, k - bound, 0))
                h = h[1:]
            signs = [x > 0 for x in _shift1(h[::-1]) if x]
            variations = sum(a != b for a, b in zip(signs, signs[1:]))
            if variations == 1:
                s = 1 if h[0] > 0 else -1
                cells.append((f, c, k - bound, s) if side == 1 else (f, -c - 1, k - bound, -s))
            elif variations > 1:
                left = [x << len(h) - 1 - i for i, x in enumerate(h)]
                todo += [(left, 2 * c, k + 1), (_shift1(left), 2 * c + 1, k + 1)]
    return cells


def _narrow(cell: tuple, level: int) -> tuple:
    """The cell bisection reaches: (floor(r * 2**level), level, s) for the
    root r, or (a, j, 0) when r = a / 2**j in lowest terms with j <= level.

    A safeguarded secant finds it on the integer grid of that level.  Each
    step evaluates g exactly at a grid point x strictly inside the bracket,
    which keeps the root strictly inside: x is left of the root iff g(x) has
    the sign s (not the sign of g at the left end, which can itself be a
    root), and g(x) = 0 only at the root.  x is the secant point of the last
    two evaluations, or the midpoint after a step that failed to halve the
    bracket, so a cell costs at most about two evaluations per bit.  A
    bracket one grid step wide holds no grid point, so its root is not
    dyadic at this level or below.
    """
    g, num, k, s = cell
    if not s or k >= level:
        return cell
    lo, hi = num << (level - k), (num + 1) << (level - k)
    a, ga, b, gb = lo, _value_at(g, lo, level), hi, _value_at(g, hi, level)
    bisect = False
    while hi - lo > 1:
        width = hi - lo
        if bisect or ga == gb:
            x = (lo + hi) // 2
        else:
            x = min(max(b - (b - a) * gb // (gb - ga), lo + 1), hi - 1)
        gx = _value_at(g, x, level)
        if gx == 0:  # dyadic: x / 2**level, reduced to lowest terms
            zeros = (x & -x).bit_length() - 1
            return g, x >> zeros, level - zeros, 0
        if (gx > 0) == (s > 0):
            lo = x
        else:
            hi = x
        a, ga, b, gb = b, gb, x, gx
        bisect = 2 * (hi - lo) > width + 1  # an odd width halves to (width + 1) / 2
    return g, lo, level, s


def _float_ends(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """lo < hi rounded to floats, widened one float outward if they round to one."""
    a, b = float(lo), float(hi)
    return (math.nextafter(a, -math.inf), math.nextafter(b, math.inf)) if a == b else (a, b)


def _ends(cell: tuple) -> tuple[Fraction, Fraction]:
    _, num, k, s = cell
    unit = Fraction(2) ** -k
    return num * unit, (num + (s != 0)) * unit


def full_branch_intervals(p: UniPoly) -> BranchSet:
    """All full branches of p, decided exactly.

    With p = P / den, P integer: the roots of p = +-1 are those of the
    squarefree parts of P -+ den, the critical points off those levels those
    of the squarefree part of P' with the tangency points gcd(P -+ den, P')
    divided out.  Cells are narrowed to width 2**-40 and until apart, and
    p' is read at a rational point of each gap between neighbouring roots.
    """
    if p.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    P, den = integer_numerators(p.coeffs)  # p = P / den
    dP = _derivative(P)
    repeated = _gcd(dP, _derivative(dP))
    crit = _quotient(dP, repeated)
    roots = []
    for level in (1, -1):
        shifted = [P[0] - level * den] + P[1:]
        tangent = _gcd(shifted, dP)
        crit = _quotient(crit, _gcd(crit, tangent))
        roots += [(level, _narrow(cell, 40)) for cell in _isolate(_quotient(shifted, tangent))]
    roots += [(0, _narrow(cell, 40)) for cell in _isolate(crit)]
    while True:  # halve cells until each gap between neighbours has a rational point
        roots.sort(key=lambda r: _ends(r[1]))
        ends = [_ends(cell) for _, cell in roots]
        clash = {i + d for i in range(len(roots) - 1) if ends[i][1] >= ends[i + 1][0] for d in (0, 1)}
        if not clash:
            break
        roots = [(level, _narrow(cell, cell[2] + (i in clash)))
                 for i, (level, cell) in enumerate(roots)]

    def slope(i: int) -> int:  # the sign of p' between roots i and i + 1
        t = (ends[i][1] + ends[i + 1][0]) / 2
        return _sign_at(dP, t.numerator, t.denominator.bit_length() - 1)

    marks = [i for i, (level, _) in enumerate(roots) if level]
    found = [
        (*_float_ends(sum(ends[i]) / 2, sum(ends[j]) / 2), roots[j][0])
        for i, j in zip(marks, marks[1:])
        if roots[i][0] == -roots[j][0] and all(slope(g) == roots[j][0] for g in range(i, j))
    ]
    intervals = tuple(BranchInterval(k, *iv) for k, iv in enumerate(reversed(found), start=1))
    return BranchSet(poly=p, intervals=intervals, degenerate=len(repeated) > 1)


def branch_set_to_json(bs: BranchSet) -> dict:
    return {
        "count": bs.count,
        "degenerate": bs.degenerate,
        "intervals": [
            {
                "k": iv.index,
                "lo": iv.lo,
                "hi": iv.hi,
                "dir": "+" if iv.direction == INCREASING else "-",
            }
            for iv in bs.intervals
        ],
    }
