"""Monotone full-branch structure of univariate polynomials on (-1, 1).

A full branch of p is an open interval that p maps strictly monotonically
onto (-1, 1).  For the Chebyshev polynomial T_m the m branches are known
in closed form from the nodes cos(k*pi/m).  For any rational p,
`full_branch_intervals` decides them exactly, with no tolerance: a branch
runs between two consecutive real roots of p**2 = 1 at opposite levels
where p' keeps one sign, and those roots and the critical points of p are
isolated on integer polynomials by Descartes' rule, whose Taylor shift
stops at a cell's second sign variation: two or more only mean that the
cell is halved.  Each root's cell is then narrowed on exact integer
values, with the coefficients scaled once per level, to the same dyadic
cell that bisection would reach: by regula falsi with the Illinois
weighting (Dowell & Jarratt 1971), which halves the value kept at one end
when the other end moved twice running, and by the midpoint whenever the
evaluations have outrun two per bit the bracket has lost.
For an odd or even p, as every T_m is, the roots below 0 are the mirrors
of those above it.  An even p is Q(x**2), and so are p -+ 1 and p'/x: the
gcds, squarefree parts, isolation and narrowing run in y = x**2, at half
the degree, on [0, inf), a root y > 0 narrowed to width 4**-40 giving the
cell of width 2**-40 of x = sqrt(y) by an integer square root, and a
root x = 0 being read from the valuation in y.  For an odd p,
p + 1 = -(p - 1)(-x): one level is isolated on both sides and gives the
other by negation, and the critical points, p' being even, are found in y.
Only the reported endpoints become floats: the nearest ones, or one float
further out each when a branch is narrower than the float spacing.
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
from itertools import accumulate

from .polynomials import UniPoly, _convolve, chebyshev

INCREASING = 1
DECREASING = -1


class RootClashError(ArithmeticError):
    """Two roots isolated at one exact point, which no narrowing parts."""


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
    critical values.  The check is stated in u, so it holds at every m: u
    lies in branch k, and within 2**-49 of the exact preimage, about three
    times the closed form's worst error (2.77 eps, measured at 200 bits up
    to m = 256).  A residual |T_m(u) - y| scales with |T_m'(u)|, up to m**2.
    """
    bset = cheb_branches(m)
    if not 1 <= k <= m:
        raise ValueError(f"branch index {k} out of range 1..{m}")
    if not -1.0 < y < 1.0:
        raise ValueError(f"y={y} outside (-1, 1); branch endpoints are critical values")
    u = cheb_preimage(m, k, y)
    iv = bset.intervals[k - 1]
    # exact: T_m is monotone on the branch, so the preimage lies within 2**-49
    # of u iff T_m - y keeps no one strict sign at u -+ 2**-49, clipped to it
    f_lo, f_hi = (bset.poly.evaluate(Fraction(x)) - Fraction(y)
                  for x in (max(u - 2.0**-49, iv.lo), min(u + 2.0**-49, iv.hi)))
    if f_lo * f_hi > 0 or not iv.contains(u):
        raise ArithmeticError(
            f"branch inverse postcondition failed: m={m} k={k} y={y} u={u}"
            f" is not inside the branch or not within 2**-49 of the preimage"
        )
    return u


def _primitive(f: list[int]) -> list[int]:
    """f divided by the gcd of its coefficients (which run from the constant up)."""
    g = math.gcd(*f)
    return [c // g for c in f]


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


def _taylor_shift(top_down: list[int]):
    """The coefficients of f(x + 1), constant first, each yielded as soon as
    it is final, for f given by its coefficients from the top down.  A
    running sum over them ends in f(1), the constant; the sums before it
    are the coefficients of (f(x + 1) - f(1)) / x, from the top down."""
    g = top_down
    while g:
        g = list(accumulate(g))
        yield g.pop()


def _variations(h: list[int]) -> int:
    """The sign variations of (1 + x)**n h(1 / (1 + x)), n = deg h, counted
    up to 2: the shift stops at the second, as more only mean a halving.  That
    polynomial is r(x + 1) for r = x**n h(1 / x), whose coefficients from
    the top down are h's from the constant up."""
    count, last = 0, 0
    for c in _taylor_shift(h):
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
                if count == 2:
                    break
            last = c
    return count


def _on_level(f: list[int], k: int):
    """x -> f at the dyadic rational x / 2**k times 2**(k * deg f) (times 1
    for k < 0), an integer: on one level k, f scaled by one positive
    factor.  The coefficients are shifted once, here, for every x."""
    n, up, k = len(f) - 1, max(-k, 0), max(k, 0)
    top_down = [f[i] << k * (n - i) for i in range(n, -1, -1)]

    def value(x: int) -> int:
        x <<= up
        acc = 0
        for c in top_down:
            acc = acc * x + c
        return acc

    return value


def _isolate(f: list[int], sides=(1, -1)) -> list[tuple]:
    """The real roots of the squarefree integer polynomial f, one cell
    (g, num, k, s) per root: the root is num / 2**k if s == 0, else it lies
    in (num / 2**k, (num + 1) / 2**k) and g (f, or f / x if f(0) = 0) has
    the sign s between num / 2**k and the root.  With sides (1,), only the
    roots in [0, inf).

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
    for side in sides:
        todo = [([c * side**i << bound * i for i, c in enumerate(f)], 0, 0)]
        while todo:
            h, c, k = todo.pop()
            if h[0] == 0:  # a root at the left end of the cell
                cells.append((f, side * c, k - bound, 0))
                h = h[1:]
            variations = _variations(h)
            if variations == 1:
                s = 1 if h[0] > 0 else -1
                cells.append((f, c, k - bound, s) if side == 1 else (f, -c - 1, k - bound, -s))
            elif variations > 1:
                left = [x << len(h) - 1 - i for i, x in enumerate(h)]
                todo += [(left, 2 * c, k + 1), (list(_taylor_shift(left[::-1])), 2 * c + 1, k + 1)]
    return cells


def _narrow(cell: tuple, level: int) -> tuple:
    """The cell bisection reaches: (floor(r * 2**level), level, s) for the
    root r, or (a, j, 0) when r = a / 2**j in lowest terms with j <= level.

    It is found on the integer grid of that level.  Each step evaluates g
    exactly at a grid point x strictly inside the bracket, which keeps the
    root strictly inside: x is left of the root iff g(x) has the sign s (not
    the sign of g at the left end, which can itself be a root), and
    g(x) = 0 only at the root.  x is the regula falsi point of the bracket,
    rounded down and clamped one grid step inside it, with the value at an
    end that a step kept twice running halved (Illinois), so the bracket
    closes from both sides; or the midpoint, while an end of the bracket is
    another root (g is 0 there and gives no slope), and whenever the
    evaluations so far, the ends' included, are at least twice the bits the
    bracket has lost, so a cell costs at most about two evaluations per bit.
    The first step is such a midpoint, and only then are the ends read, the
    one it replaced never.
    A bracket one grid step wide holds no grid point, so its root is not
    dyadic at this level or below.
    """
    g, num, k, s = cell
    if not s or k >= level:
        return cell
    value = _on_level(g if s > 0 else [-c for c in g], level)  # s g: > 0 left of the root, < 0 right
    lo, hi = num << (level - k), (num + 1) << (level - k)
    budget = 2 * (hi - lo).bit_length()  # two evaluations per bit, less those spent
    flo = fhi = None  # s g at the ends
    kept = 0  # 1 (-1) if the last regula falsi step kept hi (lo)
    while hi - lo > 1:
        x, falsi = (lo + hi) >> 1, False
        if budget > 2 * (hi - lo).bit_length():  # the ends are read when a step first needs them
            if flo is None:
                flo, budget = value(lo), budget - 1
            if fhi is None:
                fhi, budget = value(hi), budget - 1
            if flo and fhi:
                x = min(max(lo + (hi - lo) * flo // (flo - fhi), lo + 1), hi - 1)
                falsi = True
        fx, budget = value(x), budget - 1
        if not fx:  # dyadic: x / 2**level, reduced to lowest terms
            zeros = (x & -x).bit_length() - 1
            return g, x >> zeros, level - zeros, 0
        if fx > 0:
            lo, flo = x, fx
            if falsi and kept > 0:  # hi kept twice running: halve its value (Illinois)
                fhi >>= 1
        else:
            hi, fhi = x, fx
            if falsi and kept < 0:
                flo = (flo + 1) >> 1
        kept = (1 if fx > 0 else -1) if falsi else 0
    return g, lo, level, s


def _float_ends(lo: float, hi: float) -> tuple[float, float]:
    """Two ends' floats lo <= hi, widened one float outward if they are one."""
    return (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)) if lo == hi else (lo, hi)


def _ends(cell: tuple, top: int) -> tuple[int, int]:
    """The cell's ends times 2**top, integers for top >= its level."""
    _, num, k, s = cell
    return num << (top - k), (num + (s != 0)) << (top - k)


def _reflect(g: list[int]) -> list[int]:
    """g(-x)."""
    return [-c if i % 2 else c for i, c in enumerate(g)]


def _halve(f: list[int]) -> tuple[int, list[int]]:
    """(t, F) with f = x**t F(x**2) and F(0) != 0, for an even or odd f."""
    t = next(i for i, c in enumerate(f) if c)
    return t, f[t::2]


def _spread(F: list[int]) -> list[int]:
    """F(x**2)."""
    f = [0] * (2 * len(F) - 1)
    f[::2] = F
    return f


def _squarefree(f: list[int], mirror: int) -> tuple[list[int], bool]:
    """(the squarefree part of f, whether f has a repeated root).  For an
    even or odd f (mirror != 0), f = x**t F(x**2): its part is x F'(x**2),
    or F'(x**2) for t = 0, with F' the part of F, and a root is repeated iff
    t > 1 or F has one."""
    t, F = _halve(f) if mirror else (0, f)
    repeated = _gcd(F, [i * c for i, c in enumerate(F)][1:])
    part = _quotient(F, repeated)
    if mirror:
        part = [0, *_spread(part)] if t else _spread(part)
    return part, t > 1 or len(repeated) > 1


def _square_roots(G: list[int], level: int) -> list[tuple]:
    """The cells (g, num, k, s) at `level` of the roots x > 0 of the
    squarefree g = G(x**2), G(0) != 0: those of bisection, as _narrow gives.

    They come from the roots y > 0 of G, isolated and narrowed at half the
    degree to `2 * level`: a y-cell (n, 2 * level, s) holds y in
    (n, n + 1) / 4**level, so x = sqrt(y) lies in (isqrt(n), isqrt(n) + 1)
    / 2**level, no square lying strictly between n and n + 1, and g keeps
    the sign s left of x as long as no other root shares that x-cell.  An
    exact y = n / 4**level is an exact x if n is a square, and otherwise
    takes the sign of G at the cell's left end.  Should two roots share an
    x-cell, or a y-cell stay finer than `2 * level`, the roots are isolated
    and narrowed in x instead.  Isolating in x can itself end finer than
    `level`, when complex roots of g lie within about 2**-level of a real
    one: that root then gets a finer cell in x than here, both within
    2**-level of it.
    """
    g, cells, value = _spread(G), [], _on_level(G, 2 * level)
    for cell in _isolate(G, (1,)):
        _, num, k, s = _narrow(cell, 2 * level)
        if k > 2 * level:
            break
        n = num << (2 * level - k)
        x = math.isqrt(n)
        if not s and x * x != n:  # an exact y that is not a square
            at = value(x * x)
            s = (at > 0) - (at < 0)
            if not s:
                break
        if s:
            cells.append((g, x, level, s))
        else:  # dyadic: x / 2**level, reduced to lowest terms
            zeros = (x & -x).bit_length() - 1
            cells.append((g, x >> zeros, level - zeros, 0))
    else:
        shared = [num for _, num, k, s in cells if s]
        if len(set(shared)) == len(shared):
            return cells
    return [_narrow(cell, level) for cell in _isolate(g, (1,))]


def _level_roots(P: tuple, den: int, dP: tuple, crit: list[int], mirror: int) -> list[tuple]:
    """(level, cell) for each real root of P = level * den, level +-1, and
    level 0 for each root of the squarefree crit off those levels, narrowed
    to level 40.  With mirror 0 each polynomial is isolated on both sides of
    0 in x.  For P even (mirror 1) or odd (mirror -1), P(-x) = mirror * P(x).

    An even P is Q(x**2): the squarefree parts of Q -+ den and of the
    critical polynomial in y = x**2 give the roots x > 0 (`_square_roots`),
    and a root y = 0, read from the valuation, the root x = 0.  For an odd
    P, P + den = -(P - den)(-x): the roots of P - den, isolated on both
    sides, mirror to those of P + den, and the tangency points of both
    levels are the roots of tangent(x) tangent(-x), even, so crit loses them
    in y.  Every cell (g, num, k, s) of a root r != 0 at level l found so
    mirrors, with no evaluation, to the cell that bisection reaches for -r
    at level mirror * l: (g(-x), -num - 1, k, -s), or (g(-x), -num, k, 0)
    for r = num / 2**k.
    """
    if not mirror:
        roots = []
        for level in (1, -1):
            shifted = [P[0] - level * den, *P[1:]]
            tangent = _gcd(shifted, dP)
            crit = _quotient(crit, _gcd(crit, tangent))
            roots += [(level, _narrow(cell, 40)) for cell in _isolate(_quotient(shifted, tangent))]
        return roots + [(0, _narrow(cell, 40)) for cell in _isolate(crit)]
    t, C = _halve(crit)
    if mirror == 1:
        _, R = _halve(dP)  # dP = x**(2v + 1) R(x**2)
        roots = []
        for level in (1, -1):
            e, B = _halve([P[0] - level * den, *P[1:]])  # P - level * den = x**e B(x**2)
            tangent = _gcd(B, R)
            C = _quotient(C, _gcd(C, tangent))
            G = _quotient(B, tangent)
            if e:  # x = 0 is a root of P - level * den, and a critical point on the level
                roots.append((level, ([0, *_spread(G)], 0, 0, 0)))
                t = 0
            roots += [(level, cell) for cell in _square_roots(G, 40)]
    else:
        shifted = [P[0] - den, *P[1:]]
        tangent = _gcd(shifted, dP)
        roots = [(1, _narrow(cell, 40)) for cell in _isolate(_quotient(shifted, tangent))]
        if len(tangent) > 1:
            C = _quotient(C, _gcd(C, _halve(_convolve(tangent, _reflect(tangent)))[1]))
    if t:  # x = 0 is a critical point off the levels
        roots.append((0, ([0, *_spread(C)], 0, 0, 0)))
    roots += [(0, cell) for cell in _square_roots(C, 40)]
    return roots + [  # the root 0, a cell (g, 0, k, 0), is its own mirror
        (mirror * level, (_reflect(g), -num - (s != 0), k, -s))
        for level, (g, num, k, s) in roots if num or s
    ]


def full_branch_intervals(p: UniPoly) -> BranchSet:
    """All full branches of p, decided exactly.

    With p = P / den, P integer: the roots of p = +-1 are those of the
    squarefree parts of P -+ den, the critical points off those levels those
    of the squarefree part of P' with the tangency points gcd(P -+ den, P')
    divided out, and for an odd or even p mirrored from those in [0, inf).
    Cells are narrowed to width 2**-40 and until apart, and p' is read at a
    rational point of each gap between neighbouring roots.  Two roots at
    one exact point, which no narrowing parts, raise RootClashError.
    """
    if p.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    P, den = p.nums, p.den  # p = P / den
    dP = p.derivative().nums
    mirror = 1 if not any(P[1::2]) else -1 if not any(P[::2]) else 0  # even, odd, neither
    crit, degenerate = _squarefree(dP, mirror)
    roots = _level_roots(P, den, dP, crit, mirror)
    while True:  # halve cells until each gap between neighbours has a rational point
        top = max([0] + [cell[2] for _, cell in roots])  # every end is an integer over 2**top
        roots.sort(key=lambda r: _ends(r[1], top))
        ends = [_ends(cell, top) for _, cell in roots]
        pairs = [i for i in range(len(roots) - 1) if ends[i][1] >= ends[i + 1][0]]
        if not pairs:
            break
        if any(not roots[i][1][3] and not roots[i + 1][1][3] for i in pairs):  # two exact cells: one point
            raise RootClashError("two roots isolated at one exact point, which no narrowing parts")
        clash = {i + d for i in pairs for d in (0, 1)}
        roots = [(level, _narrow(cell, cell[2] + (i in clash)))
                 for i, (level, cell) in enumerate(roots)]
    value, scale = _on_level(dP, top + 1), 1 << (top + 1)  # midpoints are over 2**(top + 1)

    def slope(i: int) -> int:  # the sign of p' between roots i and i + 1
        acc = value(ends[i][1] + ends[i + 1][0])
        return (acc > 0) - (acc < 0)

    # p' has no root between neighbours, so from one level to the other next
    # to it p is monotone: only a gap that holds a critical point is read
    marks = [i for i, (level, _) in enumerate(roots) if level]
    found = [  # int / int rounds correctly, as float(Fraction) does
        (*_float_ends(sum(ends[i]) / scale, sum(ends[j]) / scale), roots[j][0])
        for i, j in zip(marks, marks[1:])
        if roots[i][0] == -roots[j][0] and (j == i + 1 or all(slope(g) == roots[j][0] for g in range(i, j)))
    ]
    intervals = tuple(BranchInterval(k, *iv) for k, iv in enumerate(reversed(found), start=1))
    return BranchSet(poly=p, intervals=intervals, degenerate=degenerate)


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
