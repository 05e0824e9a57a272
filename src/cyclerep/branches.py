"""Monotone full-branch structure of univariate polynomials on (-1, 1).

A full branch of p is an open interval on which p restricts to a
diffeomorphism onto (-1, 1).  For the Chebyshev polynomial T_m the m
branches are known in closed form from the nodes cos(k*pi/m); for a
general polynomial they are found numerically by isolating the critical
points of p and testing each monotone piece for coverage of (-1, 1).

Convention: branches are indexed right to left, interval k running from
nodes[k] up to nodes[k-1], and T_m is increasing on odd-indexed branches
and decreasing on even-indexed ones (the sign of T_m' on branch k is
(-1)**(k-1)).  The closed-form inverse and the numeric classifier both
follow this convention, which keeps the orientation bookkeeping of the
pullback machinery deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polynomials import UniPoly, chebyshev

INCREASING = 1
DECREASING = -1

_TOL = 1e-12  # the classifier's one tolerance: refinement, tangency and coverage


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
    notes: tuple[str, ...] = ()

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


def cheb_branches(m: int) -> BranchSet:
    """The m full branches of T_m on (-1, 1), in closed form."""
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


@lru_cache(maxsize=None)
def _cheb_cached(m: int) -> UniPoly:
    return chebyshev(m)


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
    nodes = cheb_nodes(m)
    # exact: float Horner on T_m errs by ~eps*sum|a_i|, over 1e-12 from m=13
    resid = abs(_cheb_cached(m).evaluate(Fraction(u)) - Fraction(y))
    if resid > 1e-12 or not nodes[k] < u < nodes[k - 1]:
        raise ArithmeticError(
            f"branch inverse postcondition failed: m={m} k={k} y={y} u={u} resid={float(resid)}"
        )
    return u


def _cauchy_bound(p: UniPoly) -> float:
    """Radius bounding all real roots: 1 + max |a_i| / |a_n|."""
    lead = abs(p.leading())
    if lead == 0:
        return 1.0
    ratio = max((abs(c) / lead for c in p.coeffs[:-1]), default=0)
    return 1.0 + float(ratio)


def _roots_by_bisection(p: UniPoly, npts: int) -> list[float]:
    """Real roots of p found as sign changes on a uniform grid over the
    Cauchy bound, refined by bisection.  Roots where p does not change
    sign (even multiplicity) are invisible to this scan by design; they
    are hunted separately and only ever flagged."""
    deg = p.degree()
    if not p.coeffs or deg < 1:
        return []
    bound = _cauchy_bound(p)
    xs = [(-bound + 2.0 * bound * i / npts) for i in range(npts + 1)]
    vals = [p.evaluate_float(x) for x in xs]
    roots: list[float] = []
    for i in range(npts + 1):
        if vals[i] != 0.0:
            continue
        # exact grid hit: a root only if the sign actually changes across it
        left = i - 1
        while left >= 0 and vals[left] == 0.0:
            left -= 1
        right = i + 1
        while right <= npts and vals[right] == 0.0:
            right += 1
        if left >= 0 and right <= npts and (vals[left] < 0) != (vals[right] < 0):
            roots.append(xs[i])
    for i in range(npts):
        a, b = vals[i], vals[i + 1]
        if a != 0.0 and b != 0.0 and (a < 0) != (b < 0):
            roots.append(_solve_monotone(p, 0.0, xs[i], xs[i + 1]))
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > _TOL * 10:
            merged.append(r)
    return merged


def _range_bound(p: UniPoly) -> float:
    """Radius beyond which |p| > 1 (all solutions of p = +-1 lie inside)."""
    one = UniPoly.const(1)
    return max(_cauchy_bound(p - one), _cauchy_bound(p + one)) + 1.0


def _solve_monotone(p: UniPoly, target: float, lo: float, hi: float) -> float:
    """Solve p(x) = target on [lo, hi] by bisection, where p - target
    changes sign across the bracket or p is monotone on it."""
    flo = p.evaluate_float(lo) - target
    fhi = p.evaluate_float(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        # No sign change: the piece stops within _TOL of the target level
        # (flagged degenerate upstream); clip the branch at the nearer end.
        return lo if abs(flo) <= abs(fhi) else hi
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = p.evaluate_float(mid) - target
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def full_branch_intervals(p: UniPoly) -> BranchSet:
    """All full branches of p, isolated numerically.

    Critical points of p are found by sign-change bisection of p' on a
    uniform grid of 64*deg(p) points over the Cauchy root bound; each
    monotone piece between consecutive critical points contributes a
    branch iff its value range covers (-1, 1).  Branch endpoints solve
    p = -1 and p = +1 inside the piece, refined to 1e-12.

    Degenerate situations are flagged (not decided silently): critical
    points where p' has even multiplicity (no sign change), and critical
    values or endpoint limits within 1e-12 of +-1.
    """
    deg = p.degree()
    if not p.coeffs or deg < 1:
        raise ValueError("need a nonconstant polynomial")
    dp = p.derivative()
    npts = 64 * int(deg)
    crit = _roots_by_bisection(dp, npts)

    notes: list[str] = []
    degenerate = False

    # Even-multiplicity critical points never produce a sign change of p';
    # look for them among the roots of p'' where p' nearly vanishes.
    flat_tol = math.sqrt(_TOL) * max(1.0, max(abs(float(c)) for c in dp.coeffs))
    spacing = 2.0 * _cauchy_bound(dp) / npts
    for s in _roots_by_bisection(dp.derivative(), npts):
        if abs(dp.evaluate_float(s)) <= flat_tol:
            if all(abs(s - r) > max(spacing, 10 * _TOL) for r in crit):
                degenerate = True
                notes.append(f"critical point without sign change near x={s:.6g}")

    far = _range_bound(p)
    cuts = [-far] + [c for c in crit if -far < c < far] + [far]

    found: list[tuple[float, float, int]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        va, vb = p.evaluate_float(a), p.evaluate_float(b)
        lo_val, hi_val = min(va, vb), max(va, vb)
        for val in (lo_val, hi_val):
            if abs(abs(val) - 1.0) <= _TOL:
                degenerate = True
                notes.append(
                    f"monotone piece ({a:.6g}, {b:.6g}) has limit within tol of +-1"
                )
        if hi_val > 1.0 - _TOL and lo_val < -1.0 + _TOL:
            direction = INCREASING if vb > va else DECREASING

            def solve(target: float) -> float:
                # A piece endpoint whose value sits in the tolerance band of
                # the target is a tangency: the branch boundary is the
                # critical point itself (bisection cannot do better than
                # sqrt(eps) through a quadratic tangency).
                if abs(va - target) <= _TOL:
                    return a
                if abs(vb - target) <= _TOL:
                    return b
                return _solve_monotone(p, target, a, b)

            left, right = (solve(-1.0), solve(1.0)) if direction == INCREASING else (
                solve(1.0),
                solve(-1.0),
            )
            if left < right:
                found.append((left, right, direction))

    found.sort(key=lambda t: -t[0])  # rightmost branch gets index 1
    intervals = tuple(
        BranchInterval(index=k, lo=lo, hi=hi, direction=d)
        for k, (lo, hi, d) in enumerate(found, start=1)
    )
    assert len(intervals) <= deg
    return BranchSet(poly=p, intervals=intervals, degenerate=degenerate, notes=tuple(notes))


def branch_count(p: UniPoly) -> int:
    """Number of full branches of p; always <= deg(p)."""
    return full_branch_intervals(p).count


def branch_set_to_json(bs: BranchSet) -> dict:
    out = {
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
    if bs.notes:
        out["notes"] = list(bs.notes)
    return out
