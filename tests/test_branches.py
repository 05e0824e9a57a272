import math
import random
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclerep import branches
from cyclerep.branches import (
    DECREASING,
    INCREASING,
    RootClashError,
    branch_inverse,
    branch_set_to_json,
    cheb_branches,
    cheb_nodes,
    cheb_preimage,
    full_branch_intervals,
)
from cyclerep.polynomials import UniPoly, chebyshev


def U(*coeffs):
    return UniPoly(coeffs)


class TestChebNodes:
    def test_m2_exact(self):
        assert cheb_nodes(2) == [1.0, 0.0, -1.0]

    def test_m3(self):
        nodes = cheb_nodes(3)
        for got, want in zip(nodes, [1.0, 0.5, -0.5, -1.0]):
            assert got == pytest.approx(want, abs=1e-15)

    def test_m4(self):
        r = math.sqrt(2) / 2
        nodes = cheb_nodes(4)
        for got, want in zip(nodes, [1.0, r, 0.0, -r, -1.0]):
            assert got == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_strictly_decreasing_and_antisymmetric(self, m):
        nodes = cheb_nodes(m)
        assert nodes[0] == 1.0 and nodes[m] == -1.0
        assert all(a > b for a, b in zip(nodes, nodes[1:]))
        assert all(nodes[k] == -nodes[m - k] for k in range(m + 1))

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            cheb_nodes(1)


class TestChebBranches:
    def test_m3_intervals(self):
        bs = cheb_branches(3)
        assert bs.count == 3
        expected = [(0.5, 1.0), (-0.5, 0.5), (-1.0, -0.5)]
        for iv, (lo, hi) in zip(bs.intervals, expected):
            assert iv.lo == pytest.approx(lo, abs=1e-15)
            assert iv.hi == pytest.approx(hi, abs=1e-15)

    def test_m2_intervals_and_directions(self):
        bs = cheb_branches(2)
        assert [(iv.lo, iv.hi) for iv in bs.intervals] == [(0.0, 1.0), (-1.0, 0.0)]
        # T_2 = 2x^2 - 1 rises on (0,1) and falls on (-1,0)
        assert bs.intervals[0].direction == INCREASING
        assert bs.intervals[1].direction == DECREASING

    def test_m6_endpoints_from_nodes(self):
        nodes = cheb_nodes(6)
        bs = cheb_branches(6)
        assert bs.count == 6
        for k, iv in enumerate(bs.intervals, start=1):
            assert iv.lo == nodes[k] and iv.hi == nodes[k - 1]

    @pytest.mark.parametrize("m", range(2, 11))
    def test_tiling_and_disjointness(self, m):
        bs = cheb_branches(m)
        assert bs.count == m
        # closures tile [-1, 1]: consecutive intervals share exactly an endpoint
        assert bs.intervals[0].hi == 1.0 and bs.intervals[-1].lo == -1.0
        for left, right in zip(bs.intervals, bs.intervals[1:]):
            assert left.lo == right.hi

    @pytest.mark.parametrize("m", range(2, 9))
    def test_direction_matches_derivative_sign(self, m):
        dt = chebyshev(m).derivative()
        for iv in cheb_branches(m).intervals:
            mid = 0.5 * (iv.lo + iv.hi)
            assert (float(dt.evaluate(Fraction(mid))) > 0) == (iv.direction == INCREASING)

    def test_m10000_builds_in_seconds(self):
        # T_m from its explicit coefficients, one exact step per
        # coefficient; the lru_cache is bypassed so the build is timed
        start = time.perf_counter()
        bs = cheb_branches.__wrapped__(10_000)
        elapsed = time.perf_counter() - start
        assert bs.count == 10_000 and bs.poly.degree() == 10_000
        assert bs.poly.nums[-1] == 2**9_999 and bs.poly.den == 1
        assert elapsed < 5.0

    def test_json_shape(self):
        blob = branch_set_to_json(cheb_branches(2))
        assert blob["count"] == 2
        assert blob["intervals"][0] == {"k": 1, "lo": 0.0, "hi": 1.0, "dir": "+"}


class TestBranchInverse:
    def test_middle_branch_root(self):
        # roots of 4u^3 - 3u are {0, +-sqrt(3)/2}; only 0 lies in (-1/2, 1/2)
        assert branch_inverse(3, 2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_right_branch_root(self):
        assert branch_inverse(3, 1, 0.0) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_t2_branch_root(self):
        assert branch_inverse(2, 1, 0.0) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("m", range(2, 41))
    def test_round_trip_and_monotonicity(self, m):
        # the residual is exact: float Horner on T_m alone errs by more
        # than 1e-12 from m = 13 on
        t = chebyshev(m)
        bs = cheb_branches(m)
        rng = random.Random(100 + m)
        samples = 200 if m <= 8 else 12
        for k in range(1, m + 1):
            ys = sorted(rng.uniform(-0.999, 0.999) for _ in range(samples))
            us = [branch_inverse(m, k, y) for y in ys]
            for y, u in zip(ys, us):
                assert abs(t.evaluate(Fraction(u)) - Fraction(y)) <= 1e-12
                assert bs.intervals[k - 1].contains(u)
            diffs = [b - a for a, b in zip(us, us[1:])]
            if bs.intervals[k - 1].direction == INCREASING:
                assert all(d > 0 for d in diffs)
            else:
                assert all(d < 0 for d in diffs)

    @pytest.mark.parametrize("m", [2, 3, 8, 12])
    def test_preimage_is_the_checked_inverse(self, m):
        # branch_inverse is cheb_preimage plus its checks; at the critical
        # values +-1 the unchecked closed form lands on the branch ends
        nodes = cheb_nodes(m)
        for k in range(1, m + 1):
            for y in (-0.9, -0.25, 0.0, 0.5, 0.99):
                assert cheb_preimage(m, k, y) == branch_inverse(m, k, y)
            ends = sorted(cheb_preimage(m, k, y) for y in (-1.0, 1.0))
            assert ends == pytest.approx([nodes[k], nodes[k - 1]], abs=1e-15)

    def test_nodes_are_not_shared(self):
        # cheb_nodes returns a fresh list; changing one leaves the nodes
        # branch_inverse checks against as they were
        nodes = cheb_nodes(3)
        assert nodes is not cheb_nodes(3)
        nodes[1] = 0.9
        assert branch_inverse(3, 1, 0.0) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_rejects_critical_values(self):
        for y in (1.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                branch_inverse(3, 1, y)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            branch_inverse(3, 0, 0.0)
        with pytest.raises(ValueError):
            branch_inverse(3, 4, 0.0)
        with pytest.raises(ValueError):
            branch_inverse(1, 1, 0.0)
        with pytest.raises(ValueError, match="^need m >= 2, got 1$"):
            branch_inverse(1, 1, 0.5)

    @pytest.mark.parametrize("m", [2, 148])
    def test_rejects_a_preimage_off_by_more_than_delta(self, m, monkeypatch):
        # at m = 2 a u off by 1e-13 has a residual under 1e-12 that the
        # residual check let through; the check in u rejects it at every m
        exact = branches.cheb_preimage
        monkeypatch.setattr(branches, "cheb_preimage", lambda m, k, y: exact(m, k, y) + 1e-13)
        with pytest.raises(ArithmeticError, match="not within 2\\*\\*-49 of the preimage"):
            branch_inverse(m, m // 2, 0.5)

    def test_negated_preimage_is_the_mirror_branch_preimage(self):
        # T_m is even for even m and its nodes are exact negations, so
        # -branch_inverse(m, k, y) lies in branch m + 1 - k and passes the
        # check branch_inverse makes there: T_m - y, in Fractions, keeps no
        # one strict sign at u -+ 2**-49, clipped to the branch.  So the
        # lift seeds branches m/2 + 1..m of even m by negation
        rng = random.Random(48)
        for m in range(2, 65, 2):
            T, intervals = chebyshev(m), cheb_branches(m).intervals
            for y in [rng.uniform(-1.0, 1.0) for _ in range(3)]:
                for k in range(1, m // 2 + 1):
                    u, iv = -branch_inverse(m, k, y), intervals[m - k]
                    assert iv.contains(u), (m, k, y)
                    f_lo, f_hi = (T.evaluate(Fraction(x)) - Fraction(y)
                                  for x in (max(u - 2.0**-49, iv.lo), min(u + 2.0**-49, iv.hi)))
                    assert f_lo * f_hi <= 0, (m, k, y)


def oracle_branches(p: UniPoly) -> list[tuple[float, float, int]]:
    """Independent classifier from sympy's exact real roots: the pieces
    between the odd-multiplicity roots of p' whose range covers [-1, 1],
    each from its root of p = -1 or +1 to its root of the other level (a
    critical value of exactly +-1 makes the critical point an endpoint),
    as (lo, hi, direction), right to left."""
    x = sympy.Symbol("x")
    P = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    mult = Counter(P.diff(x).real_roots())
    crit = sorted(sympy.N(r, 30) for r, k in mult.items() if k % 2)
    levels = sorted(sympy.N(r, 30) for r in set((P - 1).real_roots()) | set((P + 1).real_roots()))
    tie = sympy.Float("1e-20", 30)

    def value(t):
        if t in (-math.inf, math.inf):
            sign = 1 if p.coeffs[-1] > 0 else -1
            return math.inf * sign * (1 if t > 0 or p.degree() % 2 == 0 else -1)
        return P.eval(t)

    cuts = [-math.inf] + crit + [math.inf]
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        va, vb = value(a), value(b)
        if min(va, vb) <= -1 + tie and max(va, vb) >= 1 - tie:
            inside = [r for r in levels if a - tie <= r <= b + tie]
            out.append((float(min(inside)), float(max(inside)), INCREASING if vb > va else DECREASING))
    return sorted(out, reverse=True)


def assert_matches_oracle(bs, p: UniPoly) -> None:
    want = oracle_branches(p)
    assert bs.count == len(want) <= p.degree()
    for k, (iv, (lo, hi, direction)) in enumerate(zip(bs.intervals, want), start=1):
        assert iv.index == k and iv.direction == direction
        assert abs(iv.lo - lo) <= 1e-9 and abs(iv.hi - hi) <= 1e-9


# small numerators and denominators hit tangencies, repeated critical
# points and exact dyadic roots, which random six-digit coefficients miss
small_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=2, max_size=7
).map(UniPoly).filter(lambda p: p.degree() >= 1)


class TestFullBranches:
    def test_chebyshev_matches_closed_form(self):
        for m in range(2, 65):
            exact = full_branch_intervals(chebyshev(m))
            closed = cheb_branches(m)
            assert exact.count == m and not exact.degenerate
            for a, b in zip(exact.intervals, closed.intervals):
                assert (a.index, a.direction) == (b.index, b.direction)
                assert abs(a.lo - b.lo) <= 1e-11 and abs(a.hi - b.hi) <= 1e-11

    def test_chebyshev_64_within_wall_bound(self):
        # T_64 takes 4-7 ms (median of 9) on a shared 2-core x86-64 host,
        # decided in y = x**2 and mirrored; the bound is 5x the 0.032 s it
        # took when both sides were isolated in x
        p = chebyshev(64)
        start = time.perf_counter()
        bs = full_branch_intervals(p)
        assert time.perf_counter() - start < 0.16
        assert bs.count == 64

    def test_two_roots_at_one_exact_point_raise(self, monkeypatch, wall_bound):
        # the clash loop halves cells until neighbours part, but an exact
        # cell does not narrow: two at one point, here the root 0 of x given
        # twice, clash for good, so they raise instead of looping
        cell = ([0, 1], 0, 0, 0)
        monkeypatch.setattr(branches, "_level_roots", lambda *args: [(1, cell), (-1, cell)])
        with wall_bound(5.0), pytest.raises(RootClashError, match="one exact point"):
            full_branch_intervals(chebyshev(3))

    def test_identity_map(self):
        bs = full_branch_intervals(U(0, 1))
        assert [(iv.lo, iv.hi, iv.direction) for iv in bs.intervals] == [(-1.0, 1.0, INCREASING)]
        assert not bs.degenerate

    def test_square_has_no_full_branch(self):
        # x^2 has range [0, inf); (-1, 1) is never covered
        assert full_branch_intervals(U(0, 0, 1)).count == 0

    def test_cube_single_monotone_branch_flagged(self):
        # x^3 is strictly monotone, but p' = 3x^2 and p'' = 6x share the root
        # 0: degenerate, with the critical point inside the one branch
        bs = full_branch_intervals(U(0, 0, 0, 1))
        assert bs.degenerate
        assert [(iv.lo, iv.hi, iv.direction) for iv in bs.intervals] == [(-1.0, 1.0, INCREASING)]

    def test_cubic_with_wide_critical_values(self):
        # x^3 - 3x has rational critical points -+1 with critical values +-2,
        # so all three monotone pieces sweep through (-1, 1)
        p = U(0, -3, 0, 1)
        bs = full_branch_intervals(p)
        assert not bs.degenerate
        assert [iv.direction for iv in bs.intervals] == [INCREASING, DECREASING, INCREASING]
        assert_matches_oracle(bs, p)

    def test_critical_value_exactly_one(self):
        # 1 - 2x^2 touches +1 at its critical point 0, which ends both branches
        bs = full_branch_intervals(U(1, 0, -2))
        assert not bs.degenerate
        assert [(iv.lo, iv.hi, iv.direction) for iv in bs.intervals] == [
            (0.0, 1.0, DECREASING),
            (-1.0, 0.0, INCREASING),
        ]

    def test_dyadic_root_endpoint(self):
        # 4x - 1 = +1 at x = 1/2, a midpoint of the bisection: found exactly
        bs = full_branch_intervals(U(-1, 4))
        assert [(iv.lo, iv.hi, iv.direction) for iv in bs.intervals] == [(0.0, 0.5, INCREASING)]

    def test_scaled_chebyshev(self):
        # (11/10) T_3 overshoots +-1 at its critical points: still 3 branches,
        # now narrower than the nodes of T_3
        p = UniPoly(tuple(Fraction(11, 10) * c for c in chebyshev(3).coeffs))
        bs = full_branch_intervals(p)
        assert bs.count == 3 and not bs.degenerate
        assert_matches_oracle(bs, p)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            full_branch_intervals(U(5))

    def test_count_bounded_by_degree_random(self):
        rng = random.Random(2024)
        for _ in range(100):
            deg = rng.randint(1, 8)
            coeffs = [Fraction(rng.randint(-3_000_000, 3_000_000), 1_000_000) for _ in range(deg)]
            coeffs.append(
                Fraction(rng.choice([-1, 1]) * rng.randint(200_000, 3_000_000), 1_000_000)
            )
            p = UniPoly(coeffs)
            assert_matches_oracle(full_branch_intervals(p), p)

    @settings(max_examples=60, deadline=None)
    @given(small_polys)
    def test_count_at_most_degree_property(self, p):
        bs = full_branch_intervals(p)
        assert bs.count <= p.degree()
        assert_matches_oracle(bs, p)

    @settings(max_examples=100, deadline=None)
    @given(small_polys, st.sampled_from([0, 1]))
    # x = 0 a double root of T_m - T_m(0) (T_4 at +1, T_6 at -1) and a
    # quadruple one of 2x**4 - 1 + 1; x**4 (degenerate, no branch); an even
    # cover that is not T_m; the odd x**3 (degenerate) and 1.1 T_3
    @example(chebyshev(4), 0)
    @example(chebyshev(6), 0)
    @example(U(-1, 0, 0, 0, 2), 0)
    @example(U(0, 0, 0, 0, 1), 0)
    @example(UniPoly([c + (Fraction(1, 1000) if k == 0 else 0) for k, c in enumerate(chebyshev(4).coeffs)]), 0)
    @example(U(0, 0, 0, 1), 1)
    @example(UniPoly([Fraction(11, 10) * c for c in chebyshev(3).coeffs]), 1)
    def test_odd_and_even_mirror_both_sides(self, p, parity):
        # zeroing alternate coefficients makes p even (parity 0) or odd (1);
        # the cells its parity path finds, in y = x**2 or by negating one
        # level, are the cells, one for one, that isolating both sides of
        # each polynomial in x gives
        p = UniPoly([c if k % 2 == parity else 0 for k, c in enumerate(p.coeffs)])
        assume(p.degree() >= 1)
        assert_matches_oracle(full_branch_intervals(p), p)
        dP = p.derivative().nums
        crit = branches._quotient(dP, branches._gcd(dP, p.derivative().derivative().nums))

        def cells(mirror):
            return sorted(map(same_up_to_scale, branches._level_roots(p.nums, p.den, dP, crit, mirror)))

        assert cells(1 - 2 * parity) == cells(0)


def same_up_to_scale(root: tuple) -> tuple:
    """A (level, cell) with the cell's g made primitive with a positive
    leading coefficient, s following it: the cell of the same root."""
    level, (g, num, k, s) = root
    unit = math.gcd(*g) * (1 if g[-1] > 0 else -1)
    return level, num, k, s * unit // abs(unit), tuple(c // unit for c in g)


def bisection_narrow(cell: tuple, level: int) -> tuple:
    """The reference narrowing: halve the cell, keeping the root's half,
    until it is 2**-level wide or the root is a midpoint."""
    g, num, k, s = cell
    while s and k < level:
        at = branches._on_level(g, k + 1)(2 * num + 1)  # g at the midpoint, positively scaled
        t = (at > 0) - (at < 0)
        num, k, s = 2 * num + (t in (0, s)), k + 1, s if t else 0
    return g, num, k, s


def mirrored(cell: tuple) -> tuple:
    """The cell of -r for the cell (g, num, k, s) of the root r: g(-x) and
    the cell reflected, s flipping with it."""
    g, num, k, s = cell
    return [-c if i % 2 else c for i, c in enumerate(g)], -num - (s != 0), k, -s


def narrowed_cells(p: UniPoly) -> list[tuple]:
    """Every (cell, level) that full_branch_intervals(p) narrows."""
    calls = []

    def record(cell, level):
        calls.append((cell, level))
        return narrow(cell, level)

    narrow = branches._narrow
    with mock.patch.object(branches, "_narrow", record):
        full_branch_intervals(p)
    return calls


class TestNarrow:
    """The regula falsi `_narrow` against bisection, cell by cell: the same
    tuple."""

    def test_chebyshev_cells_match_bisection(self):
        # T_m is odd or even, so only its roots in [0, inf) are narrowed, in
        # y = x**2 for an even m; the mirror of each cell narrows, as
        # bisection does, to the mirror of its narrowing, so the roots below
        # 0 are checked too
        count = 0
        for m in range(2, 65):
            for cell, level in narrowed_cells(chebyshev(m)):
                narrowed, mirror = branches._narrow(cell, level), mirrored(cell)
                assert narrowed == bisection_narrow(cell, level), (m, cell)
                want = bisection_narrow(mirror, level)
                assert branches._narrow(mirror, level) == want == mirrored(narrowed), (m, cell)
                count += 2
        assert count > 2000  # every root of T_m -+ 1 and T_m' for m = 2..64

    def test_even_narrows_in_y(self):
        # T_64 is even and has 65 roots at the levels -+1, 32 of them in
        # (0, inf) and the double root 0: those 32 are narrowed as roots of
        # polynomials in y = x**2, of degree 16, to level 80; the others are
        # their mirrors and 0, read from the y-valuation
        calls = narrowed_cells(chebyshev(64))
        assert len(calls) == 32
        assert all(level == 80 and len(cell[0]) == 17 for cell, level in calls)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-60, 60), min_size=2, max_size=10),
        st.sampled_from([None, 0, 1]),
    )
    def test_integer_polynomial_cells_match_bisection(self, coeffs, parity):
        # general, even (parity 0) and odd (1): an even p narrows in y
        p = UniPoly([c if parity is None or k % 2 == parity else 0 for k, c in enumerate(coeffs)])
        assume(p.degree() >= 1)
        for cell, level in narrowed_cells(p):
            assert branches._narrow(cell, level) == bisection_narrow(cell, level), cell

    @pytest.mark.parametrize("root", [Fraction(1, 3 << 41), 1 - Fraction(1, 3 << 41)])
    @pytest.mark.parametrize("other", [None, -2, 1])
    def test_root_one_grid_step_from_an_end(self, root, other):
        # a root inside the first or the last grid step of (0, 1) at level
        # 40, where the regula falsi point is clamped to lo + 1 or hi - 1;
        # alone, beside a second root at -2, or beside one at the end 1,
        # where g is 0 and gives no slope, so the midpoint steps instead
        f = [-root.numerator, root.denominator]
        if other is not None:
            f = with_roots([Fraction(other)], f)
        cell = (f, 0, 0, 1 if f[0] > 0 else -1)
        want = (f, int(root * 2**40), 40, cell[3])
        assert branches._narrow(cell, 40) == bisection_narrow(cell, 40) == want

    def test_dyadic_root(self):
        # (8x - 3)(x^2 - 2): the root 3/8 inside the cell (0, 1) is found
        # exactly, in lowest terms, as bisection finds it at level 3
        f = [6, -16, -3, 8]
        (cell,) = [c for c in branches._isolate(f) if c[1:] == (0, 0, 1)]
        assert branches._narrow(cell, 40) == bisection_narrow(cell, 40) == (f, 3, 3, 0)

    def test_root_at_left_end(self):
        # (x + 1)(4x^2 - 2x - 1), the squarefree part of T_5 + 1, is zero at
        # the left end -1 of the cell (-1, 0) that holds its root (1 - 5**0.5) / 4
        f = [-1, -3, 2, 4]
        assert (f, -1, 0, 0) in branches._isolate(f)  # the root -1, exact
        (cell,) = [c for c in branches._isolate(f) if c[1:] == (-1, 0, 1)]
        assert branches._on_level(f, 0)(-1) == 0
        want = ((1 << 40) - math.isqrt(5 << 80) - 1) // 4  # floor((1 - sqrt 5) 2**40 / 4)
        assert branches._narrow(cell, 40) == bisection_narrow(cell, 40) == (f, want, 40, 1)

    def test_negative_level_cell(self):
        # the root 3001/3 of 3x - 3001 is isolated in (0, 2**12), a cell of
        # level -12; it is narrowed as bisection does to every level above,
        # the negative ones included
        f = [-3001, 3]
        (cell,) = branches._isolate(f)
        assert cell[2] == -12
        for level in range(-11, 41):
            num = (3001 << level) // 3 if level >= 0 else 3001 // (3 << -level)
            want = (f, num, level, cell[3])
            assert branches._narrow(cell, level) == bisection_narrow(cell, level) == want

    @pytest.mark.parametrize("level", [20, 40])
    def test_square_roots_that_share_a_cell(self, level):
        # y = 1 + 2**-50 and 1 + 2**-50 + 2**-70: their square roots share a
        # cell of level 40, and the y-cells that part them are finer than
        # level 40 = 2 * 20; either way the roots are isolated and narrowed
        # in x, as bisection on G(x**2) does
        G = with_roots([1 + Fraction(1, 2**50), 1 + Fraction(1, 2**50) + Fraction(1, 2**70)], [1])
        g = branches._spread(G)
        want = [bisection_narrow(cell, level) for cell in branches._isolate(g, (1,))]
        assert len(want) == 2 and want[0][2] > 40
        assert branches._square_roots(G, level) == want

    def test_square_root_of_a_root_at_a_cell_end(self):
        # y = 2, exact, has sqrt 2 in the cell (c, c + 1) / 2**40, and the
        # other root c**2 / 2**80 of G sits at that cell's left end, where
        # G has no sign: both roots are found in x instead
        c = math.isqrt(2 << 80)
        G = with_roots([Fraction(2), Fraction(c * c, 2**80)], [1])
        want = [bisection_narrow(cell, 40) for cell in branches._isolate(branches._spread(G), (1,))]
        assert [cell[1:] for cell in want] == [(c, 40, 0), (c, 40, -1)]
        assert branches._square_roots(G, 40) == want

    def test_cell_at_target_level_unchanged(self):
        for cell, level in narrowed_cells(chebyshev(9)):
            done = branches._narrow(cell, level)
            assert branches._narrow(done, level) == done
            assert branches._narrow(done, done[2] - 1) == done

    def test_one_level(self):
        # the narrowing of a clash in full_branch_intervals: one halving;
        # the roots near 1000 of (x - 1000)(x^2 - 2) and of 3x - 3001 -+ 1
        # lie in cells of levels -9 to -12, so their next level is negative
        far = [U(2000, -2, -1000, 1), U(-3001, 3)]
        for p in [*map(chebyshev, range(2, 17)), *far]:
            for cell, _ in narrowed_cells(p):
                one = cell[2] + 1
                assert branches._narrow(cell, one) == bisection_narrow(cell, one), cell
        assert min(cell[2] for p in far for cell, _ in narrowed_cells(p)) == -12


def descartes_count(h: list[int]) -> int:
    """The sign variations of (1 + x)**n h(1 / (1 + x)), in full: its
    coefficient of x**j is the sum of h[i] * C(n - i, j)."""
    n = len(h) - 1
    coeffs = [sum(h[i] * math.comb(n - i, j) for i in range(n - j + 1)) for j in range(n + 1)]
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def squarefree(h: list[int]) -> bool:
    return sympy.Poly(h[::-1], sympy.Symbol("x")).is_sqf


def with_roots(roots, h) -> list[int]:
    """h times the product of (b x - a) over the roots a / b, as an
    integer list."""
    for r in roots:
        a, b = r.as_integer_ratio()
        h = [x - y for x, y in zip([0] + [b * c for c in h], [a * c for c in h] + [0])]
    return h


# squarefree integer polynomials: random ones, which seldom have more than
# two variations, and a random quadratic times up to 6 linear factors with
# their roots in the unit cell (0, 1), which have more
SQUAREFREE = st.one_of(
    st.lists(st.integers(-40, 40), min_size=2, max_size=12),
    st.builds(
        with_roots,
        st.lists(st.fractions(0, 1, max_denominator=30).filter(lambda r: 0 < r < 1),
                 min_size=1, max_size=6, unique=True),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    ),
).filter(lambda h: h[-1] != 0 and squarefree(h))


class TestDescartes:
    @settings(max_examples=150, deadline=None)
    @given(SQUAREFREE)
    def test_capped_count_is_the_full_count_up_to_two(self, h):
        assert branches._variations(h) == min(descartes_count(h), 2)
