import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclerep import branches
from cyclerep.branches import (
    DECREASING,
    INCREASING,
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
            assert (dt.evaluate_float(mid) > 0) == (iv.direction == INCREASING)

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


def bisection_narrow(cell: tuple, level: int) -> tuple:
    """The reference narrowing: halve the cell, keeping the root's half,
    until it is 2**-level wide or the root is a midpoint."""
    g, num, k, s = cell
    while s and k < level:
        t = branches._sign_at(g, 2 * num + 1, k + 1)
        num, k, s = 2 * num + (t in (0, s)), k + 1, s if t else 0
    return g, num, k, s


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
    """The secant `_narrow` against bisection, cell by cell: the same tuple."""

    def test_chebyshev_cells_match_bisection(self):
        count = 0
        for m in range(2, 65):
            for cell, level in narrowed_cells(chebyshev(m)):
                assert branches._narrow(cell, level) == bisection_narrow(cell, level), (m, cell)
                count += 1
        assert count > 2000  # every root of T_m -+ 1 and T_m' for m = 2..64

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-60, 60), min_size=2, max_size=10)
        .map(UniPoly)
        .filter(lambda p: p.degree() >= 1)
    )
    def test_integer_polynomial_cells_match_bisection(self, p):
        for cell, level in narrowed_cells(p):
            assert branches._narrow(cell, level) == bisection_narrow(cell, level), cell

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
        assert branches._sign_at(f, -1, 0) == 0
        want = ((1 << 40) - math.isqrt(5 << 80) - 1) // 4  # floor((1 - sqrt 5) 2**40 / 4)
        assert branches._narrow(cell, 40) == bisection_narrow(cell, 40) == (f, want, 40, 1)

    def test_negative_level_cell(self):
        # the root 3001/3 of 3x - 3001 is isolated in (0, 2**12)
        f = [-3001, 3]
        (cell,) = branches._isolate(f)
        assert cell[2] < 0
        want = (f, (3001 << 40) // 3, 40, cell[3])
        assert branches._narrow(cell, 40) == bisection_narrow(cell, 40) == want

    def test_cell_at_target_level_unchanged(self):
        for cell, level in narrowed_cells(chebyshev(9)):
            done = branches._narrow(cell, level)
            assert branches._narrow(done, level) == done
            assert branches._narrow(done, done[2] - 1) == done

    def test_one_level(self):
        # the narrowing of a clash in full_branch_intervals: one halving
        for m in range(2, 17):
            for cell, _ in narrowed_cells(chebyshev(m)):
                one = cell[2] + 1
                assert branches._narrow(cell, one) == bisection_narrow(cell, one), cell
