"""Library checks that import only the standard library, pytest and
cyclerep, so that they run in the bare install too, where numpy, scipy,
sympy and hypothesis are absent; `test_dynamics` imports the pure-Python
references it shares with them from here."""

import math
import random
from fractions import Fraction

import pytest

from cyclerep import dynamics
from cyclerep.branches import branch_inverse, cheb_branches
from cyclerep.dynamics import NoReturnError, Section, field_rhs, find_cycle, radial_cubic_field
from cyclerep.polynomials import BiPoly, UniPoly, VectorField2, chebyshev
from cyclerep.pullback import PullbackResult, build_pullback


def same_float(a: float, b: float) -> bool:
    """a and b equal with the same sign, zeros included, or both nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def cover_chain(p: UniPoly):
    """x -> (p(x), p'(x)) by the loop over p's factors that `field_rhs`
    writes out: for p = T_m the T_q of the prime factors q of m, ascending,
    each T_q and T_q' by the `evaluate_float` of its `BiPoly.from_uni` at
    the value before, p' their product from the first; any other p alone."""
    m, factors = p.degree(), [p]
    if m >= 2 and p == chebyshev(m):
        factors, k = [], m
        for q in range(2, m + 1):
            while k % q == 0:
                factors.append(chebyshev(q))
                k //= q
    evals = [(BiPoly.from_uni(f, 0).evaluate_float, BiPoly.from_uni(f.derivative(), 0).evaluate_float)
             for f in factors]

    def at(x):
        slope = None
        for f, df in evals:
            d = df(x, 0.0)
            slope = d if slope is None else slope * d
            x = f(x, 0.0)
        return x, slope

    return at


def closure_rhs(field):
    """The RHS as a composition of the BiPoly `evaluate_float` closures:
    P, Q and div X at the cover values of `cover_chain`, the reference the
    straight-line `field_rhs` must match bit for bit."""
    X = field.source if isinstance(field, PullbackResult) else field
    fp, fq, fdiv = X.p_comp.evaluate_float, X.q_comp.evaluate_float, X.divergence.evaluate_float
    if isinstance(field, PullbackResult):
        cover = cover_chain(field.cover_poly)

        def rhs(u, v):
            (x, du), (y, dv) = cover(u), cover(v)
            return (dv * fp(x, y), du * fq(x, y), du * dv * fdiv(x, y))

        return rhs

    def rhs(u, v):
        return (fp(u, v), fq(u, v), fdiv(u, v))

    return rhs


SPECIAL = [math.inf, -math.inf, math.nan, 1e200, -1e200, 0.0, -0.0]


def rhs_points(seed: int) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    pts = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(40)]
    pts += [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(20)]
    pts += [(a, rng.uniform(-1.0, 1.0)) for a in SPECIAL]
    pts += [(rng.uniform(-1.0, 1.0), b) for b in SPECIAL]
    return pts + [(a, b) for a in SPECIAL for b in SPECIAL]


def assert_same_rhs(field, seed: int) -> None:
    got, want = field_rhs(field), closure_rhs(field)
    for z in rhs_points(seed):
        a, b = got(*z), want(*z)
        assert len(a) == 3 and all(same_float(x, y) for x, y in zip(a, b)), (z, a, b)


def rectangle_section(pb, m: int, i: int, j: int, anchor):
    """Section through the branch-wise inverse of `anchor` in rectangle
    (i, j), normal to the field, built as `lift_cycles` builds it; returns
    it with its half-length (the start of a lift's search)."""
    bset = cheb_branches(m)
    iu, iv = bset.intervals[i - 1], bset.intervals[j - 1]
    seed = (branch_inverse(m, i, anchor[0]), branch_inverse(m, j, anchor[1]))
    clearance = min(seed[0] - iu.lo, iu.hi - seed[0], seed[1] - iv.lo, iv.hi - seed[1])
    half = min(0.45 * clearance, dynamics.DynamicsConfig.section_cap)
    return dynamics._section_through(seed, field_rhs(pb)(*seed)[:2], half), half


class TestStraightLineRhs:
    def test_deep_chains_compile(self, radial_half):
        # a 300-term row in v, a u-chain over 300 rows and one over 300
        # constants: cut every 32 links, where one expression would nest
        # 300 parentheses deep, beyond what the tokenizer takes
        c = [Fraction(k % 7 - 3 or 5, k % 5 + 1) for k in range(300)]
        X = VectorField2(BiPoly({(0, k): c[k] for k in range(300)}),
                         BiPoly({(k, 1): c[k] for k in range(300)}))
        assert len(X.p_comp.terms) == len(X.q_comp.terms) == 300
        assert_same_rhs(X, 11)
        # the expanded cubic pullback at m = 64, of degree 255
        Y = build_pullback(radial_half, chebyshev(64)).field
        assert Y.degree() == 255
        assert_same_rhs(Y, 12)


class TestFindCycle:
    @pytest.mark.parametrize("rho, s0", [(Fraction(1, 3), 0.0125), (Fraction(2, 5), 0.03)])
    def test_flat_start_near_the_focus(self, rho, s0):
        # near the repelling focus at s = 0 the return map is flat (slope
        # near 1), so Newton points at the focus, off the segment; the
        # search follows the flow out instead of sitting at the inner edge
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        rec = find_cycle(radial_cubic_field(rho), section, s0)
        assert rec.certified
        assert math.dist(rec.anchor, (float(rho), 0.0)) <= 1e-8

    def test_miss_gives_up_after_a_few_turns(self, monkeypatch):
        # 20% inward of the repelling cycle of rectangle (1, 2) of m = 3 at
        # rho = 1/2 the orbit turns inside the cycle and crosses the
        # section's line off the segment every turn; the turn budget ends
        # the return long before t_max = 200 would
        steps = []

        class Counting(dynamics.RK45):
            def step(self):
                steps.append(self.t)
                return super().step()

        rho = Fraction(1, 2)
        pb = build_pullback(radial_cubic_field(rho), chebyshev(3))
        sec, half = rectangle_section(pb, 3, 1, 2, (float(rho), 0.0))
        monkeypatch.setattr(dynamics, "RK45", Counting)
        with pytest.raises(NoReturnError, match="off the segment 9 times"):
            find_cycle(pb, sec, half * (1 - 0.2))
        assert len(steps) <= 200


class TestBranchInverse:
    @pytest.mark.parametrize("m", [148, 200, 256])
    def test_holds_at_large_m(self, m):
        # an absolute residual |T_m(u) - y| grows with |T_m'(u)|: at m = 148,
        # k = 1, y = 2/3 it is 1.0e-12 for a u within 3 eps of the preimage
        for k in range(1, m + 1):
            for y in (2 / 3, 0.5, 0.0, -0.999):
                assert cheb_branches(m).intervals[k - 1].contains(branch_inverse(m, k, y))
