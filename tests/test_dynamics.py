import inspect
import math
import random
import re
import time
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate import OdeSolution
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq as scipy_brentq

from cyclerep import dynamics
from cyclerep.branches import branch_inverse, cheb_branches
from cyclerep.dynamics import (
    DEFAULT_CONFIG,
    DOP853,
    BranchRectangle,
    CycleSearchError,
    DegenerateCrossingError,
    DynamicsConfig,
    DynamicsError,
    IntegrationError,
    LiftError,
    LimitCycleRecord,
    NoReturnError,
    Section,
    brentq,
    compile_component,
    field_rhs,
    find_cycle,
    implicit_lift_curve,
    integrate,
    lift_cycles,
    poincare_return,
    radial_cubic_field,
    records_to_csv,
)
from cyclerep.polynomials import BiPoly, UniPoly, VectorField2, chebyshev
from cyclerep.pullback import PullbackResult, build_pullback
from test_bare_library import assert_same_rhs, cover_chain, rectangle_section, rhs_points, same_float

ROTATION = VectorField2(BiPoly({(0, 1): 1}), BiPoly({(1, 0): -1}))
EXP_MINUS_PI = math.exp(-math.pi)
EXP_PLUS_PI = math.exp(math.pi)
PROGRAM_TOLS = {"xtol": dynamics.BRENT_XTOL, "rtol": dynamics.BRENT_RTOL}


def radial_oracle(r0: float, t: float, rho: float) -> float:
    """Closed-form radius of the seed system: dr/dt = r(rho^2 - r^2) is
    logistic in r^2 with rate 2 rho^2 and carrying capacity rho^2."""
    w0, c = r0 * r0, rho * rho
    e = math.exp(2.0 * c * t)
    return math.sqrt(c * w0 * e / (c + w0 * (e - 1.0)))


def abs_term_sum(f: BiPoly, u: float, v: float) -> float:
    """sum |c u^i v^j|: the scale of the rounding error of a float evaluation."""
    return sum(abs(float(c)) * abs(u) ** du * abs(v) ** dv for (du, dv), c in f.terms)


def uni_abs_term_sum(p: UniPoly, x: float) -> float:
    return sum(abs(float(c)) * abs(x) ** k for k, c in enumerate(p.coeffs))


def exact_float(p: UniPoly, x: float) -> float:
    """p(x) computed exactly, then rounded once to a float."""
    return float(p.evaluate(Fraction(x)))


# the relative error that the magnitudes below are scales for: every bound
# on the RHS is RHS_REL times one of them
RHS_REL = 1e-12


def cover_error_scale(p: UniPoly, f: UniPoly, x: float) -> float:
    """The error scale of the RHS's lane for f, the cover p or p', at x.
    The factor chain of p = T_m is within COVER_BOUND of exact relative to
    max(1, |f(x)|), so its share is that bound in RHS_REL units; any other
    cover is Horner on its monomials, sum |c_k x^k|."""
    if p == chebyshev(p.degree()):
        return COVER_BOUND / RHS_REL * max(1.0, abs(exact_float(f, x)))
    return uni_abs_term_sum(f, x)


def composed_magnitude(pb, src: BiPoly, u: float, v: float) -> float:
    """Rounding-error scale of S(p(u), p(v)): S's sum |term|, plus the
    cover's error (`cover_error_scale`) carried through dS/dx and dS/dy
    (first order), taken at the exact x = p(u) and y = p(v), rounded once:
    a scale taken at the RHS's own cover floats would grow with their
    error and hide it."""
    p = pb.cover_poly
    x, y = exact_float(p, u), exact_float(p, v)
    return (
        abs_term_sum(src, x, y)
        + abs_term_sum(src.partial_u(), x, y) * cover_error_scale(p, p, u)
        + abs_term_sum(src.partial_v(), x, y) * cover_error_scale(p, p, v)
    )


def factored_magnitude(pb, k: int, u: float, v: float) -> float:
    """Rounding-error scale of RHS component k evaluated through its
    factors, d * S(x, y) with x = p(u), y = p(v), (d, S) = (p'(v), P) or
    (p'(u), Q): each factor's error scale."""
    p, dp = pb.cover_poly, pb.cover_poly.derivative()
    src = (pb.source.p_comp, pb.source.q_comp)[k]
    w = (v, u)[k]
    x, y = exact_float(p, u), exact_float(p, v)
    return (
        abs(exact_float(dp, w)) * composed_magnitude(pb, src, u, v)
        + cover_error_scale(p, dp, w) * abs(src.evaluate_float(x, y))
    )


def divergence(field: VectorField2) -> BiPoly:
    return field.p_comp.partial_u() + field.q_comp.partial_v()


def divergence_magnitude(pb, u: float, v: float) -> float:
    """Rounding-error scale of the factored divergence
    p'(u) p'(v) (div X)(x, y): each factor's error scale."""
    p, dp = pb.cover_poly, pb.cover_poly.derivative()
    div_x = divergence(pb.source)
    du, dv = exact_float(dp, u), exact_float(dp, v)
    x, y = exact_float(p, u), exact_float(p, v)
    return abs(du * dv) * composed_magnitude(pb, div_x, u, v) + (
        cover_error_scale(p, dp, u) * abs(dv) + abs(du) * cover_error_scale(p, dp, v)
    ) * abs(div_x.evaluate_float(x, y))


# every monomial of degree <= 3 in both components
DENSE_CUBIC = VectorField2(
    BiPoly({(a, b): Fraction((-1) ** (a + b) * (a + 2 * b + 1), a + b + 2)
            for a in range(4) for b in range(4 - a)}),
    BiPoly({(a, b): Fraction((-1) ** a * (2 * a + b + 1), b + 3)
            for a in range(4) for b in range(4 - a)}),
)


class TestCompiledEvaluation:
    def test_matches_reference_evaluator(self):
        f = BiPoly({(3, 2): Fraction(7, 3), (0, 5): -2, (1, 0): Fraction(1, 7), (0, 0): 4})
        fast = compile_component(f)
        for u, v in [(0.3, -0.8), (-1.1, 0.25), (0.0, 0.0), (0.99, -0.37)]:
            exact = float(f.evaluate(Fraction(u), Fraction(v)))
            assert abs(fast(u, v) - exact) <= 1e-14 * abs_term_sum(f, u, v)

    def test_zero_polynomial(self):
        assert compile_component(BiPoly())(0.4, -0.2) == 0.0

    def test_no_degree_limit(self, radial_half):
        # the m = 30 pullback of the cubic seed has total degree 119
        pb = build_pullback(radial_half, chebyshev(30))
        points = [(0.31, -0.27), (-0.93, 0.88), (0.999, 0.05), (-0.5, -0.999)]
        us = np.array([[u for u, _ in points]])
        vs = np.array([[v for _, v in points]])
        for comp in (pb.field.p_comp, pb.field.q_comp):
            assert comp.total_degree() == 119
            fast = compile_component(comp)
            grid = fast(us, vs)
            for c, (u, v) in enumerate(points):
                exact = float(comp.evaluate(Fraction(u), Fraction(v)))
                bound = 1e-11 * abs_term_sum(comp, u, v)
                assert abs(fast(u, v) - exact) <= bound
                assert abs(grid[0, c] - exact) <= bound
        # field_rhs cuts each Horner chain into expressions of at most 32
        # nested steps: the expanded field and the m = 64 pullback build and
        # evaluate within the bounds of TestFactoredRhs, whose scale is taken
        # at the exact cover values, with the cover's share its COVER_BOUND
        # (the worst error is 1.8e-3 of the bound; it was 2.7e-11 with the
        # share Horner's sum |term|, and a cover lane off by 1e-9 passed;
        # Horner on the monomials of T_64 was 4.6e10 times over it)
        Y = pb.field
        rhs = field_rhs(Y)
        for u, v in points:
            got = rhs(u, v)
            for k, comp in enumerate((Y.p_comp, Y.q_comp, Y.divergence)):
                exact = comp.evaluate(Fraction(u), Fraction(v))
                assert abs(Fraction(got[k]) - exact) <= 1e-11 * abs_term_sum(comp, u, v)
        pb = build_pullback(radial_half, chebyshev(64))
        rhs = field_rhs(pb)
        p, dp, X = pb.cover_poly, pb.cover_poly.derivative(), pb.source
        for u, v in points:
            got = rhs(u, v)
            x, y = p.evaluate(Fraction(u)), p.evaluate(Fraction(v))
            du, dv = dp.evaluate(Fraction(u)), dp.evaluate(Fraction(v))
            exact = (dv * X.p_comp.evaluate(x, y), du * X.q_comp.evaluate(x, y),
                     du * dv * X.divergence.evaluate(x, y))
            for k in range(2):
                assert abs(Fraction(got[k]) - exact[k]) <= RHS_REL * factored_magnitude(pb, k, u, v)
            assert abs(Fraction(got[2]) - exact[2]) <= RHS_REL * divergence_magnitude(pb, u, v)

    def test_numpy_inputs_give_the_floats_of_float_inputs(self, radial_half, pullback_m3):
        # the RHS takes floats; numpy scalars give equal values (expanded
        # and factored RHS alike)
        for rhs in (field_rhs(pullback_m3.field), field_rhs(pullback_m3)):
            for u, v in [(0.31, -0.27), (-0.93, 0.88), (0.0, 0.5)]:
                assert all(type(x) is float for x in rhs(u, v))
                assert rhs(np.float64(u), np.float64(v)) == rhs(u, v)

        # states become floats where they enter: a numpy-typed section and
        # start give float records and states, the same floats as floats do
        def cycle_floats(r: LimitCycleRecord) -> list[str]:
            return hexes([*r.anchor, r.period, r.multiplier])

        plain = Section(base=(0.1, 0.0), direction=(3.0, 0.5), s_max=1.0)
        typed = Section(base=np.array([0.1, 0.0]), direction=np.array([3.0, 0.5]), s_max=np.float64(1.0))
        assert hexes([*typed.base, *typed.direction, typed.s_max]) == hexes(
            [*plain.base, *plain.direction, plain.s_max]
        )
        assert hexes(poincare_return(radial_half, typed, np.float64(0.7))) == hexes(
            poincare_return(radial_half, plain, 0.7)
        )
        base, plain_base = find_cycle(radial_half, typed, np.float64(0.4)), find_cycle(radial_half, plain, 0.4)
        assert cycle_floats(base) == cycle_floats(plain_base)
        pb = build_pullback(radial_half, chebyshev(2))
        lifted = lift_cycles(pb, base, 2)
        assert [cycle_floats(r) for r in lifted] == [cycle_floats(r) for r in lift_cycles(pb, plain_base, 2)]
        got = integrate(pb, np.array(lifted[0].anchor), np.float64(1.5), 4)
        want = integrate(pb, lifted[0].anchor, 1.5, 4)
        assert hexes(got) == hexes(want)


class TestRhsBuildsAreCached:
    """`field_rhs` builds its RHS from the field alone, and every entry point
    calls it; the exact divergence and p' it needs are computed once."""

    def test_derived_polynomials_are_cached(self, radial_half):
        assert radial_half.divergence is radial_half.divergence
        assert radial_half.divergence == divergence(radial_half)
        p = chebyshev(5)
        assert p.derivative() is p.derivative()

    def test_second_build_computes_no_polynomial(self, radial_half, monkeypatch):
        cases = [build_pullback(radial_half, chebyshev(8)), radial_half]
        firsts = [field_rhs(field) for field in cases]

        def rebuilt(*args, **kwargs):
            raise AssertionError("a polynomial was rebuilt")

        # every exact polynomial is made by its constructor or by the
        # integer path _of of its class
        for cls, name in ((BiPoly, "__init__"), (BiPoly, "_of"), (UniPoly, "__init__"), (UniPoly, "_of")):
            monkeypatch.setattr(cls, name, rebuilt)
        for field, first in zip(cases, firsts):
            again = field_rhs(field)
            for z in [(0.31, -0.27), (-0.93, 0.88)]:
                assert again(*z) == first(*z)


class TestFactoredRhs:
    @pytest.mark.parametrize("seed", ["cubic", "dense"])
    @pytest.mark.parametrize("m", [2, 3, 6, 8, 10, 30])
    def test_matches_exact_expanded_field(self, radial_half, seed, m):
        X = radial_half if seed == "cubic" else DENSE_CUBIC
        pb = build_pullback(X, chebyshev(m))
        rhs = field_rhs(pb)
        rng = random.Random(m)
        for _ in range(4 if m == 30 else 20):
            u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            got = rhs(u, v)
            for k, comp in enumerate((pb.field.p_comp, pb.field.q_comp)):
                exact = comp.evaluate(Fraction(u), Fraction(v))
                assert abs(Fraction(got[k]) - exact) <= RHS_REL * factored_magnitude(pb, k, u, v)

    @pytest.mark.parametrize("seed", ["cubic", "dense"])
    @pytest.mark.parametrize("m", [2, 3, 6, 8, 10, 30])
    def test_divergence_matches_exact_expanded_divergence(self, radial_half, seed, m):
        # div Y = p'(u) p'(v) (div X)(p(u), p(v)), against dP/du + dQ/dv of
        # the expanded field, exactly
        X = radial_half if seed == "cubic" else DENSE_CUBIC
        pb = build_pullback(X, chebyshev(m))
        rhs = field_rhs(pb)
        exact_div = divergence(pb.field)
        rng = random.Random(100 + m)
        for _ in range(4 if m == 30 else 20):
            u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            exact = exact_div.evaluate(Fraction(u), Fraction(v))
            got = rhs(u, v)[2]
            assert abs(Fraction(got) - exact) <= RHS_REL * divergence_magnitude(pb, u, v)

    @pytest.mark.parametrize("field", ["seed", "dense", "m3"])
    def test_expanded_field_divergence(self, radial_half, pullback_m3, field):
        X = {"seed": radial_half, "dense": DENSE_CUBIC, "m3": pullback_m3.field}[field]
        rhs = field_rhs(X)
        exact_div = divergence(X)
        rng = random.Random(7)
        for _ in range(20):
            u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            exact = exact_div.evaluate(Fraction(u), Fraction(v))
            got = rhs(u, v)[2]
            assert abs(Fraction(got) - exact) <= 1e-14 * abs_term_sum(exact_div, u, v)


def dense_horner(coeffs, x):
    """Horner's rule over coefficients from the highest power down: the
    leading one, then ``acc * x + c`` per lower power, zeros included."""
    acc, *tail = coeffs
    for c in tail:
        acc = acc * x + c
    return acc


def dense_uni(p: UniPoly, x):
    """Dense Horner over p's coefficients as floats, zeros included."""
    return dense_horner([float(c) for c in reversed(p.coeffs)], x)


def dense_bi(f: BiPoly, u, v):
    """Dense Horner in v per row of v-coefficients, then in u: a missing
    v-power is 0.0 and a missing u-power the row (0.0,)."""
    rows: dict = {}
    for (du, dv), c in f.terms:
        rows.setdefault(du, {})[dv] = float(c)
    values = []
    for du in range(max(rows, default=0), -1, -1):
        row = rows.get(du, {0: 0.0})
        values.append(dense_horner([row.get(dv, 0.0) for dv in range(max(row), -1, -1)], v))
    return dense_horner(values, u)


def dense_rhs(field):
    """The RHS of `closure_rhs` with P, Q and div X on the dense Horner
    chains, a step per power, absent ones included."""
    X = field.source if isinstance(field, PullbackResult) else field
    comps = (X.p_comp, X.q_comp, X.divergence)
    if isinstance(field, PullbackResult):
        cover = cover_chain(field.cover_poly)

        def rhs(u, v):
            (x, du), (y, dv) = cover(u), cover(v)
            P, Q, D = (dense_bi(comp, x, y) for comp in comps)
            return (dv * P, du * Q, du * dv * D)

        return rhs
    return lambda u, v: tuple(dense_bi(comp, u, v) for comp in comps)


# a source whose pullback lanes are (p'(v) x, p'(u), p'(u) p'(v)): the
# cover's values through the RHS (`field_rhs` reads only the source and
# the cover of a PullbackResult, so it needs no expanded field)
PROBE = VectorField2(BiPoly({(1, 0): 1}), BiPoly({(0, 0): 1}))
# the cover lanes' error, relative to max(1, |.|): the factor chain of T_m
# erred by at most 4.9e-12 on TestCoverLanes' points and 9.2e-12 on 3000
# random points (T_49', every m <= 128 whose prime factors are at most 7
# tried), where Horner on the monomials of T_64 erred by 3.5e7
COVER_BOUND = 1.5e-11


def probe_pullback(m: int) -> PullbackResult:
    return PullbackResult(field=None, cover_poly=chebyshev(m), source=PROBE)


class TestStraightLineRhs:
    """`field_rhs` writes the Horner steps of the BiPoly `evaluate_float`
    closures out in their order, those of the cover's factors included, so
    every lane is the same float as `closure_rhs`'s; the cover values are
    within COVER_BOUND of exact, and on the cubic seed and its pullbacks
    the P, Q and div X lanes at them are the dense Horner's floats too."""

    points = staticmethod(rhs_points)
    assert_same = staticmethod(assert_same_rhs)

    def assert_cover_exact(self, p: UniPoly, seed: int) -> None:
        """The cover values of `cover_chain` within COVER_BOUND of exact p
        and p', relative to max(1, |.|), at the finite points in [-1, 1]."""
        cover, dp = cover_chain(p), p.derivative()
        for u in {w for z in self.points(seed) for w in z if abs(w) <= 1.0}:
            (x, dx), xu = cover(u), Fraction(u)
            for got, want in ((x, p.evaluate(xu)), (dx, dp.evaluate(xu))):
                assert abs(Fraction(got) - want) <= COVER_BOUND * max(1, abs(want)), (u, got, want)

    # the cover lanes are the factor chain's, within COVER_BOUND of exact
    # T_m and T_m'; given them, P, Q and div X are the BiPoly evaluator's
    # to the bit.  T_2 is one factor, whose floats are the dense Horner's
    # of T_2 and T_2', as before the chain: `example --m 2` keeps its bytes
    @pytest.mark.parametrize("seed", ["cubic", "dense"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 12, 16, 64])
    def test_pullback_matches_closures(self, radial_half, seed, m):
        X = radial_half if seed == "cubic" else DENSE_CUBIC
        self.assert_same(build_pullback(X, chebyshev(m)), m)
        self.assert_cover_exact(chebyshev(m), m)
        if m == 2:
            cover = cover_chain(chebyshev(2))
            for u in {w for z in self.points(m) for w in z}:
                assert same_float(cover(u)[0], dense_uni(chebyshev(2), u))
                assert same_float(cover(u)[1], dense_uni(chebyshev(2).derivative(), u))

    @pytest.mark.parametrize("field", ["seed", "dense", "m3"])
    def test_vector_field_matches_closures(self, radial_half, pullback_m3, field):
        self.assert_same({"seed": radial_half, "dense": DENSE_CUBIC, "m3": pullback_m3.field}[field], 5)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_folded_chains_match_the_loop(self, m):
        # the cover's chain as `field_rhs` writes it out, straight lines over
        # the factors of T_m (2, 2, 3 at m = 12; 11 alone; T_1 = u one
        # factor, as any cover that is not T_m), against the loop over their
        # evaluators in `cover_chain`, read through the PROBE source
        self.assert_same(probe_pullback(m), m)

    def test_cover_other_than_t_m_is_one_factor(self):
        # T_4 + 1/1000 is no Chebyshev polynomial, though of composite
        # degree: it is written as one factor, not as T_2 o T_2
        p = UniPoly([c + Fraction(1, 1000) * (k == 0) for k, c in enumerate(chebyshev(4).coeffs)])
        self.assert_same(PullbackResult(field=None, cover_poly=p, source=PROBE), 4)

    def test_zero_steps_fold_into_the_next_constant(self):
        # a BiPoly takes a step per nonzero term, across a gap of powers by
        # the shared power (u2 = u * u), each row one expression inside the
        # u-chain: P = v - u^3 - uv^2 + u/4 and its absent u^2 row and v^1
        # term, and the + 0.0 of the u^0 row, whose lowest power is v^1
        P = radial_cubic_field(Fraction(1, 2)).p_comp
        assert dynamics._bipoly_lines("P", P.horner_plan(), "u", "v") == [
            "P = (-1.0 * u2 + (-1.0 * v2 + 0.25)) * u + (1.0 * v + 0.0)"
        ]

    @pytest.mark.parametrize("rho", ["1/3", "2/5", "1/2", "3/5", "2/3"])
    def test_seed_and_its_lifts_keep_the_dense_floats(self, rho):
        # every seed coefficient that the sparse plan steps across a gap
        # with is 1 or 4 in magnitude, so the sparse products are exact and
        # the P, Q and div X lanes of the seed at each bench rho, and of its
        # pullbacks at the factor chain's cover values, are the dense
        # Horner's to the bit, zero signs included
        X = radial_cubic_field(Fraction(rho))
        for m in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 64):
            field = X if m == 1 else build_pullback(X, chebyshev(m))
            got, want = field_rhs(field), dense_rhs(field)
            for z in self.points(m):
                a, b = got(*z), want(*z)
                assert all(same_float(x, y) for x, y in zip(a, b)), (m, z, a, b)
            if m > 1:
                self.assert_cover_exact(chebyshev(m), m)

    def test_built_once_per_field_object(self, radial_half):
        pb = build_pullback(radial_half, chebyshev(4))
        rhs = field_rhs(pb)
        assert field_rhs(pb) is rhs
        # an equal field object builds its own; the cache is never a
        # dict keyed by the field, which would hash its Fractions
        twin = build_pullback(radial_half, chebyshev(4))
        assert twin == pb and field_rhs(twin) is not rhs
        assert field_rhs(pb.field) is not rhs


class TestCoverLanes:
    """The RHS's cover lanes against exact T_m and T_m', read through the
    PROBE source at v = 1, where p'(v) is m^2 exactly: lane 0 is m^2 x
    rounded once, lane 1 is p'(u)."""

    def test_factor_chain_within_bound_to_m_128(self):
        # every m <= 128 whose prime factors are at most 7, at 120 random
        # points of [-1.02, 1.02] and 40 within 1e-12 of +-1: the worst
        # error, relative to max(1, |.|), is 4.9e-12 (T_98'); Horner on the
        # monomials of T_m, about (1 + sqrt 2)**m eps / 2, erred here by
        # 3.2e-11 at m = 16 and 5.2e7 at m = 64
        rng = random.Random(46)
        points = [rng.uniform(-1.02, 1.02) for _ in range(120)]
        points += [s * (1.0 + k * 1e-13) for s in (1.0, -1.0) for k in range(-10, 11) if k]
        for m in range(2, 129):
            k = m
            for q in (2, 3, 5, 7):
                while k % q == 0:
                    k //= q
            if k > 1:
                continue
            T, dT = chebyshev(m), chebyshev(m).derivative()
            rhs = field_rhs(probe_pullback(m))
            assert rhs(1.0, 1.0)[1] == m * m
            for u in points:
                mx, du, _ = rhs(u, 1.0)
                x, dx = T.evaluate(Fraction(u)), dT.evaluate(Fraction(u))
                assert abs(Fraction(mx) - m * m * x) <= COVER_BOUND * m * m * max(1, abs(x)), (m, u)
                assert abs(Fraction(du) - dx) <= COVER_BOUND * max(1, abs(dx)), (m, u)


class TestIntegrate:
    def test_harmonic_rotation_period(self):
        end = integrate(ROTATION, (1.0, 0.0), 2 * math.pi, 1, tol=1e-10)[-1]
        assert abs(end[0] - 1.0) <= 1e-8 and abs(end[1]) <= 1e-8

    def test_cycle_is_invariant(self, radial_half):
        end = integrate(radial_half, (0.5, 0.0), 2 * math.pi, 1, tol=1e-10)[-1]
        assert abs(end[0] - 0.5) <= 1e-8 and abs(end[1]) <= 1e-8

    def test_attraction_to_cycle_with_radial_oracle(self, radial_half):
        states = integrate(radial_half, (0.9, 0.0), 20.0, 400, tol=1e-10)
        end = states[-1]
        assert abs(math.hypot(*end) - 0.5) <= 1e-4
        # radius along the whole trajectory follows the closed form
        worst = 0.0
        for pt, t in zip(states, [20.0 * k / 400 for k in range(401)]):
            worst = max(worst, abs(math.hypot(pt[0], pt[1]) - radial_oracle(0.9, t, 0.5)))
        assert worst <= 1e-5

    def test_blowup_reports_last_state(self):
        # du/dt = u^2 from u=1 blows up at t = 1
        field = VectorField2(BiPoly({(2, 0): 1}), BiPoly())
        with pytest.raises(IntegrationError) as exc:
            integrate(field, (1.0, 0.0), 2.0, 1, tol=1e-10)
        assert exc.value.last_time is not None
        assert 0.9 <= exc.value.last_time <= 1.1
        assert exc.value.last_state[0] > 100.0

    def test_stiff_field_stops_at_the_step_budget(self, wall_bound):
        # (-10**8 u, -v) is stiff: stability holds its steps near 1e-8, so
        # t_span = 200 would take billions of them; integrate raises after
        # DynamicsConfig.integrate_steps, with the state it reached
        field = VectorField2(BiPoly({(1, 0): -10**8}), BiPoly({(0, 1): -1}))
        with wall_bound(1.0), pytest.raises(IntegrationError, match="RK steps") as exc:
            integrate(field, (0.5, 0.5), 200.0, 1)
        assert 0.0 < exc.value.last_time < 1e-3
        assert abs(exc.value.last_state[0]) < 1e-9 and 0.49 < exc.value.last_state[1] < 0.5

    def test_bad_tol_rejected(self, radial_half):
        with pytest.raises(ValueError):
            integrate(radial_half, (0.5, 0.0), 1.0, 1, tol=0.0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_sample_interval_rejected(self, radial_half, n):
        with pytest.raises(ValueError, match="n >= 1"):
            integrate(radial_half, (0.5, 0.0), 1.0, n)

    def test_infinite_t_span_rejected(self, radial_half, monkeypatch):
        # steps toward t = inf never end; the stepper below cuts off a run
        # that gets past the check, so that it fails instead of hanging
        class Bounded(dynamics.RK45):
            steps = 0

            def step(self):
                Bounded.steps += 1
                if Bounded.steps > 10_000:
                    raise RuntimeError("integrate stepped toward an unreachable t_span")
                return super().step()

        monkeypatch.setattr(dynamics, "RK45", Bounded)
        with pytest.raises(ValueError, match="t_span"):
            integrate(radial_half, (0.9, 0.0), math.inf, 1)

    # the ids name the one entry point that takes a tolerance
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9], ids=lambda tol: f"integrate-{tol}")
    def test_tol_must_be_positive_and_finite(self, radial_half, tol):
        # a ValueError from the stepper: an infinite tol once reached the
        # integrator and failed there as a step size underflow
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            integrate(radial_half, (0.9, 0.0), 1.0, 1, tol=tol)

    @pytest.mark.parametrize("make", [
        lambda X: Section(base=(0, 0), direction=(math.nan, 0), s_max=1),
        lambda X: Section(base=(math.inf, 0), direction=(1, 0), s_max=1),
        lambda X: Section(base=(0, 0), direction=(1, 0), s_max=math.nan),
        lambda X: integrate(X, (math.nan, 0), 1.0, 2),
        lambda X: integrate(X, (math.inf, 0), 1.0, 2),
    ], ids=["section-direction-nan", "section-base-inf", "section-s_max-nan",
            "integrate-start-nan", "integrate-start-inf"])
    def test_non_finite_input_is_a_bad_argument(self, radial_half, make):
        # a bad argument, so a ValueError (exit 3), not a DynamicsError (exit
        # 4): unchecked, a nan start fails in the stepper as a step size underflow
        with pytest.raises(ValueError, match="must be finite"):
            make(radial_half)


TOL = 1e-10
# the rtol and atol that `DOP853` derives from TOL, for scipy's stepper
SCIPY_TOLS = {"rtol": TOL, "atol": TOL * 1e-2}


def stepper_field(radial_half, case):
    """(field, start) for the seed from its cycle, or for an m = 3 or m = 8
    pullback, through its factors, from the lifted cycle of an attracting
    rectangle; rounding differences decay on an attracting cycle, so two
    step sequences that differ in the last bits stay the same sequence."""
    if case == "seed":
        return radial_half, (0.5, 0.0)
    m, i, j = {"m3": (3, 2, 2), "m8": (8, 3, 5)}[case]
    pb = build_pullback(radial_half, chebyshev(m))
    return pb, (branch_inverse(m, i, 0.5), branch_inverse(m, j, 0.0))


def stepper_case(radial_half, case):
    """(rhs, start) of `stepper_field`."""
    field, z0 = stepper_field(radial_half, case)
    return field_rhs(field), z0


def state_lanes(rhs):
    """The RHS without its divergence: the ODE scipy's DOP853 integrates,
    on the floats of its numpy state."""
    return lambda t, z: rhs(float(z[0]), float(z[1]))[:2]


def copy_state(ours: DOP853, theirs) -> None:
    ours.t, ours.h_abs = float(theirs.t), float(theirs.h_abs)
    ours.y = (float(theirs.y[0]), float(theirs.y[1]))
    # the divergence at y, which only the w lane reads
    ours.f = (float(theirs.f[0]), float(theirs.f[1]), ours.fun(*ours.y)[2])


@pytest.fixture
def trials(monkeypatch):
    """Every trial step the stepper makes, as (y, h, stages), in order."""
    made = []
    trial, extra = dynamics._kernels()

    def recording(fun, y0, y1, h, k0):
        out = trial(fun, y0, y1, h, k0)
        made.append(((y0, y1), h, list(out[0])))
        return out

    monkeypatch.setattr(dynamics, "_kernels", lambda: (recording, extra))
    return made


def gamma(n: int) -> Fraction:
    """n u / (1 - n u), u = 2^-53: the relative error bound of n roundings
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1)."""
    nu = Fraction(n, 2**53)
    return nu / (1 - nu)


def exact_trial(solver: DOP853, trial):
    """One trial of `solver`, evaluated exactly from its own float stages:
    (y_new, the bound on a float y_new's error per lane, the interval that
    holds a float error norm).  A float sum of n products is within
    gamma(n) sum|products| of the exact sum, in any order, and each later
    operation adds a rounding; the norm rises with the 5th-order estimate
    and falls with the 3rd-order one, so the interval's ends take the
    extremes of each."""
    y, h, K = trial
    if not all(math.isfinite(x) for k_ in K for x in k_[:2]):
        return None, None, (math.inf, math.inf)  # stages that overflowed
    F = Fraction
    h, rtol, atol = F(h), F(solver.rtol), F(solver.atol)
    y_new, y_err, n_lo, n_hi = [], [], [0, 0], [0, 0]
    for lane in range(2):
        y0 = F(y[lane])
        # the stages' products with the weights b, e5 and e3, by weight
        terms = list(zip(*([F(K[k][lane]) * F(w) for w in weights] for k, *weights in dynamics._BE)))
        b, e5, e3 = (sum(col) for col in terms)
        b_mag, e5_mag, e3_mag = (sum(map(abs, col)) for col in terms)
        y_new.append(y0 + h * b)
        y_err.append(gamma(10) * (abs(y0) + abs(h) * b_mag))  # 8 products summed, * h, + y0
        ends = [max(abs(y0), abs(y_new[-1]) + d) for d in (-y_err[-1], y_err[-1])]
        s_lo, s_hi = ((atol + end * rtol) * (1 + g) for end, g in zip(ends, (-gamma(2), gamma(2))))
        for j, (e, mag) in enumerate(((e5, e5_mag), (e3, e3_mag))):
            d = gamma(9) * mag  # 8 products summed, / scale
            n_lo[j] += (max(abs(e) - d, 0) / s_hi) ** 2 * (1 - gamma(2))  # squared and summed
            n_hi[j] += ((abs(e) + d) / s_lo) ** 2 * (1 + gamma(2))

    def norm(n5, n3, g):  # h n5 / sqrt(2 (n5 + 0.01 n3)): five roundings there, three here
        return math.sqrt(float(h * h * n5 * n5 / (2 * (n5 + F(0.01) * n3)))) * float(1 + g) if n5 else 0.0

    return y_new, y_err, (norm(n_lo[0], n_hi[1], -gamma(8)), norm(n_hi[0], n_lo[1], gamma(8)))


def factor(err: float, rejected: bool, retried: bool) -> float:
    """The DOP853 controller's step size factor for error norm err: 0.9
    err^(-1/8), at least 0.2 for a rejected trial, at most 10 for an
    accepted one, and at most 1 right after a rejection."""
    grow = 0.9 * err**-0.125 if 0.0 < err < math.inf else (10.0 if err == 0.0 else 0.2)
    return max(0.2, grow) if rejected else min(1.0 if retried else 10.0, grow)


def assert_controller_exact(solver: DOP853, trials) -> None:
    """Every step size `solver` chose in its last step, and its new state,
    are those of the exact error norm and sums of its own stages, to the
    rounding bounds of a float evaluation (`exact_trial`), widened by eight
    roundings for the controller's own arithmetic on either side."""
    pad, t = float(gamma(8)), solver.t_old  # every trial starts where the step did
    for i, trial in enumerate(trials):
        _, h, _ = trial
        y_new, y_err, (err_lo, err_hi) = exact_trial(solver, trial)
        rejected = i + 1 < len(trials)
        lo, hi = (h * factor(err, rejected, i > 0) * (1 + p) for err, p in ((err_hi, -pad), (err_lo, pad)))
        if rejected:  # the next trial's length, clipped at t_bound
            lo, hi = (min(t + x, solver.t_bound) - t for x in (lo, hi))
            assert lo <= trials[i + 1][1] <= hi
            continue
        assert lo <= solver.h_abs <= hi
        for k in range(2):
            assert abs(Fraction(solver.y[k]) - y_new[k]) <= y_err[k]


class TestStepperAgainstScipy:
    # scipy's DOP853 is the oracle here only; its sums run in BLAS, with fused
    # multiply-adds on some hosts, so steps agree to rounding, not bit for bit
    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_first_step_size(self, radial_half, case):
        rhs, z0 = stepper_case(radial_half, case)
        ours = DOP853(rhs, z0, 5.0, TOL)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 5.0, **SCIPY_TOLS)
        assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-14)

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_one_step_from_shared_state(self, radial_half, case, trials):
        rhs, z0 = stepper_case(radial_half, case)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 20.0, **SCIPY_TOLS)
        ours = DOP853(rhs, z0, 20.0, TOL)
        retried = compared = 0
        while theirs.status == "running" and retried + compared < 150:
            copy_state(ours, theirs)
            t, h_abs, nfev = ours.t, ours.h_abs, theirs.nfev
            trials.clear()
            ours.step()
            theirs.step()
            assert_controller_exact(ours, trials)
            # scipy makes 12 RHS calls per trial, so both rejected the same trials
            assert theirs.nfev - nfev == 12 * len(trials)
            # the error estimate cancels to 1e-12 of the stages or less (to
            # rounding noise on the tiny first step), so the next step size,
            # through its 1/8 power, keeps fewer digits
            assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-3)
            if theirs.t != t + h_abs:
                # a rejected trial: the retry shrinks by that power too.  A
                # rejected trial's 5th-order estimate cancels to 1e-10 of the
                # stages, and the norm squares it; each side's retry is held
                # to its own exact norm above, and they meet to about 9 digits
                # (measured 1.9e-9 at worst, m3)
                retried += 1
                assert ours.t == pytest.approx(theirs.t, rel=1e-8)
                continue
            compared += 1
            assert ours.t == theirs.t
            # each lane against the exact sum is held above; against scipy's,
            # which has its own rounding, to 1e-14 of the state's scale, since
            # a lane may cross zero (measured 8.1e-16 at worst)
            scale = max(abs(theirs.y[0]), abs(theirs.y[1]))
            for k in range(2):
                assert abs(ours.y[k] - theirs.y[k]) <= 1e-14 * scale
        # scipy rejects 1, 28 and 35 trials here; about half the 66, 122 and
        # 115 accepted steps is the floor
        assert compared >= 30

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_step_after_rejected_trials(self, radial_half, case, trials):
        rhs, z0 = stepper_case(radial_half, case)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 20.0, **SCIPY_TOLS)
        ours = DOP853(rhs, z0, 20.0, TOL)
        for _ in range(20):
            theirs.step()
        theirs.h_abs *= 100.0  # far too long: rejected until it fits
        copy_state(ours, theirs)
        t, nfev = ours.t, theirs.nfev
        ours.step()
        theirs.step()
        assert len(trials) >= 3
        assert_controller_exact(ours, trials)
        assert theirs.nfev - nfev == 12 * len(trials)
        # against scipy, each retry carries both sides' rounding of a
        # rejected estimate (measured 7.2e-11 at worst, m3)
        assert ours.t == pytest.approx(theirs.t, rel=1e-9)
        assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-3)
        assert ours.h_abs <= ours.t - t  # no growth right after a rejection

    def test_rejected_trial_clipped_at_t_bound_shrinks_from_the_clip(self, radial_half, trials):
        # a trial of 1e3 is cut at t_bound = 20 and its stages overflow: the
        # retry is 0.2 of the 20 tried, as scipy's, not of 1e3
        rhs, z0 = stepper_case(radial_half, "seed")
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 20.0, **SCIPY_TOLS)
        ours = DOP853(rhs, z0, 20.0, TOL)
        theirs.h_abs = ours.h_abs = 1e3
        with np.errstate(over="ignore", invalid="ignore"):
            theirs.step()
        ours.step()
        assert trials[0][1] == 20.0 and trials[1][1] == 4.0
        assert_controller_exact(ours, trials)
        assert ours.t == pytest.approx(theirs.t, rel=1e-9)

    @pytest.mark.parametrize("case, t_bound", [("seed", 20.0), ("m3", 5.0), ("m8", 1.5)])
    def test_whole_run_takes_the_same_steps(self, radial_half, case, t_bound):
        floor = {"seed": 30, "m3": 90, "m8": 180}[case]  # about half the 67, 179 and 361 steps
        rhs, z0 = stepper_case(radial_half, case)
        ours = DOP853(rhs, z0, t_bound, TOL)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), t_bound, **SCIPY_TOLS)
        n_ours = n_theirs = 0
        while ours.t < t_bound:
            ours.step()
            n_ours += 1
        while theirs.status == "running":
            theirs.step()
            n_theirs += 1
        assert n_ours == n_theirs > floor
        assert math.dist(ours.y, theirs.y) <= 1e-9

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_dense_output_at_step_midpoints(self, radial_half, case):
        rhs, z0 = stepper_case(radial_half, case)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 5.0, **SCIPY_TOLS)
        ours = DOP853(rhs, z0, 5.0, TOL)
        for _ in range(50):
            if theirs.status != "running":  # the seed is done in 18 steps
                break
            copy_state(ours, theirs)
            ours.step()
            theirs.step()
            mid = 0.5 * (theirs.t_old + theirs.t)
            want = theirs.dense_output()(mid)
            got = ours.dense_output().at(mid)
            for k in range(2):
                assert abs(got[k] - want[k]) <= 1e-13 * abs(want[k]) + 1e-16

    def test_tableau_is_scipys_bit_for_bit(self):
        c = dop853_coefficients
        A = np.zeros((16, 16))
        for s, (ci, row) in enumerate(dynamics._A + ((1.0, ()),) + dynamics._A_EXTRA, 1):
            assert ci == c.C[s]
            for k, a in row:
                A[s, k] = a
        for k, b, _, _ in dynamics._BE:
            A[12, k] = b
        assert (A == c.A).all()
        E5, E3, D = np.zeros(13), np.zeros(13), np.zeros((4, 16))
        for k, _, e5, e3 in dynamics._BE:
            E5[k], E3[k] = e5, e3
        for k, d in dynamics._D:
            D[:, k] = d
        assert (E5 == c.E5).all() and (E3 == c.E3).all() and (D == c.D).all()

    def test_scipy_stepper_is_not_used(self):
        assert DOP853.__module__ == "cyclerep.dynamics"
        assert not issubclass(DOP853, ScipyDOP853)
        assert dynamics.RK45 is DOP853  # the name the benchmark tracer subclasses


def loop_stages(fun, y, h: float, K: list, rows) -> list:
    """K, extended by the stages of `rows` from state y, step h: the stage
    loop the generated kernels replace."""
    y0, y1 = y
    for _, row in rows:
        su = sv = 0.0
        for k, a in row:
            k_ = K[k]
            su += k_[0] * a
            sv += k_[1] * a
        K.append(fun(y0 + su * h, y1 + sv * h))
    return K


def loop_trial(fun, y0, y1, h, k0):
    """One DOP853 trial by the stage loop and the loop over `_BE`: the
    reference the generated trial must match bit for bit."""
    K = loop_stages(fun, (y0, y1), h, [k0], dynamics._A)
    bu = bv = bd = e5u = e5v = e3u = e3v = 0.0
    for k, b, e5, e3 in dynamics._BE:
        ku, kv, kd = K[k]
        bu += ku * b
        bv += kv * b
        bd += kd * b
        e5u += ku * e5
        e5v += kv * e5
        e3u += ku * e3
        e3v += kv * e3
    return K, bu, bv, bd, e5u, e5v, e3u, e3v


def loop_extra(fun, y0, y1, h, K):
    """The interpolant's three extra stages and its row sums, per lane, by
    loops: the reference of the generated `extra`."""
    K = loop_stages(fun, (y0, y1), h, list(K), dynamics._A_EXTRA)
    G = []
    for lane in range(3):
        g3 = g4 = g5 = g6 = 0.0
        for k, (d3, d4, d5, d6) in dynamics._D:
            k_ = K[k][lane]
            g3 += k_ * d3
            g4 += k_ * d4
            g5 += k_ * d5
            g6 += k_ * d6
        G.append((g3, g4, g5, g6))
    return tuple(G)


def hexes(x):
    """Every float in x, through nested tuples and lists, by float.hex; a
    number of any other type, a numpy float among them, fails."""
    if isinstance(x, (tuple, list)):
        return [hexes(v) for v in x]
    assert type(x) is float, type(x)
    return x.hex()


class TestGeneratedTrial:
    """The trial and interpolant stages generated from the tableau against
    the loops they replace (`loop_trial`, `loop_extra`), by float.hex:
    every stage's arguments and its three lanes, and every weighted sum."""

    @staticmethod
    def run(kernel, rhs, *args):
        """(the (u, v) of every RHS call, the kernel's result)."""
        calls = []

        def fun(u, v):
            calls.append((u, v))
            return rhs(u, v)

        return hexes(calls), hexes(kernel(fun, *args))

    def assert_same(self, rhs, y0: float, y1: float, h: float):
        trial, extra = dynamics._kernels()
        k0 = rhs(y0, y1)
        got = self.run(trial, rhs, y0, y1, h, k0)
        assert got == self.run(loop_trial, rhs, y0, y1, h, k0)
        K, bu, bv = trial(rhs, y0, y1, h, k0)[:3]
        K = K + [rhs(y0 + h * bu, y1 + h * bv)]  # stage 12, as an accepted step makes it
        assert self.run(extra, rhs, y0, y1, h, K) == self.run(loop_extra, rhs, y0, y1, h, K)
        return K

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_random_trials_match_the_loops(self, radial_half, case):
        # states near the stepper case's start and anywhere in [-1, 1]^2;
        # steps from 1e-6 to 1, where stage sums round differently
        field, (u0, v0) = stepper_field(radial_half, case)
        rhs, rng = field_rhs(field), random.Random(case)
        for k in range(80):
            (c0, c1), d = ((u0, v0), 0.01) if k < 20 else ((0.0, 0.0), 1.0)
            y0, y1 = c0 + rng.uniform(-d, d), c1 + rng.uniform(-d, d)
            self.assert_same(rhs, y0, y1, 10 ** rng.uniform(-6, 0))

    @pytest.mark.parametrize("case", ["seed", "m3"])
    def test_overflowing_trial_matches_the_loops(self, radial_half, case):
        # a step of 1e60 overflows the stages to inf and then nan
        field, (u0, v0) = stepper_field(radial_half, case)
        K = self.assert_same(field_rhs(field), u0, v0, 1e60)
        lanes = [x for k in K for x in k]
        assert any(math.isinf(x) for x in lanes) and any(math.isnan(x) for x in lanes)

    def test_stepper_uses_the_generated_kernels(self, radial_half, monkeypatch):
        # a run through the loops takes the same steps, states and
        # interpolants, bit for bit
        runs = []
        for kernels in (dynamics._kernels(), (loop_trial, loop_extra)):
            monkeypatch.setattr(dynamics, "_kernels", lambda: kernels)
            solver, run = DOP853(field_rhs(radial_half), (0.9, 0.0), 3.0, TOL), []
            while solver.t < 3.0:
                solver.step()
                piece = solver.dense_output()
                run.append(hexes([solver.t, solver.y, solver.w, solver.h_abs, piece.F]))
            runs.append(run)
        assert runs[0] == runs[1] and len(runs[0]) > 10


class TestBrentq:
    """`brentq` against scipy.optimize.brentq at the crossing tolerances,
    the oracle here only: the same control flow on the same floats gives
    the same root, bit for bit."""

    @pytest.fixture
    def crossings(self, monkeypatch):
        """(ours, scipy's, a, b) for every crossing refinement made; scipy
        is called at once, while the crossing function's step is current."""
        calls = []

        def recording(f, a, b):
            ours = brentq(f, a, b)
            calls.append((ours, scipy_brentq(f, a, b, **PROGRAM_TOLS), a, b))
            return ours

        monkeypatch.setattr(dynamics, "brentq", recording)
        return calls

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_crossing_times_match_scipy_bit_for_bit(self, radial_half, case, crossings):
        field, z0 = stepper_field(radial_half, case)
        sec = dynamics._section_through(z0, field_rhs(field)(*z0)[:2], 0.02)
        for s in (0.005, 0.015, 0.02, 0.025, 0.035):
            poincare_return(field, sec, s)
        # one more per start that rounding puts a hair behind the section
        assert len(crossings) >= 5
        for ours, theirs, a, b in crossings:
            assert ours.hex() == theirs.hex()
            assert a <= ours <= b

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
        st.floats(-5.0, 5.0),
        st.floats(0.1, 10.0),
        st.floats(0.01, 100.0),
    )
    def test_bracketed_cubics_match_scipy_bit_for_bit(self, roots, a, width, scale):
        r1, r2, r3 = roots
        b = a + width

        def f(x):
            return scale * (x - r1) * (x - r2) * (x - r3)

        assume(f(a) * f(b) < 0.0)
        want, status = scipy_brentq(f, a, b, **PROGRAM_TOLS, full_output=True, disp=False)
        if not status.converged:  # e.g. a triple root, flat to 1e-30 near it
            with pytest.raises(DynamicsError, match=re.escape(f"last x={want!r})")):
                brentq(f, a, b)
            return
        assert brentq(f, a, b).hex() == want.hex()

    def test_root_at_an_end_is_returned_as_is(self):
        assert brentq(lambda x: x * x, 0.0, 1.0) == 0.0  # even with no sign change
        assert brentq(lambda x: x - 0.75, -1.0, 0.75) == 0.75
        assert scipy_brentq(lambda x: x - 0.75, -1.0, 0.75) == 0.75

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="nan"):
            brentq(lambda x: math.nan, 0.0, 1.0)
        # a nan met inside the bracket, as scipy's does
        inside = lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan  # noqa: E731
        with pytest.raises(ValueError, match="nan"):
            brentq(inside, 0.0, 1.0)
        with pytest.raises(ValueError):
            scipy_brentq(inside, 0.0, 1.0)

    def test_no_convergence_raises_dynamics_error(self):
        def f(x):  # a triple root: |f| < 1e-30 within 1e-10 of it
            return (x - 0.7) * (x - 0.7) * (x - 0.7)

        with pytest.raises(RuntimeError):
            scipy_brentq(f, 0.0, 4.0, **PROGRAM_TOLS)
        last, status = scipy_brentq(f, 0.0, 4.0, **PROGRAM_TOLS, full_output=True, disp=False)
        assert status.iterations == 100
        # its one caller refines a section crossing, so the error is typed as one
        with pytest.raises(DegenerateCrossingError,
                           match=re.escape(f"did not converge in 100 iterations (last x={last!r})")):
            brentq(f, 0.0, 4.0)

    def test_lift_records_a_refinement_that_does_not_converge(self, monkeypatch, radial_half, base_cycle):
        def stalled(f, a, b):  # the real brentq, on the triple root it cannot close in on
            return brentq(lambda x: (x - 0.7) * (x - 0.7) * (x - 0.7), 0.0, 4.0)

        monkeypatch.setattr(dynamics, "brentq", stalled)
        pb = build_pullback(radial_half, chebyshev(2))
        with pytest.raises(LiftError) as exc:
            lift_cycles(pb, base_cycle, 2)
        assert [(i, j) for i, j, _ in exc.value.failures] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        # each failure carries the error itself, typed, not its text
        assert all(type(why) is DegenerateCrossingError and "did not converge" in str(why)
                   for _, _, why in exc.value.failures)


def scipy_piece(piece) -> Dop853DenseOutput:
    """One step's interpolant as scipy's DOP853 interpolant of (u, v)."""
    return Dop853DenseOutput(piece.t_old, piece.t, np.array(piece.y_old[:2]), np.array(piece.F[:2]).T)


def ode_solution_samples(ts, pieces, n: int):
    """The n + 1 states `integrate` returns over the steps ending at ts[1:],
    the way they were computed with numpy and scipy."""
    sol = OdeSolution(np.array(ts), [scipy_piece(p) for p in pieces])
    return [(float(u), float(v)) for u, v in sol(np.linspace(ts[0], ts[-1], n + 1)).T]


@pytest.fixture
def recorded(monkeypatch):
    """(ts, pieces): the step times from t = 0 and the interpolant of every
    accepted step, recorded through a subclass set on `dynamics.RK45`."""
    ts, pieces = [0.0], []

    class Recording(dynamics.RK45):
        def step(self):
            super().step()
            ts.append(self.t)
            pieces.append(self.dense_output())

    monkeypatch.setattr(dynamics, "RK45", Recording)
    return ts, pieces


class TestTrajectorySample:
    """`integrate`'s states against numpy.linspace and scipy's OdeSolution,
    the oracles here only: the same times on the same pieces, bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 300, 1200])
    def test_recorded_integration(self, pullback_m3, lifted_m3, recorded, n):
        r = lifted_m3[4]
        got = integrate(pullback_m3, r.anchor, r.period, n, 1e-8)
        ts, pieces = recorded
        assert len(pieces) > 8  # about half the 17 steps taken
        assert len(got) == n + 1
        assert [(u.hex(), v.hex()) for u, v in got] == [
            (u.hex(), v.hex()) for u, v in ode_solution_samples(ts, pieces, n)
        ]

    @pytest.mark.parametrize("n", [8, 16, 24, 5])
    def test_sample_times_on_step_boundaries(self, radial_half, recorded, monkeypatch, n):
        # every other piece of a recorded run (16 steps), moved onto steps
        # of 1/8 and replayed by a stub stepper: neighbours do not meet, so
        # the piece chosen at a boundary shows (consecutive degree-7 pieces
        # meet to the last bit)
        integrate(radial_half, (0.9, 0.0), 3.0, 1)
        pieces = [
            dynamics._DenseStep(k / 8, (k + 1) / 8, p.y_old, p.F) for k, p in enumerate(recorded[1][:16:2])
        ]
        ts = [k / 8 for k in range(9)]
        assert all(pieces[k - 1].at(t, 2) != pieces[k].at(t, 2) for k, t in enumerate(ts[1:-1], 1))

        class Replay:
            def __init__(self, fun, y0, t_bound, tol):
                self.t, self.steps = 0.0, iter(pieces)

            def step(self):
                self.piece = next(self.steps)
                self.t = self.piece.t

            def dense_output(self):
                return self.piece

        monkeypatch.setattr(dynamics, "RK45", Replay)
        got = integrate(radial_half, (0.9, 0.0), 1.0, n)
        assert [(u.hex(), v.hex()) for u, v in got] == [
            (u.hex(), v.hex()) for u, v in ode_solution_samples(ts, pieces, n)
        ]


class TestStepperOverflow:
    def test_overflowing_trial_is_retried_smaller(self, radial_half):
        # a first trial of length 1e60 overflows the cubic field in its
        # stages; the rejections shrink it until a step is accepted
        overflows = []
        rhs = field_rhs(radial_half)

        def watched(u, v):
            value = rhs(u, v)
            overflows.append(not all(map(math.isfinite, value)))
            return value

        solver = DOP853(watched, (0.5, 0.0), 1e61, TOL)
        solver.h_abs = 1e60
        solver.step()
        assert any(overflows)
        assert 0.0 < solver.t < 1.0
        assert abs(math.hypot(*solver.y) - 0.5) <= 1e-9

    def test_overflow_at_blowup_raises_integration_error(self, monkeypatch):
        # du/dt = u^2 from u = 1e150 blows up at t = 1e-150, and the trial
        # stages near it overflow
        field = VectorField2(BiPoly({(2, 0): 1}), BiPoly())
        rhs = field_rhs(field)
        overflowed = []

        def watched(u, v):
            value = rhs(u, v)
            overflowed.append(not math.isfinite(value[0]))
            return value

        monkeypatch.setattr(dynamics, "field_rhs", lambda f: watched)
        with pytest.raises(IntegrationError) as exc:
            integrate(field, (1e150, 0.0), 1.0, 1)
        assert any(overflowed)
        assert 1e151 < exc.value.last_state[0] < math.inf
        assert exc.value.last_time == pytest.approx(1e-150, rel=1e-3)

    def test_nan_field_fails_instead_of_looping(self, monkeypatch):
        # a field that is nan everywhere gives a nan first step
        monkeypatch.setattr(dynamics, "field_rhs", lambda field: lambda u, v: (math.nan, 0.0, 0.0))
        with pytest.raises(IntegrationError):
            integrate(ROTATION, (0.5, 0.0), 1.0, 1)


class TestStepperHook:
    """Each accepted step is one call of `RK45.step`, with RK45 (the
    DOP853 stepper, under the name the benchmark tracer patches) looked up
    in the module when the integration starts, so a subclass patched onto
    the module sees every step (this is how the benchmark tracer counts
    `dynamics.return.rk_steps`)."""

    @pytest.fixture
    def seen(self, monkeypatch):
        times = []

        class Watching(dynamics.RK45):
            def step(self):
                result = super().step()
                times.append(self.t)
                return result

        monkeypatch.setattr(dynamics, "RK45", Watching)
        return times

    def test_integrate_steps_are_seen(self, radial_half, seen):
        integrate(radial_half, (0.9, 0.0), 3.0, 1)
        solver, ts = DOP853(field_rhs(radial_half), (0.9, 0.0), 3.0, DEFAULT_CONFIG.tol), []
        while solver.t < 3.0:
            solver.step()
            ts.append(solver.t)
        assert seen == ts and len(seen) > 10

    def test_integrate_interpolates_only_the_steps_it_samples(self, radial_half, monkeypatch):
        interpolated = []

        class Counting(dynamics.RK45):
            def dense_output(self):
                interpolated.append(self.t)
                return super().dense_output()

        monkeypatch.setattr(dynamics, "RK45", Counting)
        integrate(radial_half, (0.9, 0.0), 3.0, n=1)
        # the first step, which holds t = 0, and the last, which ends at 3
        assert len(interpolated) == 2 and interpolated[-1] == 3.0

    def test_poincare_return_steps_are_seen(self, radial_half, x_axis_section, seen):
        _, flight, _ = poincare_return(radial_half, x_axis_section, 0.8)
        assert len(seen) > 10
        assert all(a < b for a, b in zip(seen, seen[1:]))
        assert seen[-2] < flight <= seen[-1]

    def test_poincare_return_integrates_at_given_tol(self, radial_half, x_axis_section, seen, monkeypatch):
        # the return map reads DynamicsConfig.tol at each call
        poincare_return(radial_half, x_axis_section, 0.8)
        default_steps = len(seen)
        seen.clear()
        monkeypatch.setattr(DynamicsConfig, "tol", 1e-6)
        poincare_return(radial_half, x_axis_section, 0.8)
        assert 0 < len(seen) < default_steps


class TestSettableSurface:
    """Every limit is a constant; only `integrate` takes a tolerance."""

    def test_config_has_no_fields(self):
        assert fields(DynamicsConfig) == ()
        assert DEFAULT_CONFIG.section_cap == 0.05 and DEFAULT_CONFIG.margin == DEFAULT_CONFIG.eps_hyp == 1e-3

    def test_fixed_limit_is_not_settable(self):
        with pytest.raises(TypeError):
            DynamicsConfig(margin=1e-6)

    def test_brentq_takes_no_tolerances(self):
        assert list(inspect.signature(brentq).parameters) == ["f", "a", "b"]

    @pytest.mark.parametrize("entry", [integrate, poincare_return, find_cycle])
    def test_rhs_comes_from_the_field_alone(self, entry):
        assert "rhs" not in inspect.signature(entry).parameters

    @pytest.mark.parametrize("entry", [integrate, poincare_return, find_cycle])
    def test_only_integrate_takes_a_tolerance(self, entry):
        assert ("tol" in inspect.signature(entry).parameters) == (entry is integrate)


class TestPoincareReturn:
    def test_cycle_fixed_point(self, radial_half, x_axis_section):
        s1, t1, _ = poincare_return(radial_half, x_axis_section, 0.5)
        assert abs(s1 - 0.5) <= 1e-6
        assert abs(t1 - 2 * math.pi) <= 1e-6

    def test_center_return_is_identity(self, x_axis_section):
        s1, t1, _ = poincare_return(ROTATION, x_axis_section, 0.7)
        assert abs(s1 - 0.7) <= 1e-9
        assert abs(t1 - 2 * math.pi) <= 1e-8

    def test_contraction_matches_radial_oracle(self, radial_half, x_axis_section):
        s1, t1, _ = poincare_return(radial_half, x_axis_section, 0.8)
        assert 0.5 < s1 < 0.8
        assert abs(s1 - radial_oracle(0.8, 2 * math.pi, 0.5)) <= 1e-6
        assert abs(t1 - 2 * math.pi) <= 1e-6  # angular speed is exactly -1

    def test_flight_time_agrees_with_integrate(self, radial_half, x_axis_section):
        for s in (0.3, 0.5, 0.8):
            s_new, t, _ = poincare_return(radial_half, x_axis_section, s)
            end = integrate(radial_half, x_axis_section.point_at(s), t, 1)[-1]
            assert math.dist(end, x_axis_section.point_at(s_new)) <= 1e-8

    @pytest.mark.parametrize("s", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_slope_matches_radial_return_map(self, radial_half, x_axis_section, s):
        # P(s) = rho s / sqrt(s^2 + (rho^2 - s^2) a) with a = exp(-4 pi rho^2)
        # (radial_oracle after one turn), so P'(s) = rho^3 a / (...)^(3/2)
        rho, a = 0.5, EXP_MINUS_PI
        _, _, slope = poincare_return(radial_half, x_axis_section, s)
        want = rho**3 * a / (s * s + (rho * rho - s * s) * a) ** 1.5
        assert abs(slope - want) <= 1e-9 * want

    @staticmethod
    def tilted_section(pullback_m3) -> Section:
        """A section turned 35 degrees off the field's normal, through the
        lifted cycle of rectangle (2, 2), of half-length 0.02."""
        m, half = 3, 0.02
        seed = (branch_inverse(m, 2, 0.5), branch_inverse(m, 2, 0.0))
        fu, fv, _ = field_rhs(pullback_m3)(*seed)
        c, s = math.cos(math.radians(35)), math.sin(math.radians(35))
        nu, nv = -fv / math.hypot(fu, fv), fu / math.hypot(fu, fv)
        d = (c * nu - s * nv, s * nu + c * nv)
        base = (seed[0] - half * d[0], seed[1] - half * d[1])
        return Section(base=base, direction=d, s_max=2 * half)

    @pytest.mark.parametrize("frac", [0.3, 0.6, 1.4, 1.7])
    def test_slope_matches_central_difference_on_tilted_section(self, pullback_m3, frac, monkeypatch):
        # points away from the fixed point.  The difference quotient divides
        # the returns' error by 2h, so they are taken at tol = 1e-13: at the
        # default tol it is noise (1.7e-8 off at frac = 0.6), at 1e-13 it
        # sits 1.1e-10 to 1.6e-9 from the slope
        sec, h = self.tilted_section(pullback_m3), 1e-6
        s0 = frac * 0.02
        r0, _, slope = poincare_return(pullback_m3, sec, s0)
        assert abs(r0 - s0) > 1e-4
        monkeypatch.setattr(DynamicsConfig, "tol", 1e-13)
        r_plus, _, _ = poincare_return(pullback_m3, sec, s0 + h)
        r_minus, _, _ = poincare_return(pullback_m3, sec, s0 - h)
        assert abs(slope - (r_plus - r_minus) / (2 * h)) <= 1e-8 * abs(slope)

    @pytest.mark.parametrize("frac", [0.3, 0.6, 1.4, 1.7])
    def test_slope_at_default_tol_matches_fine_tol_slope(self, pullback_m3, frac, monkeypatch):
        # measured 2.2e-12 to 3.8e-11 (relative) off the tol = 1e-13 slope
        sec, s0 = self.tilted_section(pullback_m3), frac * 0.02
        _, _, slope = poincare_return(pullback_m3, sec, s0)
        monkeypatch.setattr(DynamicsConfig, "tol", 1e-13)
        _, _, fine = poincare_return(pullback_m3, sec, s0)
        assert abs(slope - fine) <= 1e-9 * abs(fine)

    def test_blowup_reports_last_state(self):
        # du/dt = u^2 from u=1/2 blows up at t = 2, long before t_max
        field = VectorField2(BiPoly({(2, 0): 1}), BiPoly())
        section = Section(base=(0.5, -1.0), direction=(0.0, 1.0), s_max=2.0)
        with pytest.raises(IntegrationError) as exc:
            poincare_return(field, section, 1.0)
        assert exc.value.last_state is not None
        assert exc.value.last_state[0] > 100.0
        assert 1.9 <= exc.value.last_time <= 2.1

    def test_parameter_out_of_range(self, radial_half, x_axis_section):
        with pytest.raises(ValueError):
            poincare_return(radial_half, x_axis_section, 1.5)

    def test_never_returning_flow(self):
        # constant drift never re-crosses a section it leaves
        drift = VectorField2(BiPoly({(0, 0): 1}), BiPoly())
        section = Section(base=(0.0, -1.0), direction=(0.0, 1.0), s_max=2.0)
        with pytest.raises(NoReturnError, match="t_max=200.0"):
            poincare_return(drift, section, 1.0)

    def test_tangent_start_rejected(self):
        drift = VectorField2(BiPoly({(0, 0): 1}), BiPoly())
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        with pytest.raises(DegenerateCrossingError):
            poincare_return(drift, section, 0.5)

    def test_collapsing_step_runs_out_of_budget(self, radial_half, x_axis_section, monkeypatch, wall_bound):
        # a return whose step size collapses (2.1e5 steps of 1.5e-10 in one
        # return at m = 32, with Horner on the monomials of T_32) ends at the
        # step budget, not at t_max = 200, which steps of 1e-12 never reach
        class Collapsing(DOP853):
            def step(self):
                self.t_old, self.y_old, self.w_old = self.t, self.y, self.w
                self.t += 1e-12

        monkeypatch.setattr(dynamics, "RK45", Collapsing)
        start = time.perf_counter()
        with wall_bound(1.0), pytest.raises(NoReturnError, match=f"within {DynamicsConfig.max_steps} RK steps$"):
            poincare_return(radial_half, x_axis_section, 0.3)
        assert time.perf_counter() - start < 1.0


class TestFindCycle:
    def test_seed_cycle(self, base_cycle):
        assert abs(math.hypot(*base_cycle.anchor) - 0.5) <= 1e-8
        assert abs(base_cycle.period - 2 * math.pi) <= 1e-6
        assert abs(base_cycle.multiplier - EXP_MINUS_PI) <= 1e-4
        assert base_cycle.certified

    def test_seed_cycle_from_far_start(self, radial_half, x_axis_section):
        rec = find_cycle(radial_half, x_axis_section, 0.85)
        assert abs(math.hypot(*rec.anchor) - 0.5) <= 1e-8
        assert rec.certified

    def test_center_not_certified(self, x_axis_section):
        rec = find_cycle(ROTATION, x_axis_section, 0.7)
        assert not rec.certified
        assert abs(rec.multiplier - 1.0) <= 1e-6

    def test_larger_radius_multiplier(self):
        field = radial_cubic_field(Fraction(4, 5))
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        rec = find_cycle(field, section, 0.8)
        assert abs(rec.multiplier - math.exp(-4 * math.pi * 0.64)) <= 1e-4

    def test_iteration_budget_exhausted(self, monkeypatch):
        # a return map whose residual never shrinks: the search gives up
        # after its max_iters + 1 returns
        calls = []

        def never_closes(field, section, s):
            calls.append(s)
            return s + 1e-3, 1.0, 0.5

        monkeypatch.setattr(dynamics, "poincare_return", never_closes)
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        with pytest.raises(CycleSearchError, match="no fixed point after 40 iterations"):
            find_cycle(ROTATION, section, 0.05)
        assert len(calls) == DynamicsConfig.max_iters + 1 == 41

    def test_return_outside_section_range(self):
        # cycle sits at r = 0.8 but the section stops at 0.5: the orbit
        # re-crosses the supporting line beyond the segment, never on it,
        # and the return gives up after max_off_crossings + 1 such turns
        field = radial_cubic_field(Fraction(4, 5))
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=0.5)
        with pytest.raises(NoReturnError, match="crossed its line off the segment 9 times"):
            find_cycle(field, section, 0.3)


    def test_start_where_newton_points_at_the_equilibrium(self):
        # at rho = 1/3 the return map's slope is 1.025 at s = 0.144, so
        # Newton would step 3.5 toward the repelling focus at s = 0; the
        # step leaves the trust radius and the search follows the flow out
        rho = Fraction(1, 3)
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        rec = find_cycle(radial_cubic_field(rho), section, 0.1444)
        assert rec.certified
        assert abs(rec.anchor[0] - 1 / 3) <= 1e-8

    def test_start_inward_of_repelling_cycle_misses_fast(self):
        # 7% inward of the repelling cycle of rectangle (1, 2) of m = 3 at
        # rho = 1/2, one return carries the start 40% of the section
        # inward.  Newton's step from there crosses the cycle, outside of
        # which the flow never returns, so a time budget alone would run
        # to t_max = 200; following the flow misses within one return,
        # which gives up after 9 turns off the segment (0.01 s on a 2-core
        # x86-64 host)
        rho = Fraction(1, 2)
        pb = build_pullback(radial_cubic_field(rho), chebyshev(3))
        sec, half = rectangle_section(pb, 3, 1, 2, (float(rho), 0.0))
        start = time.perf_counter()
        with pytest.raises(NoReturnError):
            find_cycle(pb.field, sec, half * (1 - 0.07))
        assert time.perf_counter() - start < 3.0

    @staticmethod
    def count_returns(monkeypatch) -> list:
        calls = []

        def counting(field, section, s):
            calls.append(s)
            return poincare_return(field, section, s)

        monkeypatch.setattr(dynamics, "poincare_return", counting)
        return calls

    def test_far_start_jumps_to_the_return(self, monkeypatch):
        # 0.9 of the way along, the start is beyond the trust radius of the
        # cycle at 1/3: each return lands almost on the attracting cycle,
        # so the search moves to it rather than 0.1 s_max toward it
        calls = self.count_returns(monkeypatch)
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        rec = find_cycle(radial_cubic_field(Fraction(1, 3)), section, 0.9)
        assert rec.certified and abs(rec.anchor[0] - 1 / 3) <= 1e-8
        assert len(calls) <= 6

    def test_far_start_in_a_rectangle_jumps_to_the_return(self, monkeypatch):
        rho = Fraction(2, 3)
        pb = build_pullback(radial_cubic_field(rho), chebyshev(3))
        sec, half = rectangle_section(pb, 3, 1, 1, (float(rho), 0.0))
        calls = self.count_returns(monkeypatch)
        rec = find_cycle(pb, sec, half * 1.87)
        assert rec.certified
        assert math.dist(rec.anchor, sec.point_at(half)) <= 1e-8
        assert len(calls) <= 4

    def test_reversed_rectangle_from_near_start(self):
        # the lifted cycle of the orientation-reversed rectangle (1, 2) of
        # m = 3 at rho = 2/3 repels by exp(4 pi rho^2) = 266.4 per turn;
        # a start 2e-5 of the half-length outward must still converge
        rho = Fraction(2, 3)
        pb = build_pullback(radial_cubic_field(rho), chebyshev(3))
        sec, half = rectangle_section(pb, 3, 1, 2, (float(rho), 0.0))
        rec = find_cycle(pb.field, sec, half * (1 + 2e-5))
        want = math.exp(4 * math.pi * float(rho) ** 2)
        assert rec.certified
        assert abs(rec.multiplier - want) <= 1e-5 * want
        assert math.dist(rec.anchor, sec.point_at(half)) <= 1e-8

    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("inward", [0.714, 0.728, 0.74])
    def test_start_past_pulled_back_equilibrium(self, factored, inward):
        # in rectangle (5, 3) of m = 5 at rho = 1/3, a start 70-78% inward
        # lies past the pulled-back equilibrium (T_5(u), T_5(v)) = (0, 0) at
        # the rectangle's centre, a repelling focus whose returns close in
        # on it; it must not be certified as a cycle.  From 74% Newton lands
        # on it and the start of the next return is tangent; from 71.4% and
        # 72.8% it stops within eps_fix of it, where the field turns
        # tangent to the section inside the fixed point's Newton bound.
        rho = Fraction(1, 3)
        pb = build_pullback(radial_cubic_field(rho), chebyshev(5))
        sec, half = rectangle_section(pb, 5, 5, 3, (float(rho), 0.0))
        with pytest.raises(DegenerateCrossingError):
            find_cycle(pb if factored else pb.field, sec, half * (1 - inward))


class TestSection:
    def test_direction_normalized(self):
        sec = Section(base=(0.0, 0.0), direction=(3.0, 4.0), s_max=1.0)
        assert math.hypot(*sec.direction) == pytest.approx(1.0, abs=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Section(base=(0.0, 0.0), direction=(0.0, 0.0), s_max=1.0)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=0.0)


@pytest.fixture(scope="module")
def lifted_m3(pullback_m3, base_cycle):
    return lift_cycles(pullback_m3, base_cycle, 3)


class TestLiftCycles:
    def test_nine_records_one_per_rectangle(self, lifted_m3):
        assert len(lifted_m3) == 9
        assert {(r.rect.i, r.rect.j) for r in lifted_m3} == {
            (i, j) for i in (1, 2, 3) for j in (1, 2, 3)
        }
        assert all(r.certified for r in lifted_m3)

    def test_anchors_inside_rectangles_with_margin(self, lifted_m3):
        for r in lifted_m3:
            assert r.rect.contains(r.anchor, DEFAULT_CONFIG.margin)
            assert r.rect.boundary_distance(r.anchor) >= DEFAULT_CONFIG.margin

    def test_orientation_flag_matches_branch_parity(self, lifted_m3):
        # derived from the rect, not stored: no field, and False without one
        assert "orientation_reversed" not in {f.name for f in fields(LimitCycleRecord)}
        for r in lifted_m3:
            lam_negative = (r.rect.i + r.rect.j) % 2 == 1
            assert r.orientation_reversed == lam_negative
            assert replace(r, rect=None).orientation_reversed is False

    def test_multipliers_follow_time_change_sign(self, lifted_m3):
        for r in lifted_m3:
            target = EXP_PLUS_PI if r.orientation_reversed else EXP_MINUS_PI
            assert abs(r.multiplier - target) / target <= 1e-3

    def test_certified_records_clear_hyperbolicity_margin(self, lifted_m3):
        for r in lifted_m3:
            assert abs(r.multiplier - 1.0) > DEFAULT_CONFIG.eps_hyp

    def test_multiplier_inversion_pairs(self, lifted_m3):
        plus = [r.multiplier for r in lifted_m3 if not r.orientation_reversed]
        minus = [r.multiplier for r in lifted_m3 if r.orientation_reversed]
        assert len(plus) == 5 and len(minus) == 4
        for mu_minus in minus:
            for mu_plus in plus:
                assert abs(mu_minus * mu_plus - 1.0) <= 5e-3

    def test_anchors_on_implicit_curve(self, lifted_m3):
        curve = implicit_lift_curve(3, Fraction(1, 2))
        for r in lifted_m3:
            assert abs(curve.evaluate_float(*r.anchor)) <= 1e-6

    def test_anchor_projects_to_base_anchor(self, lifted_m3, base_cycle):
        t3 = chebyshev(3)
        for r in lifted_m3:
            x = exact_float(t3, r.anchor[0])
            y = exact_float(t3, r.anchor[1])
            assert abs(x - base_cycle.anchor[0]) <= 1e-6
            assert abs(y - base_cycle.anchor[1]) <= 1e-6

    def test_time_change_invariance_on_cycle(self, pullback_m3, lifted_m3):
        # the image of each lifted cycle under the cover map stays on r = 1/2
        t3 = chebyshev(3)
        for r in lifted_m3[::4]:
            for u, v in integrate(pullback_m3.field, r.anchor, r.period, 200, tol=1e-10):
                radius = math.hypot(exact_float(t3, u), exact_float(t3, v))
                assert abs(radius - 0.5) <= 1e-5

    def test_time_change_invariance_off_cycle(self, pullback_m3, lifted_m3):
        # a pushed-forward non-periodic trajectory follows the radial
        # oracle's monotone envelope on a lambda > 0 rectangle
        t3 = chebyshev(3)
        center = next(r for r in lifted_m3 if (r.rect.i, r.rect.j) == (2, 2))
        start = (center.anchor[0] + 0.02, center.anchor[1])
        r0 = math.hypot(exact_float(t3, start[0]), exact_float(t3, start[1]))
        radii = [
            math.hypot(exact_float(t3, u), exact_float(t3, v))
            for u, v in integrate(pullback_m3.field, start, 3.0, 300, tol=1e-10)
        ]
        lo, hi = min(0.5, r0) - 1e-5, max(0.5, r0) + 1e-5
        assert all(lo <= rad <= hi for rad in radii)
        assert abs(radii[-1] - 0.5) < abs(radii[0] - 0.5) + 1e-9

    def test_integrate_and_find_cycle_take_a_pullback(self, pullback_m3, lifted_m3):
        r = next(r for r in lifted_m3 if (r.rect.i, r.rect.j) == (2, 2))
        end = integrate(pullback_m3, r.anchor, r.period, 1, tol=1e-10)[-1]
        assert math.dist(end, r.anchor) <= 1e-7
        expanded = integrate(pullback_m3.field, r.anchor, r.period, 1, tol=1e-10)[-1]
        assert math.dist(end, expanded) <= 1e-8
        fu, fv, _ = field_rhs(pullback_m3)(*r.anchor)
        d = (-fv / math.hypot(fu, fv), fu / math.hypot(fu, fv))
        half = 0.01
        base = (r.anchor[0] - half * d[0], r.anchor[1] - half * d[1])
        sec = Section(base=base, direction=d, s_max=2 * half)
        rec = find_cycle(pullback_m3, sec, 1.3 * half)
        assert rec.certified
        assert math.dist(rec.anchor, r.anchor) <= 1e-7
        assert abs(rec.period - r.period) <= 1e-6
        assert abs(rec.multiplier - r.multiplier) <= 1e-5

    def test_four_records_for_m2(self, radial_half, base_cycle):
        pb = build_pullback(radial_half, chebyshev(2))
        recs = lift_cycles(pb, base_cycle, 2)
        assert len(recs) == 4
        assert all(r.certified for r in recs)

    def test_each_branch_inverted_once(self, monkeypatch, pullback_m3, base_cycle, lifted_m3):
        # the m^2 seeds share 2m coordinates: branch i of the anchor's u
        # and branch j of its v
        calls = []

        def counted(m, k, y):
            calls.append((k, y))
            return branch_inverse(m, k, y)

        monkeypatch.setattr(dynamics, "branch_inverse", counted)
        records = lift_cycles(pullback_m3, base_cycle, 3)
        assert len(calls) == 6
        assert [repr(r) for r in records] == [repr(r) for r in lifted_m3]

    def test_determinism(self, pullback_m3, base_cycle):
        a = lift_cycles(pullback_m3, base_cycle, 3)
        b = lift_cycles(pullback_m3, base_cycle, 3)
        assert a == b

    def test_preconditions(self, pullback_m3, base_cycle):
        with pytest.raises(ValueError):
            lift_cycles(pullback_m3, base_cycle, 2)  # m mismatch
        uncertified = replace(base_cycle, certified=False)
        msg = "base cycle not certified hyperbolic: multiplier 0.0432139183 within eps_hyp=0.001 of 1"
        with pytest.raises(CycleSearchError, match=f"^{re.escape(msg)}$"):
            lift_cycles(pullback_m3, uncertified, 3)
        outside = replace(base_cycle, anchor=(1.5, 0.0))
        with pytest.raises(ValueError):
            lift_cycles(pullback_m3, outside, 3)

    def test_non_chebyshev_cover_rejected(self, radial_half, base_cycle):
        pb = build_pullback(radial_half, UniPoly((0, 0, 1)))  # x^2 cover
        with pytest.raises(ValueError):
            lift_cycles(pb, base_cycle, 2)


class TestLiftLargeCover:
    # wall bounds are about 5x the measured lift (2.3, 2.3 and 3.7 s with
    # scipy's stepper, 2.5 s at m = 12 with the in-module RK45; 0.15, 0.13,
    # 0.24 and 0.40 s with DOP853, on a 2-core x86 host): a lift that stalls
    # or wanders is caught, not waited on.  At m = 10 and 12 trial stages
    # overflow on the degree-39 and degree-47 fields; the stepper must
    # reject them without a numeric warning.
    @pytest.mark.parametrize("m, wall_s", [(7, 12.0), (8, 12.0), (10, 18.0), (12, 12.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_rectangle_certified(self, radial_half, base_cycle, m, wall_s):
        pb = build_pullback(radial_half, chebyshev(m))
        start = time.perf_counter()
        records = lift_cycles(pb, base_cycle, m)
        elapsed = time.perf_counter() - start
        assert len(records) == m * m and all(r.certified for r in records)
        for r in records:
            target = EXP_PLUS_PI if r.orientation_reversed else EXP_MINUS_PI
            assert abs(r.multiplier - target) / target <= 1e-3
        assert elapsed < wall_s

    # the multiplier gate: every lifted multiplier within 1e-5 of
    # exp(-+4 pi rho^2) (measured worst 3.9e-7, at rho = 3/5, m = 12); wall
    # bounds are about 5x the measured 0.3-0.6 s at m = 8 and 0.7-1.2 s at
    # m = 12 on a 2-core x86 host (0.15-0.20 s and 0.34-0.55 s with DOP853)
    @pytest.mark.parametrize("m, wall_s", [(8, 3.0), (12, 6.0)])
    @pytest.mark.parametrize("rho", ["1/3", "2/5", "1/2", "3/5", "2/3"])
    def test_multipliers_within_1e_5(self, rho, m, wall_s):
        rho = Fraction(rho)
        X = radial_cubic_field(rho)
        base = find_cycle(X, Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0), float(rho))
        pb = build_pullback(X, chebyshev(m))
        start = time.perf_counter()
        records = lift_cycles(pb, base, m)
        elapsed = time.perf_counter() - start
        assert len(records) == m * m and all(r.certified for r in records)
        mu = math.exp(-4 * math.pi * float(rho) ** 2)
        for r in records:
            target = 1 / mu if r.orientation_reversed else mu
            assert abs(r.multiplier - target) <= 1e-5 * target
        assert elapsed < wall_s

    # the seed guard is in rectangle units: edge branches are about 4.9/m^2
    # wide, and an absolute 1e-3 turned away 32 of the 256 seeds at m = 16
    # (rho in {1/2, 2/3, 3/4}).  Wall bounds are about 5x the measured 0.42,
    # 0.35, 0.58 and 1.37 s on a 2-core x86 host; worst errors 4.2e-7,
    # 8.7e-7, 8.1e-7 and 2.3e-6
    @pytest.mark.parametrize("m, rho, wall_s", [
        (16, "1/2", 3.0), (16, "2/3", 3.0), (16, "3/4", 3.0), (22, "1/2", 7.0),
    ])
    def test_narrow_edge_rectangles_certified(self, m, rho, wall_s):
        rho = Fraction(rho)
        X = radial_cubic_field(rho)
        base = find_cycle(X, Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0), float(rho))
        pb = build_pullback(X, chebyshev(m))
        start = time.perf_counter()
        records = lift_cycles(pb, base, m)
        elapsed = time.perf_counter() - start
        assert len(records) == m * m and all(r.certified for r in records)
        assert all(r.rect.contains(r.anchor, DynamicsConfig.margin) for r in records)
        mu = math.exp(-4 * math.pi * float(rho) ** 2)
        for r in records:
            target = 1 / mu if r.orientation_reversed else mu
            assert abs(r.multiplier - target) <= 1e-5 * target
        assert elapsed < wall_s

    # the cover as its prime-factor chain (Horner on the monomials of T_m
    # took 5.6 s at m = 24, 30 rectangles finding no fixed point, and hung
    # at m = 32): 0.30 and 0.56 s measured on a 2-core x86 host.  The
    # rectangles that fail are all turned away by the absolute anchor
    # margin, 1e-3 where a corner rectangle is 4.8e-3 wide at m = 32
    @pytest.mark.parametrize("m, failed", [(24, 48), (32, 64)])
    def test_factor_chain_reaches_m_32(self, radial_half, base_cycle, wall_bound, m, failed):
        pb = build_pullback(radial_half, chebyshev(m))
        with wall_bound(5.0), pytest.raises(LiftError) as exc:
            lift_cycles(pb, base_cycle, m)
        records = exc.value.records
        assert len(exc.value.failures) == failed and len(records) == m * m - failed
        assert all(str(err) == "lifted anchor left its branch rectangle" for _, _, err in exc.value.failures)
        for r in records.values():
            target = EXP_PLUS_PI if r.orientation_reversed else EXP_MINUS_PI
            assert r.certified and abs(r.multiplier - target) <= 1e-5 * target


def radial_half_tilted() -> VectorField2:
    """The radial seed at rho = 1/2 plus 1/50 + x^2/20 in P and xy/30 in Q:
    no symmetry, its cycle certified through (0.5112, 0)."""
    X = radial_cubic_field(Fraction(1, 2))
    return VectorField2(X.p_comp + BiPoly({(0, 0): Fraction(1, 50), (2, 0): Fraction(1, 20)}),
                        X.q_comp + BiPoly({(1, 1): Fraction(1, 30)}))


class TestMirroredLift:
    """For even m the pullback is odd and branch m + 1 - k mirrors branch
    k, so `lift_cycles` searches rows 1..m/2 and gives each rectangle
    (i, j) of the others its mirror's record negated, or its error."""

    def test_pullback_of_an_even_cover_is_odd_to_the_bit(self):
        # T_2 is even and T_2' = 4u odd to the bit, and every later factor
        # of the chain reads T_2's value, so for any seed Y(-z) = -Y(z) as
        # floats: lanes 0 and 1 negated, the divergence the same.  At the
        # four signed zeros the lanes are zeros whose sign the writer's
        # `+ 0.0` steps do not carry, so they compare equal as numbers
        rng = random.Random(48)
        for m in range(2, 129, 2):
            rhs = field_rhs(PullbackResult(field=None, cover_poly=chebyshev(m), source=DENSE_CUBIC))
            for u, v in [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(50)]:
                a, b, c = rhs(u, v)
                assert hexes(rhs(-u, -v)) == hexes((-a, -b, c)), (m, u, v)
            for u, v in [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]:
                a, b, c = rhs(u, v)
                assert rhs(-u, -v) == (-a, -b, c), (m, u, v)

    @pytest.mark.parametrize("m, searches", [(2, 2), (3, 9), (4, 8), (5, 25), (6, 18), (8, 32), (16, 128)])
    def test_even_m_searches_half_the_rectangles(self, monkeypatch, radial_half, base_cycle, m, searches):
        calls = []

        def counted(field, section, s0):
            calls.append(s0)
            return find_cycle(field, section, s0)

        monkeypatch.setattr(dynamics, "find_cycle", counted)
        records = lift_cycles(build_pullback(radial_half, chebyshev(m)), base_cycle, m)
        assert len(records) == m * m and all(r.certified for r in records)
        assert len(calls) == searches

    @staticmethod
    def outcomes(pb, base, m) -> dict:
        """(i, j) -> the lift's record, or its error, in each rectangle."""
        try:
            return {(r.rect.i, r.rect.j): r for r in lift_cycles(pb, base, m)}
        except LiftError as err:
            return {**err.records, **{(i, j): e for i, j, e in err.failures}}

    @pytest.mark.parametrize("seed, m, failed", [
        *[(rho, m, 0) for rho in ("1/3", "1/2", "2/3") for m in (2, 4, 6, 8, 12, 16)],
        ("1/2", 24, 48),
        *[("tilted", m, 0) for m in (2, 4, 6, 8)],
    ])
    def test_mirrored_rectangle_is_the_search_from_the_negated_seed(self, seed, m, failed):
        # each rectangle of rows m/2 + 1..m, searched from the negation of
        # its mirror's seed (the lift's own seed there), gives the lift's
        # record by float.hex, or its error's message; at m = 24 the 48
        # failures are the anchor margin's
        X = radial_half_tilted() if seed == "tilted" else radial_cubic_field(Fraction(seed))
        start = 0.5 if seed == "tilted" else float(Fraction(seed))
        base = find_cycle(X, Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0), start)
        assert base.certified
        pb = build_pullback(X, chebyshev(m))
        lifted = self.outcomes(pb, base, m)
        assert sum(isinstance(r, DynamicsError) for r in lifted.values()) == failed
        intervals = cheb_branches(m).intervals

        def seed_of(k: int, c: float) -> float:  # the lift's seed on branch k
            return branch_inverse(m, k, c) if 2 * k <= m else -branch_inverse(m, m + 1 - k, c)

        for i in range(m // 2 + 1, m + 1):
            for j in range(1, m + 1):
                rect = BranchRectangle(i, j, intervals[i - 1], intervals[j - 1])
                mirror_seed = (seed_of(m + 1 - i, base.anchor[0]), seed_of(m + 1 - j, base.anchor[1]))
                want = lifted[(i, j)]
                try:
                    got = dynamics._lift_rect(pb, rect, (-mirror_seed[0], -mirror_seed[1]))
                except DynamicsError as err:
                    assert isinstance(want, DynamicsError) and str(err) == str(want), (i, j)
                    continue
                assert not isinstance(want, DynamicsError), (i, j, want)
                assert got.rect == want.rect and got.certified == want.certified
                assert hexes([*got.anchor, got.period, got.multiplier]) == hexes(
                    [*want.anchor, want.period, want.multiplier]), (i, j)


class TestImplicitCurve:
    def test_m2_by_hand(self):
        got = implicit_lift_curve(2, Fraction(1, 2))
        t2u = BiPoly.from_uni(chebyshev(2), 0)
        t2v = BiPoly.from_uni(chebyshev(2), 1)
        assert got == t2u * t2u + t2v * t2v + BiPoly({(0, 0): Fraction(-1, 4)})

    def test_vanishes_at_lifted_seed_point(self):
        curve = implicit_lift_curve(3, Fraction(1, 2))
        u = branch_inverse(3, 1, 0.5)
        v = branch_inverse(3, 2, 0.0)
        assert abs(curve.evaluate_float(u, v)) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            implicit_lift_curve(1, Fraction(1, 2))
        with pytest.raises(ValueError):
            implicit_lift_curve(3, Fraction(3, 2))


class TestRecordSerialization:
    def test_csv_shape(self, lifted_m3):
        text = records_to_csv(lifted_m3)
        lines = text.strip().splitlines()
        assert lines[0] == "i,j,anchor_u,anchor_v,period,multiplier,orientation_reversed"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert first[6] in ("true", "false")
