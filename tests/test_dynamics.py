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
from cyclerep.pullback import build_pullback

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


def composed_magnitude(pb, src: BiPoly, u: float, v: float) -> float:
    """Rounding-error scale of S(p(u), p(v)): S's sum |term|, plus the
    cover's carried through dS/dx and dS/dy (first order)."""
    p = pb.cover_poly
    x, y = p.evaluate_float(u), p.evaluate_float(v)
    return (
        abs_term_sum(src, x, y)
        + abs_term_sum(src.partial_u(), x, y) * uni_abs_term_sum(p, u)
        + abs_term_sum(src.partial_v(), x, y) * uni_abs_term_sum(p, v)
    )


def factored_magnitude(pb, k: int, u: float, v: float) -> float:
    """Rounding-error scale of RHS component k evaluated through its
    factors, d * S(x, y) with x = p(u), y = p(v), (d, S) = (p'(v), P) or
    (p'(u), Q): each factor's sum |term|."""
    p, dp = pb.cover_poly, pb.cover_poly.derivative()
    src = (pb.source.p_comp, pb.source.q_comp)[k]
    w = (v, u)[k]
    x, y = p.evaluate_float(u), p.evaluate_float(v)
    return (
        abs(dp.evaluate_float(w)) * composed_magnitude(pb, src, u, v)
        + uni_abs_term_sum(dp, w) * abs(src.evaluate_float(x, y))
    )


def divergence(field: VectorField2) -> BiPoly:
    return field.p_comp.partial_u() + field.q_comp.partial_v()


def divergence_magnitude(pb, u: float, v: float) -> float:
    """Rounding-error scale of the factored divergence
    p'(u) p'(v) (div X)(x, y): each factor's sum |term|."""
    p, dp = pb.cover_poly, pb.cover_poly.derivative()
    div_x = divergence(pb.source)
    du, dv = dp.evaluate_float(u), dp.evaluate_float(v)
    x, y = p.evaluate_float(u), p.evaluate_float(v)
    return abs(du * dv) * composed_magnitude(pb, div_x, u, v) + (
        uni_abs_term_sum(dp, u) * abs(dv) + abs(du) * uni_abs_term_sum(dp, v)
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

    def test_no_degree_limit(self):
        # the m = 30 pullback of the cubic seed has total degree 119
        pb = build_pullback(radial_cubic_field(Fraction(1, 2)), chebyshev(30))
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

    def test_rhs_state_type_does_not_change_values(self, pullback_m3):
        # expanded and factored RHS alike
        for rhs in (field_rhs(pullback_m3.field), field_rhs(pullback_m3)):
            for z in [(0.31, -0.27), (-0.93, 0.88), (0.0, 0.5)]:
                from_tuple = rhs(0.0, z)
                from_array = rhs(0.0, np.array(z))
                assert all(type(x) is float for x in from_tuple + from_array)
                assert from_tuple == from_array


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

        # every exact polynomial is made by its constructor's __post_init__
        for cls in (BiPoly, UniPoly):
            monkeypatch.setattr(cls, "__post_init__", rebuilt)
        for field, first in zip(cases, firsts):
            again = field_rhs(field)
            for z in [(0.31, -0.27), (-0.93, 0.88)]:
                assert again(0.0, z) == first(0.0, z)


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
            got = rhs(0.0, (u, v))
            for k, comp in enumerate((pb.field.p_comp, pb.field.q_comp)):
                exact = comp.evaluate(Fraction(u), Fraction(v))
                assert abs(Fraction(got[k]) - exact) <= 1e-12 * factored_magnitude(pb, k, u, v)

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
            got = rhs(0.0, (u, v))[2]
            assert abs(Fraction(got) - exact) <= 1e-12 * divergence_magnitude(pb, u, v)

    @pytest.mark.parametrize("field", ["seed", "dense", "m3"])
    def test_expanded_field_divergence(self, radial_half, pullback_m3, field):
        X = {"seed": radial_half, "dense": DENSE_CUBIC, "m3": pullback_m3.field}[field]
        rhs = field_rhs(X)
        exact_div = divergence(X)
        rng = random.Random(7)
        for _ in range(20):
            u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            exact = exact_div.evaluate(Fraction(u), Fraction(v))
            got = rhs(0.0, (u, v))[2]
            assert abs(Fraction(got) - exact) <= 1e-14 * abs_term_sum(exact_div, u, v)


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

    def test_bad_tol_rejected(self, radial_half):
        with pytest.raises(ValueError):
            integrate(radial_half, (0.5, 0.0), 1.0, 1, tol=0.0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_sample_interval_rejected(self, radial_half, n):
        with pytest.raises(ValueError, match="n >= 1"):
            integrate(radial_half, (0.5, 0.0), 1.0, n)


RTOL, ATOL = 1e-10, 1e-12


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
    """The RHS without its divergence: the ODE scipy's DOP853 integrates."""
    return lambda t, z: rhs(t, z)[:2]


def copy_state(ours: DOP853, theirs) -> None:
    ours.t, ours.h_abs = float(theirs.t), float(theirs.h_abs)
    ours.y = (float(theirs.y[0]), float(theirs.y[1]))
    # the divergence at y, which only the w lane reads
    ours.f = (float(theirs.f[0]), float(theirs.f[1]), ours.fun(ours.t, ours.y)[2])


@pytest.fixture
def trials(monkeypatch):
    """Every trial step the stepper makes, as (t, y, h, stages), in order."""
    made = []

    def recording(fun, t, y, h, K, rows):
        K = _stages(fun, t, y, h, K, rows)
        if rows is dynamics._A:  # a trial, not an interpolant's extra stages
            made.append((t, y, h, list(K)))
        return K

    _stages = dynamics._stages
    monkeypatch.setattr(dynamics, "_stages", recording)
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
    _, y, h, K = trial
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
    pad = float(gamma(8))
    for i, trial in enumerate(trials):
        t, _, h, _ = trial
        y_new, y_err, (err_lo, err_hi) = exact_trial(solver, trial)
        rejected = i + 1 < len(trials)
        lo, hi = (h * factor(err, rejected, i > 0) * (1 + p) for err, p in ((err_hi, -pad), (err_lo, pad)))
        if rejected:  # the next trial's length, clipped at t_bound
            lo, hi = (min(t + x, solver.t_bound) - t for x in (lo, hi))
            assert lo <= trials[i + 1][2] <= hi
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
        ours = DOP853(rhs, 0.0, z0, 5.0, RTOL, ATOL)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 5.0, rtol=RTOL, atol=ATOL)
        assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-14)

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_one_step_from_shared_state(self, radial_half, case, trials):
        rhs, z0 = stepper_case(radial_half, case)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 20.0, rtol=RTOL, atol=ATOL)
        ours = DOP853(rhs, 0.0, z0, 20.0, RTOL, ATOL)
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
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 20.0, rtol=RTOL, atol=ATOL)
        ours = DOP853(rhs, 0.0, z0, 20.0, RTOL, ATOL)
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
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 20.0, rtol=RTOL, atol=ATOL)
        ours = DOP853(rhs, 0.0, z0, 20.0, RTOL, ATOL)
        theirs.h_abs = ours.h_abs = 1e3
        with np.errstate(over="ignore", invalid="ignore"):
            theirs.step()
        ours.step()
        assert trials[0][2] == 20.0 and trials[1][2] == 4.0
        assert_controller_exact(ours, trials)
        assert ours.t == pytest.approx(theirs.t, rel=1e-9)

    @pytest.mark.parametrize("case, t_bound", [("seed", 20.0), ("m3", 5.0), ("m8", 1.5)])
    def test_whole_run_takes_the_same_steps(self, radial_half, case, t_bound):
        floor = {"seed": 30, "m3": 90, "m8": 180}[case]  # about half the 67, 179 and 361 steps
        rhs, z0 = stepper_case(radial_half, case)
        ours = DOP853(rhs, 0.0, z0, t_bound, RTOL, ATOL)
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), t_bound, rtol=RTOL, atol=ATOL)
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
        theirs = ScipyDOP853(state_lanes(rhs), 0.0, np.array(z0), 5.0, rtol=RTOL, atol=ATOL)
        ours = DOP853(rhs, 0.0, z0, 5.0, RTOL, ATOL)
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
        sec = dynamics._section_through(z0, field_rhs(field)(0.0, z0)[:2], 0.02)
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
        with pytest.raises(DynamicsError, match=re.escape(f"did not converge in 100 iterations (last x={last!r})")):
            brentq(f, 0.0, 4.0)

    def test_lift_records_a_refinement_that_does_not_converge(self, monkeypatch, radial_half, base_cycle):
        def stalled(f, a, b):
            raise DynamicsError("Brent's method did not converge in 100 iterations")

        monkeypatch.setattr(dynamics, "brentq", stalled)
        pb = build_pullback(radial_half, chebyshev(2))
        with pytest.raises(LiftError) as exc:
            lift_cycles(pb, base_cycle, 2)
        assert [(i, j) for i, j, _ in exc.value.failures] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert all("did not converge" in why for _, _, why in exc.value.failures)


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
            def __init__(self, fun, t0, y0, t_bound, rtol, atol):
                self.t, self.steps = t0, iter(pieces)

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

        def watched(t, z):
            value = rhs(t, z)
            overflows.append(not all(map(math.isfinite, value)))
            return value

        solver = DOP853(watched, 0.0, (0.5, 0.0), 1e61, RTOL, ATOL)
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

        def watched(t, z):
            value = rhs(t, z)
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
        monkeypatch.setattr(dynamics, "field_rhs", lambda field: lambda t, z: (math.nan, 0.0, 0.0))
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
        tol = DEFAULT_CONFIG.tol
        solver, ts = DOP853(field_rhs(radial_half), 0.0, (0.9, 0.0), 3.0, tol, tol * 1e-2), []
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

    def test_poincare_return_integrates_at_cfg_tol(self, radial_half, x_axis_section, seen):
        poincare_return(radial_half, x_axis_section, 0.8)
        default_steps = len(seen)
        seen.clear()
        poincare_return(radial_half, x_axis_section, 0.8, cfg=DynamicsConfig(tol=1e-6))
        assert 0 < len(seen) < default_steps


class TestSettableSurface:
    """The integration tolerance is the one value a caller sets; every
    other limit is a constant."""

    def test_config_has_only_tol(self):
        assert [f.name for f in fields(DynamicsConfig)] == ["tol"]
        assert DEFAULT_CONFIG.section_cap == 0.05 and DEFAULT_CONFIG.margin == DEFAULT_CONFIG.eps_hyp == 1e-3

    def test_fixed_limit_is_not_settable(self):
        with pytest.raises(TypeError):
            DynamicsConfig(margin=1e-6)

    def test_brentq_takes_no_tolerances(self):
        assert list(inspect.signature(brentq).parameters) == ["f", "a", "b"]

    @pytest.mark.parametrize("entry", [integrate, poincare_return, find_cycle])
    def test_rhs_comes_from_the_field_alone(self, entry):
        assert "rhs" not in inspect.signature(entry).parameters


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
        fu, fv, _ = field_rhs(pullback_m3)(0.0, seed)
        c, s = math.cos(math.radians(35)), math.sin(math.radians(35))
        nu, nv = -fv / math.hypot(fu, fv), fu / math.hypot(fu, fv)
        d = (c * nu - s * nv, s * nu + c * nv)
        base = (seed[0] - half * d[0], seed[1] - half * d[1])
        return Section(base=base, direction=d, s_max=2 * half)

    @pytest.mark.parametrize("frac", [0.3, 0.6, 1.4, 1.7])
    def test_slope_matches_central_difference_on_tilted_section(self, pullback_m3, frac):
        # points away from the fixed point.  The difference quotient divides
        # the returns' error by 2h, so they are taken at tol = 1e-13: at the
        # default tol it is noise (1.7e-8 off at frac = 0.6), at 1e-13 it
        # sits 1.1e-10 to 1.6e-9 from the slope
        sec, h = self.tilted_section(pullback_m3), 1e-6
        s0 = frac * 0.02
        r0, _, slope = poincare_return(pullback_m3, sec, s0)
        assert abs(r0 - s0) > 1e-4
        fine = DynamicsConfig(tol=1e-13)
        r_plus, _, _ = poincare_return(pullback_m3, sec, s0 + h, fine)
        r_minus, _, _ = poincare_return(pullback_m3, sec, s0 - h, fine)
        assert abs(slope - (r_plus - r_minus) / (2 * h)) <= 1e-8 * abs(slope)

    @pytest.mark.parametrize("frac", [0.3, 0.6, 1.4, 1.7])
    def test_slope_at_default_tol_matches_fine_tol_slope(self, pullback_m3, frac):
        # measured 2.2e-12 to 3.8e-11 (relative) off the tol = 1e-13 slope
        sec, s0 = self.tilted_section(pullback_m3), frac * 0.02
        _, _, slope = poincare_return(pullback_m3, sec, s0)
        _, _, fine = poincare_return(pullback_m3, sec, s0, DynamicsConfig(tol=1e-13))
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

        def never_closes(field, section, s, cfg):
            calls.append(s)
            return s + 1e-3, 1.0, 0.5

        monkeypatch.setattr(dynamics, "poincare_return", never_closes)
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        with pytest.raises(CycleSearchError, match="no fixed point after 40 iterations"):
            find_cycle(ROTATION, section, 0.05)
        assert len(calls) == DynamicsConfig.max_iters + 1 == 41

    def test_return_outside_section_range(self):
        # cycle sits at r = 0.8 but the section stops at 0.5: the orbit
        # re-crosses the supporting line beyond the segment, never on it
        field = radial_cubic_field(Fraction(4, 5))
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=0.5)
        with pytest.raises(NoReturnError):
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
        # which the flow runs t_max = 200 without a return (about 11 s);
        # following the flow misses within one return (about 0.3 s)
        rho = Fraction(1, 2)
        pb = build_pullback(radial_cubic_field(rho), chebyshev(3))
        sec, half = rectangle_section(pb, 3, 1, 2, (float(rho), 0.0))
        start = time.perf_counter()
        with pytest.raises(NoReturnError):
            find_cycle(pb.field, sec, half * (1 - 0.07))
        assert time.perf_counter() - start < 3.0

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


def rectangle_section(pb, m: int, i: int, j: int, anchor):
    """Section through the branch-wise inverse of `anchor` in rectangle
    (i, j), normal to the field, built as `lift_cycles` builds it; returns
    it with its half-length (the start of a lift's search)."""
    bset = cheb_branches(m)
    iu, iv = bset.intervals[i - 1], bset.intervals[j - 1]
    seed = (branch_inverse(m, i, anchor[0]), branch_inverse(m, j, anchor[1]))
    clearance = min(seed[0] - iu.lo, iu.hi - seed[0], seed[1] - iv.lo, iv.hi - seed[1])
    half = min(0.45 * clearance, DEFAULT_CONFIG.section_cap)
    return dynamics._section_through(seed, field_rhs(pb)(0.0, seed)[:2], half), half


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
            x = t3.evaluate_float(r.anchor[0])
            y = t3.evaluate_float(r.anchor[1])
            assert abs(x - base_cycle.anchor[0]) <= 1e-6
            assert abs(y - base_cycle.anchor[1]) <= 1e-6

    def test_time_change_invariance_on_cycle(self, pullback_m3, lifted_m3):
        # the image of each lifted cycle under the cover map stays on r = 1/2
        t3 = chebyshev(3)
        for r in lifted_m3[::4]:
            for u, v in integrate(pullback_m3.field, r.anchor, r.period, 200, tol=1e-10):
                radius = math.hypot(t3.evaluate_float(u), t3.evaluate_float(v))
                assert abs(radius - 0.5) <= 1e-5

    def test_time_change_invariance_off_cycle(self, pullback_m3, lifted_m3):
        # a pushed-forward non-periodic trajectory follows the radial
        # oracle's monotone envelope on a lambda > 0 rectangle
        t3 = chebyshev(3)
        center = next(r for r in lifted_m3 if (r.rect.i, r.rect.j) == (2, 2))
        start = (center.anchor[0] + 0.02, center.anchor[1])
        r0 = math.hypot(t3.evaluate_float(start[0]), t3.evaluate_float(start[1]))
        radii = [
            math.hypot(t3.evaluate_float(u), t3.evaluate_float(v))
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
        fu, fv, _ = field_rhs(pullback_m3)(0.0, r.anchor)
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
        with pytest.raises(ValueError):
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
