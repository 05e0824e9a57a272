import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import RK45 as ScipyRK45

from cyclerep import dynamics
from cyclerep.branches import branch_inverse
from cyclerep.dynamics import (
    DEFAULT_CONFIG,
    BranchRectangle,
    CycleSearchError,
    DegenerateCrossingError,
    DynamicsConfig,
    IntegrationError,
    LimitCycleRecord,
    NoReturnError,
    RK45,
    Section,
    compile_component,
    field_rhs,
    find_cycle,
    implicit_lift_curve,
    integrate,
    lift_cycles,
    poincare_return,
    radial_cubic_field,
    records_to_csv,
    records_to_json,
)
from cyclerep.polynomials import BiPoly, UniPoly, VectorField2, chebyshev
from cyclerep.pullback import build_pullback

ROTATION = VectorField2(BiPoly({(0, 1): 1}), BiPoly({(1, 0): -1}))
EXP_MINUS_PI = math.exp(-math.pi)
EXP_PLUS_PI = math.exp(math.pi)


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


def factored_magnitude(pb, k: int, u: float, v: float) -> float:
    """Rounding-error scale of RHS component k evaluated through its
    factors, d * S(x, y) with x = p(u), y = p(v), (d, S) = (p'(v), P) or
    (p'(u), Q): each factor's sum |term|, the cover's carried through
    dS/dx and dS/dy (first order)."""
    p, dp = pb.cover_poly, pb.cover_poly.derivative()
    src = (pb.source.p_comp, pb.source.q_comp)[k]
    w = (v, u)[k]
    x, y = p.evaluate_float(u), p.evaluate_float(v)
    inner = (
        abs_term_sum(src, x, y)
        + abs_term_sum(src.partial_u(), x, y) * uni_abs_term_sum(p, u)
        + abs_term_sum(src.partial_v(), x, y) * uni_abs_term_sum(p, v)
    )
    return abs(dp.evaluate_float(w)) * inner + uni_abs_term_sum(dp, w) * abs(src.evaluate_float(x, y))


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
        assert compile_component(BiPoly.zero())(0.4, -0.2) == 0.0

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


class TestIntegrate:
    def test_harmonic_rotation_period(self):
        traj = integrate(ROTATION, (1.0, 0.0), 2 * math.pi, tol=1e-10)
        end = traj.end_state
        assert abs(end[0] - 1.0) <= 1e-8 and abs(end[1]) <= 1e-8

    def test_cycle_is_invariant(self, radial_half):
        traj = integrate(radial_half, (0.5, 0.0), 2 * math.pi, tol=1e-10)
        end = traj.end_state
        assert abs(end[0] - 0.5) <= 1e-8 and abs(end[1]) <= 1e-8

    def test_attraction_to_cycle_with_radial_oracle(self, radial_half):
        traj = integrate(radial_half, (0.9, 0.0), 20.0, tol=1e-10)
        end = traj.end_state
        assert abs(math.hypot(*end) - 0.5) <= 1e-4
        # radius along the whole trajectory follows the closed form
        worst = 0.0
        for pt, t in zip(traj.sample(400), [20.0 * k / 400 for k in range(401)]):
            worst = max(worst, abs(math.hypot(pt[0], pt[1]) - radial_oracle(0.9, t, 0.5)))
        assert worst <= 1e-5

    def test_blowup_reports_last_state(self):
        # du/dt = u^2 from u=1 blows up at t = 1
        field = VectorField2(BiPoly({(2, 0): 1}), BiPoly.zero())
        with pytest.raises(IntegrationError) as exc:
            integrate(field, (1.0, 0.0), 2.0, tol=1e-10)
        assert exc.value.last_time is not None
        assert 0.9 <= exc.value.last_time <= 1.1
        assert exc.value.last_state[0] > 100.0

    def test_bad_tol_rejected(self, radial_half):
        with pytest.raises(ValueError):
            integrate(radial_half, (0.5, 0.0), 1.0, tol=0.0)


RTOL, ATOL = 1e-10, 1e-12


def stepper_case(radial_half, case):
    """(rhs, start) for the seed from its cycle, or for an m = 3 or m = 8
    pullback, through its factors, from the lifted cycle of an attracting
    rectangle; rounding differences decay on an attracting cycle, so two
    step sequences that differ in the last bits stay the same sequence."""
    if case == "seed":
        return field_rhs(radial_half), (0.5, 0.0)
    m, i, j = {"m3": (3, 2, 2), "m8": (8, 3, 5)}[case]
    pb = build_pullback(radial_half, chebyshev(m))
    return field_rhs(pb), (branch_inverse(m, i, 0.5), branch_inverse(m, j, 0.0))


def copy_state(ours: RK45, theirs) -> None:
    ours.t, ours.h_abs = float(theirs.t), float(theirs.h_abs)
    ours.y = (float(theirs.y[0]), float(theirs.y[1]))
    ours.f = (float(theirs.f[0]), float(theirs.f[1]))


class TestStepperAgainstScipy:
    # scipy's RK45 is the oracle here only; its sums run in BLAS, with fused
    # multiply-adds on some hosts, so steps agree to rounding, not bit for bit
    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_first_step_size(self, radial_half, case):
        rhs, z0 = stepper_case(radial_half, case)
        ours = RK45(rhs, 0.0, z0, 5.0, RTOL, ATOL)
        theirs = ScipyRK45(rhs, 0.0, np.array(z0), 5.0, rtol=RTOL, atol=ATOL)
        assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-14)

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_one_step_from_shared_state(self, radial_half, case):
        rhs, z0 = stepper_case(radial_half, case)
        theirs = ScipyRK45(rhs, 0.0, np.array(z0), 20.0, rtol=RTOL, atol=ATOL)
        ours = RK45(rhs, 0.0, z0, 20.0, RTOL, ATOL)
        retried = 0
        for _ in range(150):
            copy_state(ours, theirs)
            t, h_abs = ours.t, ours.h_abs
            ours.step()
            theirs.step()
            # the error estimate cancels to 1e-12 of the stages or less (to
            # rounding noise on the tiny first step), so the next step size,
            # through its 1/5 power, keeps fewer digits
            assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-3)
            if theirs.t != t + h_abs:  # a rejected trial: the retry shrinks by that power too
                retried += 1
                assert ours.t == pytest.approx(theirs.t, rel=1e-12)
                continue
            assert ours.t == theirs.t
            for k in range(2):
                assert abs(ours.y[k] - theirs.y[k]) <= 1e-14 * abs(theirs.y[k]) + 1e-300
        assert retried <= 5

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_step_after_rejected_trials(self, radial_half, case):
        rhs, z0 = stepper_case(radial_half, case)
        theirs = ScipyRK45(rhs, 0.0, np.array(z0), 20.0, rtol=RTOL, atol=ATOL)
        ours = RK45(rhs, 0.0, z0, 20.0, RTOL, ATOL)
        for _ in range(20):
            theirs.step()
        theirs.h_abs *= 100.0  # far too long: rejected until it fits
        copy_state(ours, theirs)
        t = ours.t
        ours.step()
        theirs.step()
        assert ours.t == pytest.approx(theirs.t, rel=1e-12)
        assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-3)
        assert ours.h_abs <= ours.t - t  # no growth right after a rejection

    @pytest.mark.parametrize("case, t_bound", [("seed", 20.0), ("m3", 5.0), ("m8", 1.5)])
    def test_whole_run_takes_the_same_steps(self, radial_half, case, t_bound):
        rhs, z0 = stepper_case(radial_half, case)
        ours = RK45(rhs, 0.0, z0, t_bound, RTOL, ATOL)
        theirs = ScipyRK45(rhs, 0.0, np.array(z0), t_bound, rtol=RTOL, atol=ATOL)
        n_ours = n_theirs = 0
        while ours.t < t_bound:
            ours.step()
            n_ours += 1
        while theirs.status == "running":
            theirs.step()
            n_theirs += 1
        assert n_ours == n_theirs > 600
        assert math.dist(ours.y, theirs.y) <= 1e-9

    @pytest.mark.parametrize("case", ["seed", "m3", "m8"])
    def test_dense_output_at_step_midpoints(self, radial_half, case):
        rhs, z0 = stepper_case(radial_half, case)
        theirs = ScipyRK45(rhs, 0.0, np.array(z0), 5.0, rtol=RTOL, atol=ATOL)
        ours = RK45(rhs, 0.0, z0, 5.0, RTOL, ATOL)
        for _ in range(50):
            copy_state(ours, theirs)
            ours.step()
            theirs.step()
            mid = 0.5 * (theirs.t_old + theirs.t)
            want = theirs.dense_output()(mid)
            for got in (ours.dense_output().at(mid), ours.dense_output()(mid)):
                for k in range(2):
                    assert abs(got[k] - want[k]) <= 1e-13 * abs(want[k]) + 1e-16

    def test_scipy_stepper_is_not_used(self):
        assert RK45.__module__ == "cyclerep.dynamics"
        assert not issubclass(RK45, ScipyRK45)


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

        solver = RK45(watched, 0.0, (0.5, 0.0), 1e61, RTOL, ATOL)
        solver.h_abs = 1e60
        solver.step()
        assert any(overflows)
        assert 0.0 < solver.t < 1.0
        assert abs(math.hypot(*solver.y) - 0.5) <= 1e-9

    def test_overflow_at_blowup_raises_integration_error(self):
        # du/dt = u^2 from u = 1e150 blows up at t = 1e-150, and the trial
        # stages near it overflow
        field = VectorField2(BiPoly({(2, 0): 1}), BiPoly.zero())
        rhs = field_rhs(field)
        overflowed = []

        def watched(t, z):
            value = rhs(t, z)
            overflowed.append(not math.isfinite(value[0]))
            return value

        with pytest.raises(IntegrationError) as exc:
            integrate(field, (1e150, 0.0), 1.0, rhs=watched)
        assert any(overflowed)
        assert 1e151 < exc.value.last_state[0] < math.inf
        assert exc.value.last_time == pytest.approx(1e-150, rel=1e-3)

    def test_nan_field_fails_instead_of_looping(self):
        # a field that is nan everywhere gives a nan first step
        with pytest.raises(IntegrationError):
            integrate(None, (0.5, 0.0), 1.0, rhs=lambda t, z: (math.nan, 0.0))


class TestStepperHook:
    """Each accepted step is one call of `RK45.step`, with RK45 looked up
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
        traj = integrate(radial_half, (0.9, 0.0), 3.0)
        assert seen == list(traj.ts[1:]) and len(seen) > 10

    def test_poincare_return_steps_are_seen(self, radial_half, x_axis_section, seen):
        _, flight = poincare_return(radial_half, x_axis_section, 0.8)
        assert len(seen) > 10
        assert all(a < b for a, b in zip(seen, seen[1:]))
        assert seen[-2] < flight <= seen[-1]


class TestPoincareReturn:
    def test_cycle_fixed_point(self, radial_half, x_axis_section):
        s1, t1 = poincare_return(radial_half, x_axis_section, 0.5)
        assert abs(s1 - 0.5) <= 1e-6
        assert abs(t1 - 2 * math.pi) <= 1e-6

    def test_center_return_is_identity(self, x_axis_section):
        s1, t1 = poincare_return(ROTATION, x_axis_section, 0.7)
        assert abs(s1 - 0.7) <= 1e-9
        assert abs(t1 - 2 * math.pi) <= 1e-8

    def test_contraction_matches_radial_oracle(self, radial_half, x_axis_section):
        s1, t1 = poincare_return(radial_half, x_axis_section, 0.8)
        assert 0.5 < s1 < 0.8
        assert abs(s1 - radial_oracle(0.8, 2 * math.pi, 0.5)) <= 1e-6
        assert abs(t1 - 2 * math.pi) <= 1e-6  # angular speed is exactly -1

    def test_flight_time_agrees_with_integrate(self, radial_half, x_axis_section):
        for s in (0.3, 0.5, 0.8):
            s_new, t = poincare_return(radial_half, x_axis_section, s)
            end = integrate(radial_half, x_axis_section.point_at(s), t).end_state
            assert math.dist(end, x_axis_section.point_at(s_new)) <= 1e-8

    def test_blowup_reports_last_state(self):
        # du/dt = u^2 from u=1/2 blows up at t = 2, long before t_max
        field = VectorField2(BiPoly({(2, 0): 1}), BiPoly.zero())
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
        drift = VectorField2(BiPoly.const(1), BiPoly.zero())
        section = Section(base=(0.0, -1.0), direction=(0.0, 1.0), s_max=2.0)
        cfg = DynamicsConfig(t_max=5.0)
        with pytest.raises(NoReturnError):
            poincare_return(drift, section, 1.0, cfg=cfg)

    def test_tangent_start_rejected(self):
        drift = VectorField2(BiPoly.const(1), BiPoly.zero())
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

    def test_iteration_budget_exhausted(self):
        # damped steps are capped at 0.1 * s_max, so four iterations cannot
        # carry the search from s = 0.05 out to the cycle at 0.8
        field = radial_cubic_field(Fraction(4, 5))
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        cfg = DynamicsConfig(max_iters=4)
        with pytest.raises(CycleSearchError):
            find_cycle(field, section, 0.05, cfg)

    def test_return_outside_section_range(self):
        # cycle sits at r = 0.8 but the section stops at 0.5: the orbit
        # re-crosses the supporting line beyond the segment, never on it
        field = radial_cubic_field(Fraction(4, 5))
        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=0.5)
        cfg = DynamicsConfig(t_max=30.0)
        with pytest.raises(NoReturnError):
            find_cycle(field, section, 0.3, cfg)


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
        for r in lifted_m3:
            lam_negative = (r.rect.i + r.rect.j) % 2 == 1
            assert r.orientation_reversed == lam_negative

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
            traj = integrate(pullback_m3.field, r.anchor, r.period, tol=1e-10)
            for u, v in traj.sample(200):
                radius = math.hypot(t3.evaluate_float(u), t3.evaluate_float(v))
                assert abs(radius - 0.5) <= 1e-5

    def test_time_change_invariance_off_cycle(self, pullback_m3, lifted_m3):
        # a pushed-forward non-periodic trajectory follows the radial
        # oracle's monotone envelope on a lambda > 0 rectangle
        t3 = chebyshev(3)
        center = next(r for r in lifted_m3 if (r.rect.i, r.rect.j) == (2, 2))
        start = (center.anchor[0] + 0.02, center.anchor[1])
        r0 = math.hypot(t3.evaluate_float(start[0]), t3.evaluate_float(start[1]))
        traj = integrate(pullback_m3.field, start, 3.0, tol=1e-10)
        radii = [
            math.hypot(t3.evaluate_float(u), t3.evaluate_float(v))
            for u, v in traj.sample(300)
        ]
        lo, hi = min(0.5, r0) - 1e-5, max(0.5, r0) + 1e-5
        assert all(lo <= rad <= hi for rad in radii)
        assert abs(radii[-1] - 0.5) < abs(radii[0] - 0.5) + 1e-9

    def test_integrate_and_find_cycle_take_a_pullback(self, pullback_m3, lifted_m3):
        r = next(r for r in lifted_m3 if (r.rect.i, r.rect.j) == (2, 2))
        traj = integrate(pullback_m3, r.anchor, r.period, tol=1e-10)
        assert math.dist(traj.end_state, r.anchor) <= 1e-7
        expanded = integrate(pullback_m3.field, r.anchor, r.period, tol=1e-10)
        assert math.dist(traj.end_state, expanded.end_state) <= 1e-8
        fu, fv = field_rhs(pullback_m3)(0.0, r.anchor)
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
    # scipy's stepper, 2.5 s at m = 12 with RK45, on a 2-core x86 host): a
    # lift that stalls or wanders is caught, not waited on.  At m = 12 trial
    # stages overflow on the degree-47 field; RK45 must reject them without
    # a numeric warning.
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


class TestImplicitCurve:
    def test_m2_by_hand(self):
        got = implicit_lift_curve(2, Fraction(1, 2))
        t2u = BiPoly.from_uni(chebyshev(2), 0)
        t2v = BiPoly.from_uni(chebyshev(2), 1)
        assert got == t2u * t2u + t2v * t2v - BiPoly.const(Fraction(1, 4))

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

    def test_json_fields(self, lifted_m3):
        blob = records_to_json(lifted_m3)
        assert len(blob) == 9
        assert {"i", "j", "anchor_u", "anchor_v", "period", "multiplier",
                "orientation_reversed", "certified"} <= set(blob[0])
