"""Numerical flow, Poincaré sections, and limit-cycle lifting.

Trajectories come from an adaptive Dormand-Prince 8(5,3) integrator with
degree-7 dense output, `DOP853`: scipy's algorithm (tableau, first step,
step controller, error norm) written out on Python floats, so that a
step costs its twelve RHS calls and little else, and the three more of
the interpolant only on a step that is interpolated.  At the default
tol the eighth-order pair takes about a fifth of the steps of a 5(4)
pair.  Beside the state it carries w = integral of div f, a quadrature
lane that stays out of the error norm, so the state takes the steps it
would take alone.  One loop steps it for both `integrate` and
`poincare_return`; section crossings are located by scanning the
accepted steps for sign changes of the signed section coordinate, and
refined on the crossing step's interpolant by the in-module Brent
method, `brentq`, so the package needs no numpy or scipy at runtime.
A field is evaluated by Horner on Python floats: a VectorField2 as it
stands, a PullbackResult through its factors p'(v) P(p(u), p(v)) and
p'(u) Q(p(u), p(v)), which keeps the accuracy of the seed field that
the expanded pullback loses as m grows.
Cycles are fixed points of the return map, found by Newton iteration on
return(s) - s.  The slope of a planar return map is given by Liouville's
formula, exp(w) times a transversality ratio, so one return yields both
the Newton step and the multiplier of an accepted cycle.

Lifting: a certified cycle of X inside (-1,1)^2 is carried to each of
the m^2 branch rectangles of the Chebyshev pullback by inverting the
cover branch-wise at the anchor point and re-running the cycle search on
the pullback field.  Searches in distinct rectangles are independent of
each other (results are merged in (i, j) order); everything here is
deterministic, with no randomness or wall-clock dependence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import ClassVar

from .branches import BranchInterval, branch_inverse, cheb_branches
from .polynomials import BiPoly, Scalar, VectorField2, chebyshev, compose_separable, fmt9, _as_fraction
from .pullback import PullbackResult


class DynamicsError(RuntimeError):
    """Base class for numerical failures in this module."""


class IntegrationError(DynamicsError):
    def __init__(self, message: str, last_state=None, last_time: float | None = None):
        super().__init__(message)
        self.last_state = last_state
        self.last_time = last_time


class NoReturnError(DynamicsError):
    """Trajectory never re-crossed the section within the time budget."""


class DegenerateCrossingError(DynamicsError):
    """Section crossing with (nearly) tangent field."""


class CycleSearchError(DynamicsError):
    """Fixed-point iteration for the return map failed."""


class LiftError(DynamicsError):
    """Some branch rectangles failed to produce a certified cycle."""

    def __init__(self, failures, records):
        names = ", ".join(f"({i},{j})" for i, j, _ in failures)
        super().__init__(f"lift failed in rectangles {names}")
        self.failures = failures
        self.records = records


@dataclass(frozen=True)
class DynamicsConfig:
    """The integration tolerance `tol`, the one settable value, and the
    fixed limits of the cycle search as class constants."""

    tol: float = 1e-10                      # integrator local error control
    eps_fix: ClassVar[float] = 1e-9         # |return(s) - s| at an accepted fixed point
    eps_transverse: ClassVar[float] = 1e-8  # minimum |normal . field| at a crossing
    eps_hyp: ClassVar[float] = 1e-3         # |multiplier - 1| needed to certify
    margin: ClassVar[float] = 1e-3          # anchor clearance from rectangle boundary
    max_iters: ClassVar[int] = 40
    t_max: ClassVar[float] = 200.0          # return-map time budget
    section_cap: ClassVar[float] = 0.05     # half-length cap for auto-built sections


DEFAULT_CONFIG = DynamicsConfig()


def compile_component(f: BiPoly):
    """Float evaluator of f on floats or numpy arrays: `f.evaluate_float`,
    a nested Horner closure built once per f, for any degree."""
    return f.evaluate_float


def field_rhs(field: VectorField2 | PullbackResult):
    """Right-hand side for the ODE solver: f(t, z) = (u', v', div).

    The divergence rides along for the integrator's w lane.  A
    PullbackResult is evaluated through its factors, as
    (p'(v) P(x, y), p'(u) Q(x, y)) with x = p(u), y = p(v), and divergence
    p'(u) p'(v) (div X)(x, y): Horner on the expanded field, of degree
    m deg(X) + m - 1, loses digits as m grows (relative error 2.7e-7 at
    m = 8 and 2.9e-5 at m = 10 on the cubic seed, against at most 3e-13
    through the factors), and costs more.  A VectorField2's divergence is
    Horner on the exact polynomial dP/du + dQ/dv.  That divergence, p' and
    the evaluators are cached, so a second call builds no polynomial.
    """
    X = field.source if isinstance(field, PullbackResult) else field
    fp = compile_component(X.p_comp)
    fq = compile_component(X.q_comp)
    fdiv = compile_component(X.divergence)
    if isinstance(field, PullbackResult):
        p = field.cover_poly.evaluate_float
        dp = field.cover_poly.derivative().evaluate_float

        def rhs(t, z):
            u, v = float(z[0]), float(z[1])
            x, y = p(u), p(v)
            du, dv = dp(u), dp(v)
            return (dv * fp(x, y), du * fq(x, y), du * dv * fdiv(x, y))

        return rhs

    def rhs(t, z):
        # Python floats: Horner on numpy scalars costs about 4x as much
        u, v = float(z[0]), float(z[1])
        return (fp(u, v), fq(u, v), fdiv(u, v))

    return rhs


# Prince & Dormand's (1981) 8(5,3) pair with its degree-7 dense output:
# scipy's DOP853 tableau, the coefficients of Hairer's dop853.f (Hairer,
# Norsett & Wanner, Solving ODEs I, II.10), as the nearest floats.  A stage
# is (c, its nonzero (k, a) entries), k counting the stages from 0.  `_A`
# makes stages 1..11 after the first, f at the step's start; stage 12 is f
# at its end (FSAL), and `_A_EXTRA` gives stages 13..15, which only the
# interpolant needs.
_A = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792))),
    (0.3333333333333333, ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242))),
    (0.25, ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125))),
    (0.3076923076923077, ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
        (5, -0.015319437748624402), (6, 0.008273789163814023))),
    (0.6512820512820513, ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
        (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996))),
    (0.6, ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
        (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
        (8, -0.020331201708508627))),
    (0.8571428571428571, ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
        (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
        (8, 2.4936055526796523), (9, -3.0467644718982196))),
    (1.0, ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
        (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
        (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636))),
)
_A_EXTRA = (
    (0.1, ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
        (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
        (11, 0.007567897660545699), (12, -0.008298))),
    (0.2, ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
        (7, -0.05492374857139099), (10, -0.00010834732869724932), (11, 0.0003825710908356584),
        (12, -0.00034046500868740456), (13, 0.1413124436746325))),
    (0.7777777777777778, ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
        (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
        (13, 2.9475147891527724), (14, -9.15095847217987))),
)
# (k, b, e5, e3): the solution weights and the 5th- and 3rd-order error
# weights, nonzero only on stages 0 and 5..11
_BE = (
    (0, 0.054293734116568765, 0.01312004499419488, -0.18980075407240762),
    (5, 4.450312892752409, -1.2251564463762044, 4.450312892752409),
    (6, 1.8915178993145003, -0.4957589496572502, 1.8915178993145003),
    (7, -5.801203960010585, 1.6643771824549864, -5.801203960010585),
    (8, 0.3111643669578199, -0.35032884874997366, -0.4226823213237919),
    (9, -0.1521609496625161, 0.3341791187130175, -0.1521609496625161),
    (10, 0.20136540080403034, 0.08192320648511571, 0.20136540080403034),
    (11, 0.04471061572777259, -0.022355307863886294, 0.02265179219836082),
)
# (k, d): stage k's weights in rows 3..6 of the interpolant
_D = (
    (0, (-8.428938276109013, 10.427508642579134, 19.985053242002433, -25.69393346270375)),
    (5, (0.5667149535193777, 242.28349177525817, -387.0373087493518, -154.18974869023643)),
    (6, (-3.0689499459498917, 165.20045171727028, -189.17813819516758, -231.5293791760455)),
    (7, (2.38466765651207, -374.5467547226902, 527.8081592054236, 357.6391179106141)),
    (8, (2.117034582445028, -22.113666853125306, -11.57390253995963, 93.40532418362432)),
    (9, (-0.871391583777973, 7.733432668472264, 6.8812326946963, -37.45832313645163)),
    (10, (2.2404374302607883, -30.674084731089398, -1.0006050966910838, 104.0996495089623)),
    (11, (0.6315787787694688, -9.332130526430229, 0.7777137798053443, 29.8402934266605)),
    (12, (-0.08899033645133331, 15.697238121770845, -2.778205752353508, -43.53345659001114)),
    (13, (18.148505520854727, -31.139403219565178, -60.19669523126412, 96.32455395918828)),
    (14, (-9.194632392478356, -9.35292435884448, 84.32040550667716, -39.17726167561544)),
    (15, (-4.436036387594894, 35.81684148639408, 11.99229113618279, -149.72683625798564)),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1 / 8


def _rms(a: float, b: float) -> float:
    """RMS norm of (a, b).  Squares are products: a float ** 2 raises
    OverflowError where a product gives inf."""
    return math.sqrt(a * a + b * b) / 2**0.5


def _stages(fun, t: float, y, h: float, K: list, rows) -> list:
    """K, extended by the stages of `rows` from state y at time t, step h."""
    y0, y1 = y
    for c, row in rows:
        su = sv = 0.0
        for k, a in row:
            k_ = K[k]
            su += k_[0] * a
            sv += k_[1] * a
        K.append(fun(t + c * h, (y0 + su * h, y1 + sv * h)))
    return K


class _DenseStep:
    """Degree-7 interpolant over one accepted step, from t_old to t, at
    step fraction x = (t - t_old) / h: y_old + x (F0 + (1 - x) (F1 + x (F2
    + ...))), for each lane of (u, v, w), evaluated in the order of scipy's
    Dop853DenseOutput, so it gives the same floats."""

    __slots__ = ("t_old", "t", "h", "y_old", "F")

    def __init__(self, t_old: float, t: float, y_old, F):
        self.t_old, self.t, self.h, self.y_old, self.F = t_old, t, t - t_old, y_old, F

    def at(self, t: float, lanes: int = 3) -> tuple[float, ...]:
        """The first `lanes` lanes of (u, v, w) at time t; the lanes are
        independent, so (u, v) alone costs two thirds."""
        x = (t - self.t_old) / self.h
        x1 = 1.0 - x
        return tuple(
            y + x * (f0 + x1 * (f1 + x * (f2 + x1 * (f3 + x * (f4 + x1 * (f5 + x * f6))))))
            for y, (f0, f1, f2, f3, f4, f5, f6) in zip(self.y_old[:lanes], self.F[:lanes])
        )


class DOP853:
    """Adaptive Dormand-Prince 8(5,3) stepper for a planar autonomous ODE,
    on Python floats, with the integral of the divergence alongside.

    scipy's DOP853, step for step: the same tableau, first step (Hairer,
    Norsett & Wanner II.4, for an error estimate of order 7), controller
    (safety 0.9, factor clamped to [0.2, 10], exponent -1/8, no growth
    right after a rejection) and error norm, which blends the 5th- and
    3rd-order estimates scaled by atol + max(|y|, |y_new|) rtol (II.10), so
    it takes the same steps; a step just costs its twelve RHS calls and
    little else.  `fun` returns (u', v', div); w, the integral of div from
    t0, is summed from the same stages with the same weights and has its
    own rows in the interpolant, but stays out of the error norm and the
    step size, so the state `y` steps as it would alone.  A trial whose
    stages overflow has a nan or inf error norm and is rejected with the
    smallest factor.  `step` makes one accepted step; when the step size
    falls below 10 ulp(t) it raises IntegrationError with the last accepted
    state, which for a polynomial field means finite-time blowup.
    """

    def __init__(self, fun, t0: float, y0, t_bound: float, rtol: float, atol: float):
        if not (rtol > 0 and atol > 0):
            raise ValueError(f"tolerances must be positive, got rtol={rtol}, atol={atol}")
        self.fun = fun
        self.t, self.y, self.t_bound = float(t0), (float(y0[0]), float(y0[1])), float(t_bound)
        self.w = 0.0
        self.rtol, self.atol = max(rtol, 100 * sys.float_info.epsilon), atol  # scipy's floor on rtol
        self.t_old = self.y_old = self.w_old = self.K = None
        self.f = fun(self.t, self.y)
        self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        (y0, y1), (f0, f1, _), span = self.y, self.f, self.t_bound - self.t
        s0, s1 = self.atol + abs(y0) * self.rtol, self.atol + abs(y1) * self.rtol
        d0, d1 = _rms(y0 / s0, y1 / s1), _rms(f0 / s0, f1 / s1)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
        g0, g1, _ = self.fun(self.t + h0, (y0 + h0 * f0, y1 + h0 * f1))
        # h0 is 0 when |f| overflowed or the span is empty; scipy's division gives inf
        d2 = _rms((g0 - f0) / s0, (g1 - f1) / s1) / h0 if h0 > 0 else math.inf
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, span)

    def step(self) -> None:
        """Advance by one accepted step, retrying rejected trials."""
        fun, t, y, t_bound = self.fun, self.t, self.y, self.t_bound
        y0, y1 = y
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step fails here too
                raise IntegrationError("step size underflow", last_state=y, last_time=t)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            K = _stages(fun, t, y, h, [self.f], _A)
            bu = bv = bd = e5u = e5v = e3u = e3v = 0.0
            for k, b, e5, e3 in _BE:
                ku, kv, kd = K[k]
                bu += ku * b
                bv += kv * b
                bd += kd * b
                e5u += ku * e5
                e5v += kv * e5
                e3u += ku * e3
                e3v += kv * e3
            y_new = (y0 + h * bu, y1 + h * bv)
            s0 = self.atol + max(abs(y0), abs(y_new[0])) * self.rtol
            s1 = self.atol + max(abs(y1), abs(y_new[1])) * self.rtol
            e5u, e5v, e3u, e3v = e5u / s0, e5v / s1, e3u / s0, e3v / s1
            n5, n3 = e5u * e5u + e5v * e5v, e3u * e3u + e3v * e3v
            # over the two state lanes; n5 == 0 only with every weighted stage
            # finite, so n3 is finite too
            err = h * n5 / math.sqrt((n5 + 0.01 * n3) * 2) if n5 else 0.0
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                break
            # a nan or inf norm comes from trial stages that overflowed; the
            # factor scales the trial as taken, clipped at t_bound
            h_abs = h * (max(_MIN_FACTOR, _SAFETY * err**_EXPONENT) if math.isfinite(err) else _MIN_FACTOR)
            rejected = True
        K.append(fun(t_new, y_new))  # stage 12: f at the end, the next step's first
        self.t_old, self.y_old, self.w_old, self.K = t, y, self.w, K
        self.t, self.y, self.f, self.h_abs = t_new, y_new, K[12], h * factor
        self.w += h * bd

    def dense_output(self) -> _DenseStep:
        """The interpolant of (u, v, w) over the last accepted step; its
        three extra stages are computed here, so a step that is not
        interpolated does not pay for them."""
        t_old, h = self.t_old, self.t - self.t_old
        K = _stages(self.fun, t_old, self.y_old, h, list(self.K), _A_EXTRA)
        y_old, F = self.y_old + (self.w_old,), []
        for lane, (y0, y1) in enumerate(zip(y_old, self.y + (self.w,))):
            g3 = g4 = g5 = g6 = 0.0
            for k, (d3, d4, d5, d6) in _D:
                k_ = K[k][lane]
                g3 += k_ * d3
                g4 += k_ * d4
                g5 += k_ * d5
                g6 += k_ * d6
            f_old, f_new, dy = K[0][lane], K[12][lane], y1 - y0
            F.append((dy, h * f_old - dy, 2 * dy - h * (f_new + f_old), h * g3, h * g4, h * g5, h * g6))
        return _DenseStep(t_old, self.t, y_old, F)


# `_steps` looks the stepper up under this name when it is called: the
# benchmark's tracer counts steps through a subclass set here as RK45
RK45 = DOP853


def _steps(rhs, z0, t_bound: float, tol: float):
    """Accepted Dormand-Prince 8(5,3) steps from z0 at t = 0 toward t_bound.

    Yields the stepper after each accepted step.  `RK45` is looked up when
    the integration starts and `step` runs once per accepted step, so a
    subclass set on this module (the benchmark tracer's) sees every step.
    """
    solver = RK45(rhs, 0.0, z0, t_bound, rtol=tol, atol=tol * 1e-2)
    while solver.t < t_bound:
        solver.step()
        yield solver


# the crossing-time tolerances of `brentq`: absolute, and relative to |t|
# (scipy's floor on it is 4 eps = 8.88e-16)
BRENT_XTOL, BRENT_RTOL = 1e-14, 8.9e-16


def brentq(f, a: float, b: float) -> float:
    """A root of f in the bracket [a, b] by Brent's method (Brent 1973,
    Algorithms for Minimization without Derivatives, ch. 4).

    scipy.optimize.brentq at xtol=BRENT_XTOL, rtol=BRENT_RTOL, step for
    step on Python floats: the same secant and inverse quadratic steps,
    bisection safeguards and stop at half a bracket below (xtol + rtol |x|)
    / 2, so it returns the same float.  A root at either end is returned as
    is.  Ends of one sign or a nan value of f raise ValueError; no
    convergence within 100 iterations, scipy's default, raises
    DynamicsError.
    """
    maxiter, xtol, rtol = 100, BRENT_XTOL, BRENT_RTOL

    def value(x: float) -> float:
        fx = f(x)
        if fx != fx:
            raise ValueError(f"the function value at x={x!r} is nan")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # xcur is the best estimate, xblk the other end of the bracket, xpre
    # the previous estimate; scur and spre are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise DynamicsError(f"Brent's method did not converge in {maxiter} iterations (last x={xcur!r})")


def integrate(
    field: VectorField2 | PullbackResult,
    start,
    t_span: float,
    n: int,
    tol: float = DEFAULT_CONFIG.tol,
) -> list[tuple[float, float]]:
    """The n + 1 (u, v) states of `start`'s flow at the times k (t_span/n),
    k < n, then t_span, with local error control tol.

    The times are numpy.linspace's, and each state is read on the
    interpolant of the first accepted step that ends at or after its time,
    as scipy's OdeSolution reads it; only a step that holds a sample time
    is interpolated.  The RHS is `field_rhs(field)`, whose divergence lane
    w never steers the steps.  Raises IntegrationError (carrying the last
    valid state) on finite-time blowup, and ValueError for a nonpositive
    tol or t_span or n < 1.
    """
    if not (t_span > 0 and n >= 1):
        raise ValueError(f"need t_span > 0 and n >= 1, got t_span={t_span}, n={n}")
    t_span = float(t_span)
    times = [k * (t_span / n) for k in range(n)] + [t_span]
    states: list[tuple[float, float]] = []
    for solver in _steps(field_rhs(field), (float(start[0]), float(start[1])), t_span, tol):
        if times[len(states)] <= solver.t:
            piece = solver.dense_output()
            while len(states) <= n and times[len(states)] <= solver.t:
                states.append(piece.at(times[len(states)], 2))
    return states


@dataclass(frozen=True)
class Section:
    """Transverse segment base + s*direction, s in (0, s_max).

    A section has no orientation of its own: `poincare_return` waits for
    the crossing in the direction the field takes at the start point.
    """

    base: tuple[float, float]
    direction: tuple[float, float]
    s_max: float

    def __post_init__(self) -> None:
        dx, dy = self.direction
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise ValueError("section direction must be nonzero")
        if abs(norm - 1.0) > 1e-9:
            object.__setattr__(self, "direction", (dx / norm, dy / norm))
        if self.s_max <= 0:
            raise ValueError("section length must be positive")

    @property
    def normal(self) -> tuple[float, float]:
        dx, dy = self.direction
        return (-dy, dx)

    def point_at(self, s: float) -> tuple[float, float]:
        return (self.base[0] + s * self.direction[0], self.base[1] + s * self.direction[1])

    def param_of(self, pt) -> float:
        return (pt[0] - self.base[0]) * self.direction[0] + (pt[1] - self.base[1]) * self.direction[1]


def poincare_return(
    field: VectorField2 | PullbackResult,
    section: Section,
    s: float,
    cfg: DynamicsConfig = DEFAULT_CONFIG,
) -> tuple[float, float, float]:
    """First same-orientation return of the flow to the section.

    Integrates at cfg.tol for at most DynamicsConfig.t_max, and watches
    the signed section offset, its sign set by the field at the start
    point; when an accepted step brackets a crossing in that direction,
    the crossing time is refined on that step's dense interpolant.  The
    integration stops at the crossing, so unstable cycles are not flowed
    past their return.  Returns (new parameter, flight time, slope).
    A crossing whose refinement does not converge raises DynamicsError.

    The slope is the derivative of the return map at s.  The flow scales
    areas by exp(w), w the integral of div f along the orbit (Liouville),
    and carries f(z0) to f(z_tau), so P'(s) = exp(w) (f(z0).n) / (f(z_tau).n)
    with n the section normal (Perko, Differential Equations and
    Dynamical Systems, 3.4).
    """
    if not 0.0 < s < section.s_max:
        raise ValueError(f"section parameter {s} outside (0, {section.s_max})")
    rhs = field_rhs(field)
    n = section.normal
    z0 = section.point_at(s)
    f0 = rhs(0.0, z0)
    fn0 = f0[0] * n[0] + f0[1] * n[1]
    if abs(fn0) <= DynamicsConfig.eps_transverse:
        raise DegenerateCrossingError(f"field tangent to section at start (|f.n|={abs(fn0):.3g})")
    sgn = 1 if fn0 > 0 else -1

    def gval(z) -> float:
        return sgn * ((z[0] - section.base[0]) * n[0] + (z[1] - section.base[1]) * n[1])

    g_prev, t_prev = gval(z0), 0.0
    for solver in _steps(rhs, z0, DynamicsConfig.t_max, cfg.tol):
        g_new = gval(solver.y)
        if g_prev < 0.0 <= g_new:
            dense = solver.dense_output()
            t_star = solver.t if g_new == 0.0 else brentq(lambda t: gval(dense.at(t, 2)), t_prev, solver.t)
            # rounding can put the start point a hair on the wrong side
            if t_star >= 1e-9:
                u, v, w = dense.at(t_star)
                s_new = section.param_of((u, v))
                if 0.0 < s_new < section.s_max:
                    f_star = rhs(t_star, (u, v))
                    fn_star = f_star[0] * n[0] + f_star[1] * n[1]
                    if abs(fn_star) <= DynamicsConfig.eps_transverse:
                        raise DegenerateCrossingError("tangential crossing of the section")
                    # w beyond exp's range: an expansion no float can hold
                    slope = (math.exp(w) if w < 709.0 else math.inf) * fn0 / fn_star
                    return float(s_new), float(t_star), slope
        g_prev, t_prev = g_new, solver.t
    raise NoReturnError(f"no return to the section within t_max={DynamicsConfig.t_max}")


@dataclass(frozen=True)
class BranchRectangle:
    """Product of a u-branch and a v-branch of the cover polynomial."""

    i: int
    j: int
    u_interval: BranchInterval
    v_interval: BranchInterval

    def contains(self, pt, margin: float = 0.0) -> bool:
        return self.u_interval.contains(pt[0], margin) and self.v_interval.contains(pt[1], margin)

    def boundary_distance(self, pt) -> float:
        u, v = pt
        return min(
            u - self.u_interval.lo,
            self.u_interval.hi - u,
            v - self.v_interval.lo,
            self.v_interval.hi - v,
        )


@dataclass(frozen=True)
class LimitCycleRecord:
    """A numerically located limit cycle anchored on a section."""

    anchor: tuple[float, float]
    period: float
    multiplier: float
    certified: bool
    rect: BranchRectangle | None = None

    @property
    def orientation_reversed(self) -> bool:
        """Whether the time change on `rect` is negative: its two branches
        run in opposite directions.  False without a rect."""
        return self.rect is not None and self.rect.u_interval.direction * self.rect.v_interval.direction < 0


def find_cycle(
    field: VectorField2 | PullbackResult,
    section: Section,
    s0: float,
    cfg: DynamicsConfig = DEFAULT_CONFIG,
) -> LimitCycleRecord:
    """Locate a fixed point of the return map by Newton iteration on
    return(s) - s.

    Each return brings its own slope (see `poincare_return`).  The Newton
    step is taken when both it and the residual f fit in a trust radius of
    0.1 s_max; otherwise the iterate moves toward its return, by f clamped
    to that radius.  Iterates stay in the section's inner 99.8%.  The
    multiplier is the slope of the accepted return, so a record costs no
    return beyond the search; one whose multiplier sits within eps_hyp of
    1 is returned flagged non-certified.  A hyperbolic fixed point within
    reach of a tangency of the field raises DegenerateCrossingError: the
    returns closed in on an equilibrium.
    """
    rhs = field_rhs(field)
    lo_lim = 1e-3 * section.s_max
    hi_lim = section.s_max * (1.0 - 1e-3)
    max_step = 0.1 * section.s_max

    s_cur = s0
    for _ in range(DynamicsConfig.max_iters + 1):
        r_cur, t_cur, mu = poincare_return(field, section, s_cur, cfg)
        f_cur = r_cur - s_cur
        if abs(f_cur) <= DynamicsConfig.eps_fix:
            certified = abs(mu - 1.0) > DynamicsConfig.eps_hyp
            if certified:
                # Newton puts the fixed point within |f / (mu - 1)| of s_cur.
                # If the field turns tangent to the section within ten times
                # that, the returns close in on an equilibrium, not a cycle.
                reach, n = 10.0 * abs(f_cur / (mu - 1.0)), section.normal
                signs = set()
                for sk in (s_cur - reach, s_cur, s_cur + reach):
                    fu, fv, _ = rhs(0.0, section.point_at(sk))
                    signs.add(fu * n[0] + fv * n[1] > 0.0)
                if len(signs) > 1:
                    raise DegenerateCrossingError("field tangent to the section at the fixed point")
            return LimitCycleRecord(
                anchor=section.point_at(s_cur),
                period=t_cur,
                multiplier=mu,
                certified=certified,
            )
        if mu == 1.0 or not math.isfinite(mu):
            raise CycleSearchError(f"Newton iteration stalled (return-map slope {mu:.3g})")
        step = -f_cur / (mu - 1.0)
        if max(abs(f_cur), abs(step)) > max_step:
            # beyond the trust radius, follow the flow toward the return,
            # which the orbit visits anyway: a Newton step across a
            # repelling cycle can land where the flow never returns
            step = f_cur
        step = max(-max_step, min(max_step, step))
        s_cur = min(hi_lim, max(lo_lim, s_cur + step))
    raise CycleSearchError(
        f"no fixed point after {DynamicsConfig.max_iters} iterations (last residual {f_cur:.3g})"
    )


def _section_through(point, field_dir, half_length: float) -> Section:
    """Section of half-length `half_length` through `point`, perpendicular
    to the local field direction; the cycle sits near s = half_length."""
    norm = math.hypot(*field_dir)
    d = (-field_dir[1] / norm, field_dir[0] / norm)  # the unit normal to the field
    base = (point[0] - half_length * d[0], point[1] - half_length * d[1])
    return Section(base=base, direction=d, s_max=2.0 * half_length)


def lift_cycles(
    pb: PullbackResult,
    base: LimitCycleRecord,
    m: int,
    cfg: DynamicsConfig = DEFAULT_CONFIG,
) -> list[LimitCycleRecord]:
    """Carry a certified base cycle into every branch rectangle of the
    Chebyshev pullback: m^2 records, ordered by (i, j).

    Each rectangle is seeded by the branch-wise inverse of the anchor,
    searched independently with a local section, and required to come
    back certified hyperbolic, strictly inside its rectangle by
    DynamicsConfig.margin.  A record's orientation_reversed follows from
    its rect: the sign of the time-change factor, the product of the
    directions of its two branches (negative lambda flips the return map
    to its inverse, hence the multiplier to its reciprocal).
    """
    bset = cheb_branches(m)
    if pb.cover_poly != bset.poly:
        raise ValueError(f"lifting requires the Chebyshev cover polynomial T_{m}")
    if not base.certified:
        raise ValueError("base cycle must be certified hyperbolic")
    xb, yb = base.anchor
    if not (abs(xb) < 1.0 and abs(yb) < 1.0):
        raise ValueError("base anchor must lie strictly inside (-1, 1)^2")

    # the m^2 seeds share 2m coordinates: branch i of xb, branch j of yb
    us = [branch_inverse(m, k, xb) for k in range(1, m + 1)]
    vs = [branch_inverse(m, k, yb) for k in range(1, m + 1)]
    rhs = field_rhs(pb)
    records: dict[tuple[int, int], LimitCycleRecord] = {}
    failures: list[tuple[int, int, str]] = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            rect = BranchRectangle(i, j, bset.intervals[i - 1], bset.intervals[j - 1])
            try:
                seed = (us[i - 1], vs[j - 1])
                clearance = rect.boundary_distance(seed)
                half = min(0.45 * clearance, DynamicsConfig.section_cap)
                if half <= DynamicsConfig.margin:
                    raise CycleSearchError("seed too close to the rectangle boundary")
                sec = _section_through(seed, rhs(0.0, seed)[:2], half)
                rec = find_cycle(pb, sec, half, cfg)
                if not rec.certified:
                    raise CycleSearchError(
                        f"lifted cycle not certified hyperbolic (multiplier {rec.multiplier:.6g})"
                    )
                if not rect.contains(rec.anchor, DynamicsConfig.margin):
                    raise CycleSearchError("lifted anchor left its branch rectangle")
                records[(i, j)] = replace(rec, rect=rect)
            except DynamicsError as err:
                failures.append((i, j, str(err)))
    if failures:
        raise LiftError(failures, records)
    return [records[key] for key in sorted(records)]


def implicit_lift_curve(m: int, rho: Scalar) -> BiPoly:
    """Exact polynomial T_m(u)^2 + T_m(v)^2 - rho^2, whose zero set is the
    full preimage of the circle of radius rho under the Chebyshev cover."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    rho = _as_fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    circle = BiPoly({(2, 0): 1, (0, 2): 1, (0, 0): -(rho * rho)})
    return compose_separable(circle, chebyshev(m))


def radial_cubic_field(rho: Scalar) -> VectorField2:
    """Cubic field (y - x(x^2+y^2-rho^2), -x - y(x^2+y^2-rho^2)).

    In polar coordinates dr/dt = r(rho^2 - r^2) and dtheta/dt = -1, so
    the circle r = rho is an attracting hyperbolic limit cycle.
    """
    rho = _as_fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    rho2 = rho * rho
    p = BiPoly({(0, 1): 1, (3, 0): -1, (1, 2): -1, (1, 0): rho2})
    q = BiPoly({(1, 0): -1, (2, 1): -1, (0, 3): -1, (0, 1): rho2})
    return VectorField2(p, q)


def records_to_csv(records: list[LimitCycleRecord]) -> str:
    """CSV with columns i, j, anchor_u, anchor_v, period, multiplier,
    orientation_reversed (floats at 9 significant digits)."""
    lines = ["i,j,anchor_u,anchor_v,period,multiplier,orientation_reversed"]
    for r in records:
        i = r.rect.i if r.rect else 0
        j = r.rect.j if r.rect else 0
        lines.append(
            ",".join(
                [
                    str(i),
                    str(j),
                    fmt9(r.anchor[0]),
                    fmt9(r.anchor[1]),
                    fmt9(r.period),
                    fmt9(r.multiplier),
                    "true" if r.orientation_reversed else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"
