"""Numerical flow, Poincaré sections, and limit-cycle lifting.

Trajectories come from an adaptive Dormand-Prince 5(4) integrator with
dense output, `RK45`: scipy's algorithm (tableau, first step, step
controller, error norm) written out on two Python floats, so that a step
costs its six RHS calls and little else.  One loop steps it for both
`integrate` and `poincare_return`; section crossings are located by
scanning the accepted steps for sign changes of the signed section
coordinate and root-finding on the dense interpolant.  A field is
evaluated by Horner on Python floats: a VectorField2 as it stands, a
PullbackResult through its factors p'(v) P(p(u), p(v)) and
p'(u) Q(p(u), p(v)), which keeps the accuracy of the seed field that the
expanded pullback loses as m grows.
Cycles are fixed points of the return map, found by damped secant
iteration, with the multiplier estimated by a central finite difference
of the return map.

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

import numpy as np
from scipy.integrate import DenseOutput, OdeSolution
from scipy.optimize import brentq

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
    tol: float = 1e-10            # integrator local error control
    eps_fix: float = 1e-9         # |return(s) - s| at an accepted fixed point
    eps_transverse: float = 1e-8  # minimum |normal . field| at a crossing
    eps_hyp: float = 1e-3         # |multiplier - 1| needed to certify
    margin: float = 1e-3          # anchor clearance from rectangle boundary
    fd_scale: float = 1e-6        # multiplier FD step: max(fd_scale, fd_scale*|s|)
    max_iters: int = 40
    t_max: float = 200.0          # return-map time budget
    section_cap: float = 0.05     # half-length cap for auto-built sections


DEFAULT_CONFIG = DynamicsConfig()


def compile_component(f: BiPoly):
    """Float evaluator of f on floats or numpy arrays: `f.evaluate_float`,
    nested Horner over float coefficients cached on f, for any degree."""
    return f.evaluate_float


def field_rhs(field: VectorField2 | PullbackResult):
    """Right-hand side f(t, z) for the ODE solver.

    A PullbackResult is evaluated through its factors, as
    (p'(v) P(x, y), p'(u) Q(x, y)) with x = p(u), y = p(v): Horner on the
    expanded field, of degree m deg(X) + m - 1, loses digits as m grows
    (relative error 2.7e-7 at m = 8 and 2.9e-5 at m = 10 on the cubic
    seed, against at most 3e-13 through the factors), and costs more.
    """
    if isinstance(field, PullbackResult):
        p = field.cover_poly.evaluate_float
        dp = field.cover_poly.derivative().evaluate_float
        fp = compile_component(field.source.p_comp)
        fq = compile_component(field.source.q_comp)

        def rhs(t, z):
            u, v = float(z[0]), float(z[1])
            x, y = p(u), p(v)
            return (dp(v) * fp(x, y), dp(u) * fq(x, y))

        return rhs

    fp = compile_component(field.p_comp)
    fq = compile_component(field.q_comp)

    def rhs(t, z):
        # Python floats: Horner on numpy scalars costs about 4x as much
        u, v = float(z[0]), float(z[1])
        return (fp(u, v), fq(u, v))

    return rhs


@dataclass(frozen=True)
class Trajectory:
    """Dense-output solution of one integration run."""

    ts: np.ndarray
    ys: np.ndarray          # shape (2, len(ts))
    sol: OdeSolution        # callable on [ts[0], ts[-1]]

    @property
    def end_state(self) -> tuple[float, float]:
        return (float(self.ys[0, -1]), float(self.ys[1, -1]))

    def sample(self, n: int) -> np.ndarray:
        """n+1 points equally spaced in time, shape (n+1, 2)."""
        ts = np.linspace(self.ts[0], self.ts[-1], n + 1)
        return self.sol(ts).T


# The Dormand & Prince (1980) 5(4) pair with Shampine's (1986) quartic dense
# output: scipy's RK45 tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5).  Stage 2 has zero weight in the solution, the error estimate and
# the interpolant, so it appears only in the later stages.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
_P = (  # rows: stages 1 and 3..7; columns: powers 1..4 of the step fraction
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1 / 5


def _rms(a: float, b: float) -> float:
    """RMS norm of (a, b).  Squares are products: a float ** 2 raises
    OverflowError where a product gives inf."""
    return math.sqrt(a * a + b * b) / 2**0.5


class _DenseStep(DenseOutput):
    """Quartic interpolant over one accepted step, in the form OdeSolution
    takes: y_old + h x (q1 + x (q2 + x (q3 + x q4))) at step fraction x."""

    def __init__(self, t_old: float, t: float, y_old, Q):
        super().__init__(t_old, t)
        self.h, self.y_old, self.Q = t - t_old, y_old, Q

    def at(self, t):
        """The state at time t: a pair of floats, or of arrays for an array t."""
        x = (t - self.t_old) / self.h
        return tuple(
            y + self.h * x * (q1 + x * (q2 + x * (q3 + x * q4)))
            for y, (q1, q2, q3, q4) in zip(self.y_old, self.Q)
        )

    def _call_impl(self, t):
        return np.array(self.at(t))


class RK45:
    """Adaptive Dormand-Prince 5(4) stepper for a planar autonomous ODE,
    on Python floats.

    scipy's RK45, step for step: the same tableau, first step (Hairer,
    Norsett & Wanner II.4), controller (safety 0.9, factor clamped to
    [0.2, 10], exponent -1/5, no growth right after a rejection) and RMS
    error norm against atol + max(|y|, |y_new|) rtol, so it takes the same
    steps; a step just costs its six RHS calls and little else.  A trial
    whose stages overflow has a nan or inf error norm and is rejected with
    the smallest factor.  `step` makes one accepted step; when the step
    size falls below 10 ulp(t) it raises IntegrationError with the last
    accepted state, which for a polynomial field means finite-time blowup.
    """

    def __init__(self, fun, t0: float, y0, t_bound: float, rtol: float, atol: float):
        if not (rtol > 0 and atol > 0):
            raise ValueError(f"tolerances must be positive, got rtol={rtol}, atol={atol}")
        self.fun = fun
        self.t, self.y, self.t_bound = float(t0), (float(y0[0]), float(y0[1])), float(t_bound)
        self.rtol, self.atol = max(rtol, 100 * sys.float_info.epsilon), atol  # scipy's floor on rtol
        self.t_old = self.y_old = self.K = None
        self.f = fun(self.t, self.y)
        self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        (y0, y1), (f0, f1), span = self.y, self.f, self.t_bound - self.t
        s0, s1 = self.atol + abs(y0) * self.rtol, self.atol + abs(y1) * self.rtol
        d0, d1 = _rms(y0 / s0, y1 / s1), _rms(f0 / s0, f1 / s1)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
        g0, g1 = self.fun(self.t + h0, (y0 + h0 * f0, y1 + h0 * f1))
        # h0 is 0 when |f| overflowed or the span is empty; scipy's division gives inf
        d2 = _rms((g0 - f0) / s0, (g1 - f1) / s1) / h0 if h0 > 0 else math.inf
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, span)

    def step(self) -> None:
        """Advance by one accepted step, retrying rejected trials."""
        fun, t, y, t_bound = self.fun, self.t, self.y, self.t_bound
        y0, y1 = y
        k1u, k1v = k1 = self.f
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step fails here too
                raise IntegrationError("step size underflow", last_state=y, last_time=t)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            k2u, k2v = k2 = fun(t + _C2 * h, (y0 + k1u * _A21 * h, y1 + k1v * _A21 * h))
            k3u, k3v = k3 = fun(
                t + _C3 * h,
                (y0 + (k1u * _A31 + k2u * _A32) * h, y1 + (k1v * _A31 + k2v * _A32) * h),
            )
            k4u, k4v = k4 = fun(
                t + _C4 * h,
                (
                    y0 + (k1u * _A41 + k2u * _A42 + k3u * _A43) * h,
                    y1 + (k1v * _A41 + k2v * _A42 + k3v * _A43) * h,
                ),
            )
            k5u, k5v = k5 = fun(
                t + _C5 * h,
                (
                    y0 + (k1u * _A51 + k2u * _A52 + k3u * _A53 + k4u * _A54) * h,
                    y1 + (k1v * _A51 + k2v * _A52 + k3v * _A53 + k4v * _A54) * h,
                ),
            )
            k6u, k6v = k6 = fun(
                t + h,
                (
                    y0 + (k1u * _A61 + k2u * _A62 + k3u * _A63 + k4u * _A64 + k5u * _A65) * h,
                    y1 + (k1v * _A61 + k2v * _A62 + k3v * _A63 + k4v * _A64 + k5v * _A65) * h,
                ),
            )
            y_new = (
                y0 + h * (k1u * _B1 + k3u * _B3 + k4u * _B4 + k5u * _B5 + k6u * _B6),
                y1 + h * (k1v * _B1 + k3v * _B3 + k4v * _B4 + k5v * _B5 + k6v * _B6),
            )
            k7u, k7v = k7 = fun(t + h, y_new)
            eu = (k1u * _E1 + k3u * _E3 + k4u * _E4 + k5u * _E5 + k6u * _E6 + k7u * _E7) * h
            ev = (k1v * _E1 + k3v * _E3 + k4v * _E4 + k5v * _E5 + k6v * _E6 + k7v * _E7) * h
            err = _rms(
                eu / (self.atol + max(abs(y0), abs(y_new[0])) * self.rtol),
                ev / (self.atol + max(abs(y1), abs(y_new[1])) * self.rtol),
            )
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                break
            # a nan or inf norm comes from trial stages that overflowed
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT) if math.isfinite(err) else _MIN_FACTOR
            rejected = True
        self.t_old, self.y_old, self.K = t, y, (k1, k3, k4, k5, k6, k7)
        self.t, self.y, self.f, self.h_abs = t_new, y_new, k7, h * factor

    def dense_output(self) -> _DenseStep:
        """The interpolant over the last accepted step."""
        Q = tuple(
            tuple(sum(k[i] * row[c] for k, row in zip(self.K, _P)) for c in range(4)) for i in (0, 1)
        )
        return _DenseStep(self.t_old, self.t, self.y_old, Q)


def _steps(rhs, z0, t_bound: float, tol: float):
    """Accepted Dormand-Prince 5(4) steps from z0 at t = 0 toward t_bound.

    Yields the stepper after each accepted step.  `RK45` is looked up when
    the integration starts and `step` runs once per accepted step, so a
    subclass set on this module (the benchmark tracer's) sees every step.
    """
    solver = RK45(rhs, 0.0, z0, t_bound, rtol=tol, atol=tol * 1e-2)
    while solver.t < t_bound:
        solver.step()
        yield solver


def integrate(
    field: VectorField2 | PullbackResult,
    start,
    t_span: float,
    tol: float = DEFAULT_CONFIG.tol,
    rhs=None,
) -> Trajectory:
    """Flow `start` forward for time t_span with local error control tol.

    Raises IntegrationError (carrying the last valid state) on finite-time
    blowup, and ValueError for a nonpositive tol or t_span.
    """
    if not t_span > 0:
        raise ValueError(f"t_span must be positive, got {t_span}")
    rhs = rhs or field_rhs(field)
    z0 = (float(start[0]), float(start[1]))
    ts, ys, pieces = [0.0], [z0], []
    for solver in _steps(rhs, z0, float(t_span), tol):
        ts.append(solver.t)
        ys.append(solver.y)
        pieces.append(solver.dense_output())
    ts = np.array(ts)
    return Trajectory(ts=ts, ys=np.vstack(ys).T, sol=OdeSolution(ts, pieces))


@dataclass(frozen=True)
class Section:
    """Transverse segment base + s*direction, s in (0, s_max).

    `orientation` fixes which way trajectories must cross (sign of the
    normal component of the field); 0 means infer it from the field at
    the first query point.
    """

    base: tuple[float, float]
    direction: tuple[float, float]
    s_max: float
    orientation: int = 0

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

    def offset_of(self, pt) -> float:
        n = self.normal
        return (pt[0] - self.base[0]) * n[0] + (pt[1] - self.base[1]) * n[1]


def poincare_return(
    field: VectorField2 | PullbackResult,
    section: Section,
    s: float,
    tol: float = DEFAULT_CONFIG.tol,
    cfg: DynamicsConfig = DEFAULT_CONFIG,
    rhs=None,
) -> tuple[float, float]:
    """First same-orientation return of the flow to the section.

    Steps the integrator and watches the signed section offset; when an
    accepted step brackets a crossing in the wanted direction, the
    crossing time is refined on that step's dense interpolant.  The
    integration stops at the crossing, so unstable cycles are not flowed
    past their return.  Returns (new parameter, flight time).
    """
    if not 0.0 < s < section.s_max:
        raise ValueError(f"section parameter {s} outside (0, {section.s_max})")
    rhs = rhs or field_rhs(field)
    n = section.normal
    z0 = section.point_at(s)
    f0 = rhs(0.0, z0)
    fn0 = f0[0] * n[0] + f0[1] * n[1]
    if abs(fn0) <= cfg.eps_transverse:
        raise DegenerateCrossingError(f"field tangent to section at start (|f.n|={abs(fn0):.3g})")
    sgn = section.orientation if section.orientation else (1 if fn0 > 0 else -1)

    def gval(z) -> float:
        return sgn * ((z[0] - section.base[0]) * n[0] + (z[1] - section.base[1]) * n[1])

    g_prev, t_prev = gval(z0), 0.0
    for solver in _steps(rhs, z0, cfg.t_max, tol):
        g_new = gval(solver.y)
        if g_prev < 0.0 <= g_new:
            dense = solver.dense_output()
            t_star = (
                solver.t
                if g_new == 0.0
                else brentq(lambda t: gval(dense.at(t)), t_prev, solver.t, xtol=1e-14, rtol=8.9e-16)
            )
            # rounding can put the start point a hair on the wrong side
            if t_star >= 1e-9:
                z_star = dense.at(t_star)
                s_new = section.param_of(z_star)
                if 0.0 < s_new < section.s_max:
                    f_star = rhs(t_star, z_star)
                    if abs(f_star[0] * n[0] + f_star[1] * n[1]) <= cfg.eps_transverse:
                        raise DegenerateCrossingError("tangential crossing of the section")
                    return float(s_new), float(t_star)
        g_prev, t_prev = g_new, solver.t
    raise NoReturnError(f"no return to the section within t_max={cfg.t_max}")


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
    orientation_reversed: bool = False
    rect: BranchRectangle | None = None


def find_cycle(
    field: VectorField2 | PullbackResult,
    section: Section,
    s0: float,
    cfg: DynamicsConfig = DEFAULT_CONFIG,
    rhs=None,
) -> LimitCycleRecord:
    """Locate a fixed point of the return map by damped secant iteration.

    The multiplier is a central finite difference of the return map with
    step max(fd_scale, fd_scale*|s|); a record whose multiplier sits
    within eps_hyp of 1 is returned flagged non-certified.
    """
    rhs = rhs or field_rhs(field)

    def ret(sv: float) -> tuple[float, float]:
        return poincare_return(field, section, sv, cfg.tol, cfg, rhs=rhs)

    lo_lim = 1e-3 * section.s_max
    hi_lim = section.s_max * (1.0 - 1e-3)

    s_cur = s0
    r_cur, t_cur = ret(s_cur)
    f_cur = r_cur - s_cur
    if abs(f_cur) > cfg.eps_fix:
        max_step = 0.1 * section.s_max
        step = max(-max_step, min(max_step, f_cur))
        s_prev, f_prev = s_cur, f_cur
        s_cur = min(hi_lim, max(lo_lim, s_cur + step))
        converged = False
        for _ in range(cfg.max_iters):
            r_cur, t_cur = ret(s_cur)
            f_cur = r_cur - s_cur
            if abs(f_cur) <= cfg.eps_fix:
                converged = True
                break
            denom = f_cur - f_prev
            if denom == 0.0:
                raise CycleSearchError("secant iteration stalled (flat return map)")
            step = -f_cur * (s_cur - s_prev) / denom
            step = max(-max_step, min(max_step, step))
            s_prev, f_prev = s_cur, f_cur
            s_cur = min(hi_lim, max(lo_lim, s_cur + step))
        if not converged:
            raise CycleSearchError(
                f"no fixed point after {cfg.max_iters} iterations (last residual {f_cur:.3g})"
            )

    h = max(cfg.fd_scale, cfg.fd_scale * abs(s_cur))
    h = min(h, 0.25 * (s_cur - lo_lim), 0.25 * (hi_lim - s_cur))
    if h <= 0:
        raise CycleSearchError("fixed point too close to the section endpoint")
    r_plus, _ = ret(s_cur + h)
    r_minus, _ = ret(s_cur - h)
    mu = (r_plus - r_minus) / (2.0 * h)
    return LimitCycleRecord(
        anchor=section.point_at(s_cur),
        period=t_cur,
        multiplier=mu,
        certified=abs(mu - 1.0) > cfg.eps_hyp,
    )


def _perp(vec: tuple[float, float]) -> tuple[float, float]:
    return (-vec[1], vec[0])


def _section_through(point, field_dir, half_length: float) -> Section:
    """Section of half-length `half_length` through `point`, perpendicular
    to the local field direction; the cycle sits near s = half_length."""
    norm = math.hypot(*field_dir)
    tangent = (field_dir[0] / norm, field_dir[1] / norm)
    d = _perp(tangent)
    base = (point[0] - half_length * d[0], point[1] - half_length * d[1])
    return Section(base=base, direction=d, s_max=2.0 * half_length)


def branch_sign(k: int) -> int:
    """Sign of T_m' on branch k under the right-to-left indexing."""
    return 1 if k % 2 == 1 else -1


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
    back certified hyperbolic, strictly inside its rectangle with the
    configured margin.  orientation_reversed records the sign of the
    time-change factor on the rectangle, computed exactly from the
    branch parity (negative lambda flips the return map to its inverse,
    hence the multiplier to its reciprocal).
    """
    if m != pb.cover_degree:
        raise ValueError(f"m={m} does not match the pullback cover degree {pb.cover_degree}")
    if pb.cover_poly != chebyshev(m):
        raise ValueError("lifting requires the Chebyshev cover polynomial")
    if not base.certified:
        raise ValueError("base cycle must be certified hyperbolic")
    xb, yb = base.anchor
    if not (abs(xb) < 1.0 and abs(yb) < 1.0):
        raise ValueError("base anchor must lie strictly inside (-1, 1)^2")

    bset = cheb_branches(m)
    rhs = field_rhs(pb)
    records: dict[tuple[int, int], LimitCycleRecord] = {}
    failures: list[tuple[int, int, str]] = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            rect = BranchRectangle(i, j, bset.intervals[i - 1], bset.intervals[j - 1])
            try:
                seed = (branch_inverse(m, i, xb), branch_inverse(m, j, yb))
                clearance = rect.boundary_distance(seed)
                half = min(0.45 * clearance, cfg.section_cap)
                if half <= cfg.margin:
                    raise CycleSearchError("seed too close to the rectangle boundary")
                sec = _section_through(seed, rhs(0.0, seed), half)
                rec = find_cycle(pb, sec, half, cfg, rhs=rhs)
                if not rec.certified:
                    raise CycleSearchError(
                        f"lifted cycle not certified hyperbolic (multiplier {rec.multiplier:.6g})"
                    )
                if not rect.contains(rec.anchor, cfg.margin):
                    raise CycleSearchError("lifted anchor left its branch rectangle")
                lam_sign = branch_sign(i) * branch_sign(j)
                records[(i, j)] = replace(
                    rec, rect=rect, orientation_reversed=(lam_sign < 0)
                )
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


def records_to_json(records: list[LimitCycleRecord]) -> list[dict]:
    out = []
    for r in records:
        out.append(
            {
                "i": r.rect.i if r.rect else 0,
                "j": r.rect.j if r.rect else 0,
                "anchor_u": r.anchor[0],
                "anchor_v": r.anchor[1],
                "period": r.period,
                "multiplier": r.multiplier,
                "orientation_reversed": r.orientation_reversed,
                "certified": r.certified,
            }
        )
    return out
