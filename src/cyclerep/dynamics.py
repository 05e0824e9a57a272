"""Numerical flow, Poincaré sections, and limit-cycle lifting.

Trajectories come from an adaptive Dormand-Prince 8(5,3) integrator with
degree-7 dense output, `DOP853`: scipy's algorithm (tableau, first step,
step controller, error norm) on Python floats.  Its trial step is one
straight-line function generated from the tableau, so that a step costs
its twelve RHS calls and little else, and the three more of the
interpolant only on a step that is interpolated.  At the default
tol the eighth-order pair takes about a fifth of the steps of a 5(4)
pair.  Beside the state it carries w = integral of div f, a quadrature
lane that stays out of the error norm, so the state takes the steps it
would take alone.  One loop steps it for both `integrate` and
`poincare_return`; section crossings are located by scanning the
accepted steps for sign changes of the signed section coordinate, and
refined on the crossing step's interpolant by the in-module Brent
method, `brentq`, so the package needs no numpy or scipy at runtime.
A field is evaluated by `field_rhs`: one straight-line function of
(u, v) per field, written from the sparse Horner steps of BiPolys, a
PullbackResult through its factors p'(v) P(p(u), p(v)) and
p'(u) Q(p(u), p(v)), with a Chebyshev cover as its prime-factor chain.
Cycles are fixed points of the return map, found by Newton iteration on
return(s) - s.  The slope of a planar return map is given by Liouville's
formula, exp(w) times a transversality ratio, so one return yields both
the Newton step and the multiplier of an accepted cycle.

Lifting: a certified cycle of X inside (-1,1)^2 is carried to each of
the m^2 branch rectangles of the Chebyshev pullback by inverting the
cover branch-wise at the anchor point and re-running the cycle search on
the pullback field.  Searches in distinct rectangles are independent of
each other (results are merged in (i, j) order).  For even m the pullback
is odd to the bit, so the search in rectangle (m+1-i, m+1-j) is the one in
(i, j) negated, and only rows 1..m/2 are searched.  Everything here is
deterministic, with no randomness or wall-clock dependence.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import ClassVar

from .branches import BranchInterval, branch_inverse, cheb_branches
from .polynomials import (
    BiPoly, Scalar, VectorField2, chebyshev, compose_separable, csv_text, fmt9, _as_fraction,
)
from .pullback import PullbackResult


class DynamicsError(RuntimeError):
    """Base class for numerical failures in this module."""


class IntegrationError(DynamicsError):
    def __init__(self, message: str, last_state=None, last_time: float | None = None):
        super().__init__(message)
        self.last_state = last_state
        self.last_time = last_time


class NoReturnError(DynamicsError):
    """Trajectory never re-crossed the section within the time, turn or step budget."""


class DegenerateCrossingError(DynamicsError):
    """Section crossing with (nearly) tangent field."""


class CycleSearchError(DynamicsError):
    """Fixed-point iteration for the return map failed."""


class LiftError(DynamicsError):
    """Some branch rectangles failed to produce a certified cycle: `failures`
    holds (i, j, the DynamicsError) per failed rectangle, `records` the rest."""

    def __init__(self, failures, records):
        names = ", ".join(f"({i},{j})" for i, j, _ in failures)
        super().__init__(f"lift failed in rectangles {names}")
        self.failures = failures
        self.records = records


@dataclass(frozen=True)
class DynamicsConfig:
    """The fixed limits of the return map and the cycle search, as class
    constants.  A miss is bounded in turns as well as in time: the
    pullback's time change keeps the turns and shortens the time.  Only
    `integrate` takes a tolerance, defaulting to `tol`; the return map
    integrates at `tol`."""

    tol: ClassVar[float] = 1e-10            # integrator local error control
    eps_fix: ClassVar[float] = 1e-9         # |return(s) - s| at an accepted fixed point
    eps_transverse: ClassVar[float] = 1e-8  # minimum |normal . field| at a crossing
    eps_hyp: ClassVar[float] = 1e-3         # |multiplier - 1| needed to certify
    margin: ClassVar[float] = 1e-3          # anchor clearance from rectangle boundary
    max_iters: ClassVar[int] = 40
    t_max: ClassVar[float] = 200.0          # return-map time budget
    max_off_crossings: ClassVar[int] = 8    # return-map turn budget: crossings off the segment
    max_steps: ClassVar[int] = 300          # return-map step budget: accepted RK steps
    integrate_steps: ClassVar[int] = 10_000  # `integrate` step budget: accepted RK steps
    section_cap: ClassVar[float] = 0.05     # half-length cap for auto-built sections


DEFAULT_CONFIG = DynamicsConfig()


def compile_component(f: BiPoly):
    """Float evaluator of f on floats or numpy arrays: `f.evaluate_float`,
    the sparse Horner plan of f run by one closure built once per f, for
    any degree."""
    return f.evaluate_float


# links per expression: each nests one more pair of parentheses, and the
# tokenizer refuses more than 200
_NEST = 32


def _chain(out: str, first: str, links) -> tuple[list[str], str]:
    """Horner's chain from first, then `acc * x + a` for each (x, a) in
    links, as (lines, expr): expr, the chain's value, nests at most _NEST
    links.  A longer chain is cut every _NEST links, where a line of lines
    assigns the value so far to out and expr goes on from out.  first is
    a name, a literal or in parentheses."""
    lines, expr = [], first
    for k, (x, a) in enumerate(links):
        if k % _NEST:
            expr = f"({expr})"
        elif k:
            lines.append(f"{out} = {expr}")
            expr = out
        expr = f"{expr} * {x} + {a}"
    return lines, expr


def _power(x: str, g: int) -> str:
    """The name of x**g in the RHS source: x itself for g = 1."""
    return x if g == 1 else f"{x}{g}"


def _bipoly_lines(out: str, plan, x: str, y: str) -> list[str]:
    """A BiPoly's `horner_plan` at (x, y) as source lines assigning out,
    over the power names of `_power`: each row one expression in y, set
    in the u-chain as its link, a row cut by `_chain` going on from a name
    of its own, out_k for row k."""
    lines, rows = [], []
    for k, (gu, ((_, first), *steps)) in enumerate(plan):
        cut, expr = _chain(f"{out}_{k}", repr(first), [(_power(y, g), repr(c)) for g, c in steps])
        lines += cut
        rows.append((_power(x, gu), f"({expr})" if steps else expr))
    (_, first), *links = rows
    cut, expr = _chain(out, first, links)
    return lines + cut + [f"{out} = {expr}"]


def _horner_lines(x: str, y: str, polys) -> list[str]:
    """BiPolys [(out, f)] at (x, y) as source lines: the powers of x and y
    that their plans step across, each the one below times x (or y), then
    each plan (`_bipoly_lines`)."""
    plans = [(out, f.horner_plan()) for out, f in polys]
    top_x = max(gu for _, plan in plans for gu, _ in plan)
    top_y = max(g for _, plan in plans for _, row in plan for g, _ in row)
    return [f"{_power(z, g)} = {_power(z, g - 1)} * {z}" for z, top in ((x, top_x), (y, top_y))
            for g in range(2, top + 1)] + [line for out, plan in plans for line in _bipoly_lines(out, plan, x, y)]


def field_rhs(field: VectorField2 | PullbackResult):
    """Right-hand side for the ODE solver: rhs(u, v) = (u', v', div), with
    u and v Python floats (the field is autonomous, so it takes no t).

    The divergence rides along for the integrator's w lane.  A
    PullbackResult is evaluated through its factors, as
    (p'(v) P(x, y), p'(u) Q(x, y)) with x = p(u), y = p(v), and divergence
    p'(u) p'(v) (div X)(x, y): Horner on the expanded field loses digits
    as m grows (1.5e-5 at m = 10 relative to the largest |Y| on the cubic
    seed).  A cover equal to T_m is the chain of the T_q of the prime
    factors q of m, ascending (T_a o T_b = T_ab), and p' the product of
    the T_q' (chain rule); any other cover is one factor.  x and p'(u) are
    within 5e-13 and 1e-11 of exact, relative to max(1, |.|), for each
    m <= 128 whose prime factors are at most 7 (3.5e7 by Horner on the
    monomials of T_64); a prime factor q keeps that Horner's error, about
    (1 + sqrt 2)**q eps: 2e6 at m = 61.  A VectorField2 is evaluated at
    x, y = u, v; its divergence is the exact polynomial dP/du + dQ/dv.

    The RHS has no loop or call between the steps: P, Q, div X and each
    cover factor and its derivative are the floats of their
    `BiPoly.evaluate_float`, over powers computed once
    (`_horner_lines`), each chain an expression cut every _NEST links
    (`_chain`), so any degree compiles.  States become floats where they
    enter (`DOP853`, `Section`).  The RHS is built once per field object
    and kept in its __dict__, so the field can no longer be pickled.
    """
    rhs = vars(field).get("_rhs")
    if rhs is not None:
        return rhs
    lines = []
    if isinstance(field, PullbackResult):
        X, p, factors, n = field.source, field.cover_poly, [], field.cover_poly.degree()
        if n < 2 or p != chebyshev(n):  # any other cover is one factor
            factors, n = [p], 1
        while n > 1:  # T_m = ... o T_q2 o T_q1, q1 <= q2 <= ... the prime factors of m (T_a o T_b = T_ab)
            q = next(q for q in range(2, n + 1) if n % q == 0)  # the least prime factor of n
            factors, n = factors + [chebyshev(q)], n // q
        for x, dx, at in (("x", "du", "u"), ("y", "dv", "v")):  # factor k of several as x + "k_", dx + "k_"
            names = [(f"{x}{k}_", f"{dx}{k}_") for k in range(1, len(factors))] + [(x, dx)]
            for f, (out, slope) in zip(factors, names):  # so a power, x1_2 = x1_ * x1_, is no `_power` name
                lines += _horner_lines(at, at, [(slope, BiPoly.from_uni(f.derivative(), 0)),
                                                (out, BiPoly.from_uni(f, 0))])
                at = out
            lines += [f"{dx} = {' * '.join(slope for _, slope in names)}"] * (len(factors) > 1)
        x, y, result = "x", "y", "(dv * P, du * Q, du * dv * D)"
    else:
        X, x, y, result = field, "u", "v", "(P, Q, D)"
    lines += _horner_lines(x, y, [("P", X.p_comp), ("Q", X.q_comp), ("D", X.divergence)])
    source = "def rhs(u, v):\n" + "".join(f"    {line}\n" for line in lines + [f"return {result}"])
    namespace: dict = {}
    exec(compile(source, "<field_rhs>", "exec"), namespace)
    rhs = vars(field)["_rhs"] = namespace["rhs"]
    return rhs


# Prince & Dormand's (1981) 8(5,3) pair with its degree-7 dense output:
# scipy's DOP853 tableau, the coefficients of Hairer's dop853.f (Hairer,
# Norsett & Wanner, Solving ODEs I, II.10), as the nearest floats.  A stage
# is (c, its nonzero (k, a) entries), k counting the stages from 0; the
# field is autonomous, so the stepper does not read c.  `_A`
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


@functools.cache
def _kernels():
    """(trial, extra), generated from the tableau and compiled on first use
    (not at import, which every CLI process would pay).

    trial(fun, y0, y1, h, k0) makes stages 1..11 of a step of h from
    (y0, y1), k0 being f there, and returns ([k0, ..., k11], bu, bv, bd,
    e5u, e5v, e3u, e3v): the b-weighted sums of the (u, v, div) lanes and
    the 5th- and 3rd-order error sums of the (u, v) lanes.  extra(fun, y0,
    y1, h, K), K the 13 stages of an accepted step, makes stages 13..15
    and returns, per lane, the sums of the interpolant's rows 3..6.  Stage
    N is one line, `kNu, kNv, kNd = kN = fun(y0 + (...) * h, ...)`.  Each
    sum is `0.0 + kKu * a + ...` over its nonzero weights in stage order,
    the floats of the loop `s = 0.0; s += k * a` it replaces.
    """

    def total(lane: str, column) -> str:
        return " + ".join(["0.0"] + [f"k{k}{lane} * {a!r}" for k, a in column])

    def stages(rows, first: int) -> list[str]:
        return [
            f"k{n}u, k{n}v, k{n}d = k{n} = fun(y0 + ({total('u', row)}) * h, y1 + ({total('v', row)}) * h)"
            for n, (_, row) in enumerate(rows, first)
        ]

    b, e5, e3 = ([(k, weights[i]) for k, *weights in _BE] for i in range(3))
    trial = ["k0u, k0v, k0d = k0", *stages(_A, 1)]
    trial += [f"{name}{lane} = {total(lane, col)}"
              for name, col, lanes in (("b", b, "uvd"), ("e5", e5, "uv"), ("e3", e3, "uv")) for lane in lanes]
    trial.append(f"return [{', '.join(f'k{n}' for n in range(12))}], bu, bv, bd, e5u, e5v, e3u, e3v")
    extra = [", ".join(f"(k{n}u, k{n}v, k{n}d)" for n in range(13)) + " = K", *stages(_A_EXTRA, 13)]
    g = [[(k, d[i]) for k, d in _D] for i in range(4)]
    extra += [f"g{i + 3}{lane} = {total(lane, col)}" for lane in "uvd" for i, col in enumerate(g)]
    extra.append("return " + ", ".join(f"(g3{lane}, g4{lane}, g5{lane}, g6{lane})" for lane in "uvd"))
    source = "".join(
        f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
        for name, args, body in (("trial", "fun, y0, y1, h, k0", trial), ("extra", "fun, y0, y1, h, K", extra))
    )
    namespace: dict = {}
    exec(compile(source, "<DOP853>", "exec"), namespace)
    return namespace["trial"], namespace["extra"]


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
    it takes the same steps.  It runs from t = 0 to t_bound at the one
    tolerance tol: rtol = tol (at least scipy's floor of 100 eps) and
    atol = tol * 1e-2.  A trial is one function generated from the
    tableau on first use (`_kernels`): its stages and weighted sums written
    out, each sum from 0.0 over its nonzero weights in stage order, so a
    step costs its twelve RHS calls and little else.  `fun(u, v)` returns
    (u', v', div) at floats u, v; the start state is made floats here.  w,
    the integral of div from t = 0, is summed from the same stages with the
    same weights and has its own rows in the interpolant, but stays out of
    the error norm and the step size, so the state `y` steps as it would
    alone.  A trial whose stages overflow has a nan or inf error norm and
    is rejected with the smallest factor.  `step` makes one accepted step;
    when the step size falls below 10 ulp(t) it raises IntegrationError
    with the last accepted state, which for a polynomial field means
    finite-time blowup.
    """

    def __init__(self, fun, y0, t_bound: float, tol: float):
        atol = tol * 1e-2
        if not (0 < tol < math.inf and 0 < atol):
            raise ValueError(f"tolerances must be positive and finite, got tol={tol}, atol={atol}")
        self.fun = fun
        self.t, self.y, self.t_bound = 0.0, (float(y0[0]), float(y0[1])), float(t_bound)
        if not (math.isfinite(self.y[0]) and math.isfinite(self.y[1])):
            raise ValueError(f"start state must be finite, got {self.y}")
        self.w = 0.0
        self.rtol, self.atol = max(tol, 100 * sys.float_info.epsilon), atol  # scipy's floor on rtol
        self.t_old = self.y_old = self.w_old = self.K = None
        self.f = fun(*self.y)
        self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        (y0, y1), (f0, f1, _), span = self.y, self.f, self.t_bound - self.t
        s0, s1 = self.atol + abs(y0) * self.rtol, self.atol + abs(y1) * self.rtol
        d0, d1 = _rms(y0 / s0, y1 / s1), _rms(f0 / s0, f1 / s1)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
        g0, g1, _ = self.fun(y0 + h0 * f0, y1 + h0 * f1)
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
        trial = _kernels()[0]
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step fails here too
                raise IntegrationError("step size underflow", last_state=y, last_time=t)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            K, bu, bv, bd, e5u, e5v, e3u, e3v = trial(fun, y0, y1, h, self.f)
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
        K.append(fun(*y_new))  # stage 12: f at the end, the next step's first
        self.t_old, self.y_old, self.w_old, self.K = t, y, self.w, K
        self.t, self.y, self.f, self.h_abs = t_new, y_new, K[12], h * factor
        self.w += h * bd

    def dense_output(self) -> _DenseStep:
        """The interpolant of (u, v, w) over the last accepted step; its
        three extra stages are computed here, so a step that is not
        interpolated does not pay for them."""
        t_old, h, K = self.t_old, self.t - self.t_old, self.K
        G = _kernels()[1](self.fun, *self.y_old, h, K)
        y_old, F = self.y_old + (self.w_old,), []
        for lane, y0, y1, (g3, g4, g5, g6) in zip(range(3), y_old, self.y + (self.w,), G):
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
    solver = RK45(rhs, z0, t_bound, tol)
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
    DegenerateCrossingError: the one caller refines a section crossing,
    and a bracket that will not close is a crossing too flat to locate.
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
    raise DegenerateCrossingError(f"Brent's method did not converge in {maxiter} iterations (last x={xcur!r})")


def integrate(
    field: VectorField2 | PullbackResult,
    start,
    t_span: float,
    n: int,
    tol: float = DynamicsConfig.tol,
) -> list[tuple[float, float]]:
    """The n + 1 (u, v) states of `start`'s flow at the times k (t_span/n),
    k < n, then t_span, with local error control tol.

    The times are numpy.linspace's, and each state is read on the
    interpolant of the first accepted step that ends at or after its time,
    as scipy's OdeSolution reads it; only a step that holds a sample time
    is interpolated.  The RHS is `field_rhs(field)`, whose divergence lane
    w never steers the steps.  Raises IntegrationError (carrying the last
    valid state) on finite-time blowup or when t_span takes more than
    DynamicsConfig.integrate_steps accepted steps (a stiff field, whose
    steps stability bounds), and ValueError for a tol or t_span that is not
    positive and finite, or n < 1.
    """
    if not (0 < t_span < math.inf and n >= 1):
        raise ValueError(f"need 0 < t_span < inf and n >= 1, got t_span={t_span}, n={n}")
    t_span = float(t_span)
    times = [k * (t_span / n) for k in range(n)] + [t_span]
    states: list[tuple[float, float]] = []
    budget = DynamicsConfig.integrate_steps
    for steps, solver in enumerate(_steps(field_rhs(field), (float(start[0]), float(start[1])), t_span, tol), 1):
        if times[len(states)] <= solver.t:
            piece = solver.dense_output()
            while len(states) <= n and times[len(states)] <= solver.t:
                states.append(piece.at(times[len(states)], 2))
        if steps >= budget and solver.t < t_span:
            raise IntegrationError(
                f"t_span={t_span} not reached within {budget} RK steps (t={solver.t})",
                last_state=solver.y, last_time=solver.t,
            )
    return states


@dataclass(frozen=True)
class Section:
    """Transverse segment base + s*direction, s in (0, s_max).

    A section has no orientation of its own: `poincare_return` waits for
    the crossing in the direction the field takes at the start point.
    Its numbers are stored as Python floats, whatever type they came in,
    so that the points on it, and the records anchored there, are floats.
    """

    base: tuple[float, float]
    direction: tuple[float, float]
    s_max: float

    def __post_init__(self) -> None:
        dx, dy = float(self.direction[0]), float(self.direction[1])
        if not all(map(math.isfinite, (*self.base, dx, dy, self.s_max))):
            raise ValueError(f"section numbers must be finite, got {self.base}, {self.direction}, {self.s_max}")
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise ValueError("section direction must be nonzero")
        if abs(norm - 1.0) > 1e-9:
            dx, dy = dx / norm, dy / norm
        object.__setattr__(self, "base", (float(self.base[0]), float(self.base[1])))
        object.__setattr__(self, "direction", (dx, dy))
        object.__setattr__(self, "s_max", float(self.s_max))
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
) -> tuple[float, float, float]:
    """First same-orientation return of the flow to the section.

    Integrates at DynamicsConfig.tol and watches the signed section
    offset, its sign set by the field at the start point; when an accepted
    step brackets a crossing in that direction, the crossing time is
    refined on that step's dense interpolant.  The first such crossing
    inside (0, s_max) is the return: the integration stops there, so
    unstable cycles are not flowed past their return.  Returns (new
    parameter, flight time, slope).  A crossing whose refinement does not
    converge raises DegenerateCrossingError.  NoReturnError is raised
    after max_off_crossings + 1 crossings of the section's line off the
    segment (an orbit that turns but misses), at t_max (one that never
    turns: drift, or a node) or after max_steps accepted steps (a step
    size that collapses), each a DynamicsConfig constant.

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
    z0 = section.point_at(float(s))
    f0 = rhs(*z0)
    fn0 = f0[0] * n[0] + f0[1] * n[1]
    if abs(fn0) <= DynamicsConfig.eps_transverse:
        raise DegenerateCrossingError(f"field tangent to section at start (|f.n|={abs(fn0):.3g})")
    sgn = 1 if fn0 > 0 else -1

    def gval(z) -> float:
        return sgn * ((z[0] - section.base[0]) * n[0] + (z[1] - section.base[1]) * n[1])

    g_prev, t_prev, off = gval(z0), 0.0, 0
    for steps, solver in enumerate(_steps(rhs, z0, DynamicsConfig.t_max, DynamicsConfig.tol), 1):
        g_new = gval(solver.y)
        if g_prev < 0.0 <= g_new:
            dense = solver.dense_output()
            t_star = solver.t if g_new == 0.0 else brentq(lambda t: gval(dense.at(t, 2)), t_prev, solver.t)
            # rounding can put the start point a hair on the wrong side
            if t_star >= 1e-9:
                u, v, w = dense.at(t_star)
                s_new = section.param_of((u, v))
                if 0.0 < s_new < section.s_max:
                    f_star = rhs(u, v)
                    fn_star = f_star[0] * n[0] + f_star[1] * n[1]
                    if abs(fn_star) <= DynamicsConfig.eps_transverse:
                        raise DegenerateCrossingError("tangential crossing of the section")
                    # w beyond exp's range: an expansion no float can hold
                    slope = (math.exp(w) if w < 709.0 else math.inf) * fn0 / fn_star
                    return float(s_new), float(t_star), slope
                off += 1
                if off > DynamicsConfig.max_off_crossings:
                    raise NoReturnError(
                        f"no return to the section: the orbit crossed its line off the segment {off} times"
                    )
        if steps >= DynamicsConfig.max_steps:
            raise NoReturnError(f"no return to the section within {steps} RK steps")
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
) -> LimitCycleRecord:
    """Locate a fixed point of the return map by Newton iteration on
    return(s) - s.

    Each return brings its own slope (see `poincare_return`).  The Newton
    step is taken when both it and the residual f fit in a trust radius of
    0.1 s_max and it lands in the section's inner 99.8%; otherwise the
    iterate moves to its return, a point of the segment that the orbit
    reaches, clipped to that inner part.  The
    multiplier is the slope of the accepted return, so a record costs no
    return beyond the search; one whose multiplier sits within eps_hyp of
    1 is returned flagged non-certified.  A hyperbolic fixed point within
    reach of a tangency of the field raises DegenerateCrossingError: the
    returns closed in on an equilibrium.
    """
    rhs = field_rhs(field)
    lo_lim = 1e-3 * section.s_max
    hi_lim = section.s_max * (1.0 - 1e-3)
    radius = 0.1 * section.s_max

    s_cur = float(s0)
    for _ in range(DynamicsConfig.max_iters + 1):
        r_cur, t_cur, mu = poincare_return(field, section, s_cur)
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
                    fu, fv, _ = rhs(*section.point_at(sk))
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
        s_new = s_cur + step
        if max(abs(f_cur), abs(step)) > radius or not lo_lim <= s_new <= hi_lim:
            # beyond the trust radius, or off the segment, follow the flow
            # to the return, a point of the segment the orbit visits: a
            # Newton step across a repelling cycle can land where the flow
            # never returns, and toward an attracting one the return lies
            # within |mu| |s - s*| of it
            s_new = r_cur
        s_cur = min(hi_lim, max(lo_lim, s_new))
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


def _lift_rect(pb: PullbackResult, rect: BranchRectangle, seed) -> LimitCycleRecord:
    """The search of `lift_cycles` in one branch rectangle, from its seed:
    a section through the seed, across the field, of half-length 0.45 of
    the seed's clearance (at most section_cap); the record, with its rect,
    must come back certified and inside rect by DynamicsConfig.margin,
    else CycleSearchError."""
    clearance = rect.boundary_distance(seed)
    half = min(0.45 * clearance, DynamicsConfig.section_cap)
    if half <= DynamicsConfig.margin * min(rect.u_interval.hi - rect.u_interval.lo,
                                           rect.v_interval.hi - rect.v_interval.lo):
        raise CycleSearchError("seed too close to the rectangle boundary")
    sec = _section_through(seed, field_rhs(pb)(*seed)[:2], half)
    rec = find_cycle(pb, sec, half)
    if not rec.certified:
        raise CycleSearchError(f"lifted cycle not certified hyperbolic (multiplier {rec.multiplier:.6g})")
    if not rect.contains(rec.anchor, DynamicsConfig.margin):
        raise CycleSearchError("lifted anchor left its branch rectangle")
    return replace(rec, rect=rect)


def lift_cycles(
    pb: PullbackResult,
    base: LimitCycleRecord,
    m: int,
) -> list[LimitCycleRecord]:
    """Carry a certified base cycle into every branch rectangle of the
    Chebyshev pullback: m^2 records, ordered by (i, j).

    Each rectangle is seeded by the branch-wise inverse of the anchor,
    searched with a local section (`_lift_rect`), and required to come
    back certified hyperbolic, strictly inside its rectangle by
    DynamicsConfig.margin.  A record's orientation_reversed follows from
    its rect: the sign of the time-change factor, the product of the
    directions of its two branches (negative lambda flips the return map
    to its inverse, hence the multiplier to its reciprocal).  An uncertified
    base cycle or a failed branch inverse raises CycleSearchError.

    For even m the pullback of any seed is odd, Y(-u, -v) = -Y(u, v), and
    so in floats: the factored RHS writes T_m from T_2, even to the bit,
    and T_m' as T_2' = 4u times factors at T_2's value.  Branch m + 1 - k
    mirrors branch k (the nodes are exact negations), its seed the exact
    negation of branch k's, and section, stepper, crossing refinement and
    Newton step are sign-symmetric.  So rows i > m/2 run no search: each
    takes the record of its mirror (m + 1 - i, m + 1 - j), the anchor
    negated, or the mirror's error object (an IntegrationError keeps the
    mirror's last_state).  Odd m searches every rectangle.
    """
    bset = cheb_branches(m)
    if pb.cover_poly != bset.poly:
        raise ValueError(f"lifting requires the Chebyshev cover polynomial T_{m}")
    if not base.certified:
        raise CycleSearchError(f"base cycle not certified hyperbolic: multiplier {fmt9(base.multiplier)}"
                               f" within eps_hyp={DynamicsConfig.eps_hyp:g} of 1")
    xb, yb = base.anchor
    if not (abs(xb) < 1.0 and abs(yb) < 1.0):
        raise ValueError("base anchor must lie strictly inside (-1, 1)^2")

    # the m^2 seeds share 2m coordinates: branch i of xb, branch j of yb;
    # for even m branches m/2 + 1..m are the mirrors of m/2..1
    mirrored = m % 2 == 0
    inverted = range(1, (m // 2 if mirrored else m) + 1)
    try:
        us = [branch_inverse(m, k, xb) for k in inverted]
        vs = [branch_inverse(m, k, yb) for k in inverted]
    except ArithmeticError as err:
        raise CycleSearchError(str(err)) from err
    if mirrored:
        us += [-u for u in reversed(us)]
        vs += [-v for v in reversed(vs)]
    records: dict[tuple[int, int], LimitCycleRecord] = {}
    failures: dict[tuple[int, int], DynamicsError] = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            rect = BranchRectangle(i, j, bset.intervals[i - 1], bset.intervals[j - 1])
            mirror = (m + 1 - i, m + 1 - j)
            if mirrored and mirror in records:
                rec = records[mirror]
                records[(i, j)] = replace(rec, anchor=(-rec.anchor[0], -rec.anchor[1]), rect=rect)
            elif mirrored and mirror in failures:
                failures[(i, j)] = failures[mirror]
            else:
                try:
                    records[(i, j)] = _lift_rect(pb, rect, (us[i - 1], vs[j - 1]))
                except DynamicsError as err:
                    failures[(i, j)] = err
    if failures:
        raise LiftError([(i, j, err) for (i, j), err in failures.items()], records)
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
    header = ["i", "j", "anchor_u", "anchor_v", "period", "multiplier", "orientation_reversed"]
    return csv_text([header] + [
        [r.rect.i if r.rect else 0, r.rect.j if r.rect else 0,
         fmt9(r.anchor[0]), fmt9(r.anchor[1]), fmt9(r.period), fmt9(r.multiplier),
         "true" if r.orientation_reversed else "false"]
        for r in records
    ])
