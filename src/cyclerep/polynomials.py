"""Exact polynomial arithmetic over the rationals.

Univariate polynomials are dense (tuple of coefficients, index = power,
no trailing zeros); bivariate polynomials are sparse (sorted tuple of
((deg_u, deg_v), coefficient) pairs, zero coefficients never stored).
Coefficients are `fractions.Fraction`, so everything in this module is
exact; floating point enters only through the ``*_float`` evaluators
used at the symbolic/numeric boundary.  The exact operations are the
ones a separable pullback needs: sums and products of bivariate
polynomials, derivatives, the substitution `compose_separable` (the one
composition) and evaluation.  Products, the substitution and univariate
evaluation do not multiply Fractions: they accumulate the integer
numerators of their operands over one common denominator and build one
Fraction per output coefficient.

The degree of the zero polynomial is the sentinel ``NEG_INF`` (minus
infinity), never -1, so degree laws cannot pass vacuously on zero
inputs.

All values are immutable after construction and every operation is a
pure function, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index, mul
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

NEG_INF = float("-inf")


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def as_integer(k) -> int:
    """k as an int; ValueError unless k is an integer (so 0.5, "1" or True
    is rejected, not truncated, parsed or read as 1)."""
    # a JSON true is not 1; bool has no subclasses, so this is isinstance, only cheaper
    if type(k) is not bool:
        try:
            return index(k)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {k!r}")


def integer_numerators(coeffs: Iterable[Fraction]) -> tuple[list[int], int]:
    """(N, den) with coeffs[i] == N[i] / den, den the lcm of the denominators."""
    coeffs = tuple(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients, constant first, of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _sum_products(pairs, width: int, den: int) -> "BiPoly":
    """The BiPoly sum of a * b / den over (a, b) in pairs, a and b integer
    polynomials as lists of (du * width + dv, coefficient)."""
    sums = defaultdict(int)
    for a, b in pairs:
        for i, ca in a:
            for j, cb in b:
                sums[i + j] += ca * cb
    return BiPoly({divmod(k, width): Fraction(n, den) for k, n in sums.items() if n})


def _powers(base, one, times=mul):
    """Lazy table k -> base**k, each new power times(previous power, base)."""
    cache = [one]

    def power(k: int):
        while len(cache) <= k:
            cache.append(times(cache[-1], base))
        return cache[k]

    return power


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; ``coeffs[k]`` multiplies x**k."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [_as_fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def degree(self) -> Union[int, float]:
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def derivative(self) -> "UniPoly":
        """The derivative, computed once per polynomial."""
        return self._derivative

    @cached_property
    def _derivative(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def evaluate(self, x: Scalar) -> Fraction:
        """self(x) exactly: with x = a/b and self = N/den, the integer sum
        of N[i] * a**i * b**(n - i) (Horner), over den * b**n."""
        a, b = _as_fraction(x).as_integer_ratio()
        N, den = self._numerators
        acc, scale = 0, 1
        for c in reversed(N):
            acc, scale = acc * a + c * scale, scale * b
        return Fraction(acc, den * scale // b)

    @cached_property
    def _numerators(self) -> tuple[tuple[int, ...], int]:
        """`integer_numerators` of the coefficients ((0,), 1 for zero),
        computed once per polynomial: the lcm is most of an exact evaluation
        at large degree."""
        N, den = integer_numerators(self.coeffs or (Fraction(0),))
        return tuple(N), den

    def horner_floats(self) -> tuple[float, ...]:
        """The float coefficients from the highest power down, (0.0,) for
        zero: the Horner steps of `evaluate_float`, one per entry after
        the first."""
        return tuple(float(c) for c in reversed(self.coeffs)) or (0.0,)

    @cached_property
    def evaluate_float(self):
        """Float evaluator x -> self(x), x a float or a numpy array: Horner
        over `horner_floats`, built once per polynomial.  The closure
        lives in the instance __dict__, so a polynomial evaluated in
        floats can no longer be pickled."""
        lead, *tail = self.horner_floats()
        tail = tuple(tail)

        def evaluate_float(x):
            acc = lead
            for c in tail:
                acc = acc * x + c
            return acc

        return evaluate_float


def chebyshev(m: int) -> UniPoly:
    """Chebyshev polynomial of the first kind, via the three-term recurrence.

    T_0 = 1, T_1 = x, T_{k+1} = 2x T_k - T_{k-1}.  Degree is exactly m and
    the leading coefficient is 2**(m-1) for m >= 1, so coefficients need
    arbitrary precision.
    """
    if m < 0:
        raise ValueError(f"Chebyshev index must be >= 0, got {m}")
    prev, cur = [0, 1], [1]  # T_-1 = T_1 = x and T_0, as integer lists
    for _ in range(m):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return UniPoly(tuple(cur))


Term = tuple[tuple[int, int], Fraction]


@dataclass(frozen=True)
class BiPoly:
    """Sparse bivariate polynomial in (u, v); zero coefficients never stored."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        raw = self.terms.items() if isinstance(self.terms, Mapping) else self.terms
        acc: dict[tuple[int, int], Fraction] = {}
        for (du, dv), c in raw:
            c = _as_fraction(c)
            if c == 0:
                continue
            key = (as_integer(du), as_integer(dv))
            if key[0] < 0 or key[1] < 0:
                raise ValueError(f"negative exponent {key}")
            acc[key] = acc[key] + c if key in acc else c
        object.__setattr__(
            self, "terms", tuple(sorted((k, v) for k, v in acc.items() if v != 0))
        )

    @classmethod
    def from_uni(cls, p: UniPoly, var: int) -> "BiPoly":
        """Embed a univariate polynomial as p(u) (var=0) or p(v) (var=1)."""
        if var not in (0, 1):
            raise ValueError("var must be 0 (first coordinate) or 1 (second)")
        if var == 0:
            return cls({(k, 0): c for k, c in enumerate(p.coeffs)})
        return cls({(0, k): c for k, c in enumerate(p.coeffs)})

    def total_degree(self) -> Union[int, float]:
        """max(deg_u + deg_v) over stored terms; NEG_INF for zero."""
        if not self.terms:
            return NEG_INF
        return max(du + dv for (du, dv), _ in self.terms)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        acc = dict(self.terms)
        for key, c in other.terms:
            acc[key] = acc.get(key, Fraction(0)) + c
        return BiPoly(acc)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        # above every power of v in the product
        width = 1 + 2 * max((dv for (_, dv), _ in self.terms + other.terms), default=0)
        (a, da), (b, db) = self._flat(width), other._flat(width)
        return _sum_products([(a, b)], width, da * db)

    def _flat(self, width: int) -> tuple[list[tuple[int, int]], int]:
        """(terms, den): self is the sum of c * u**du * v**dv / den over
        (du * width + dv, c) in terms, each c an integer."""
        N, den = integer_numerators(c for _, c in self.terms)
        return [(du * width + dv, c) for ((du, dv), _), c in zip(self.terms, N)], den

    def partial_u(self) -> "BiPoly":
        return BiPoly({(du - 1, dv): du * c for (du, dv), c in self.terms if du >= 1})

    def partial_v(self) -> "BiPoly":
        return BiPoly({(du, dv - 1): dv * c for (du, dv), c in self.terms if dv >= 1})

    def evaluate(self, xu: Scalar, xv: Scalar) -> Fraction:
        upow = _powers(_as_fraction(xu), Fraction(1))
        vpow = _powers(_as_fraction(xv), Fraction(1))
        acc = Fraction(0)
        for (du, dv), c in self.terms:
            acc += c * upow(du) * vpow(dv)
        return acc

    def horner_rows(self) -> tuple[tuple[float, ...], ...]:
        """The float coefficients as rows, one per power of u from the
        highest down, each row its v-coefficients from the highest power
        down: the Horner steps of `evaluate_float`.  A missing v-power is a
        0.0 coefficient and a missing u-power the row (0.0,), so every
        Horner step is taken."""
        by_du: dict[int, dict[int, float]] = {}
        for (du, dv), c in self.terms:
            by_du.setdefault(du, {})[dv] = float(c)
        rows = []
        for du in range(max(by_du, default=0), -1, -1):
            row = by_du.get(du, {0: 0.0})
            rows.append(tuple(row.get(dv, 0.0) for dv in range(max(row), -1, -1)))
        return tuple(rows)

    @cached_property
    def evaluate_float(self):
        """Float evaluator (u, v) -> self(u, v), u and v floats or numpy
        arrays: Horner in v inside each of the `horner_rows`, then Horner
        in u over the rows, built once per polynomial.  The closure lives
        in the instance __dict__, so a polynomial evaluated in floats can
        no longer be pickled."""
        (lead0, *tail0), *rest = self.horner_rows()
        tail0, rest = tuple(tail0), tuple((lead, tuple(tail)) for lead, *tail in rest)

        def evaluate_float(u, v):
            acc = lead0
            for c in tail0:
                acc = acc * v + c
            for lead, tail in rest:
                r = lead
                for c in tail:
                    r = r * v + c
                acc = acc * u + r
            return acc

        return evaluate_float


def compose_separable(P: BiPoly, p: UniPoly) -> BiPoly:
    """Exact substitution P(p(u), p(v)) for a separable coordinate change.

    Total degree is at most deg(p) * deg(P), with equality whenever the top
    homogeneous part of P is nonzero.  With p = N / d and P = C / D on
    integers, the term c * p(u)**a * p(v)**b is C_ab * d**(top - a - b) *
    N(u)**a * N(v)**b over D * d**top, top the total degree of P.
    """
    (N, d), (C, D) = integer_numerators(p.coeffs), integer_numerators(c for _, c in P.terms)
    top, npow = max(P.total_degree(), 0), _powers(N, [1], _convolve)
    width = 1 + top * len(N)  # above every power of u or v in the result
    pairs = []
    for ((a, b), _), c in zip(P.terms, C):
        c *= d ** (top - a - b)
        pairs.append(([(i * width, c * ci) for i, ci in enumerate(npow(a)) if ci],
                      [(j, cj) for j, cj in enumerate(npow(b)) if cj]))
    return _sum_products(pairs, width, D * d**top)


@dataclass(frozen=True)
class VectorField2:
    """Planar polynomial vector field (p_comp, q_comp)."""

    p_comp: BiPoly
    q_comp: BiPoly

    def degree(self) -> Union[int, float]:
        """max of the component total degrees; NEG_INF for the zero field."""
        return max(self.p_comp.total_degree(), self.q_comp.total_degree())

    @cached_property
    def divergence(self) -> BiPoly:
        """dP/du + dQ/dv, exact, computed once per field."""
        return self.p_comp.partial_u() + self.q_comp.partial_v()


def fmt9(v: float) -> str:
    """A float at 9 significant digits, the precision of every float the
    package writes (CSV, SVG and JSON output)."""
    return format(v, ".9g")


def csv_text(rows: Iterable[Iterable]) -> str:
    """rows as CSV text, one "\n"-terminated line each: the one CSV writer
    of the package (cycles, residuals and the bound tables)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# --- JSON encoding: rationals as "num/den" strings, bit-exact round-trip ---


def fraction_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def fraction_from_str(s: Union[str, int]) -> Fraction:
    """The rational written in s, a "num/den" string or an int; ValueError
    if s is anything else (a float would be read as its binary value, a
    bool as 0 or 1), is malformed or has a zero denominator."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"expected a 'num/den' string or an integer, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as err:
        raise ValueError(f"zero denominator in {s!r}") from err


def unipoly_to_json(p: UniPoly) -> dict:
    return {"coeffs": [fraction_to_str(c) for c in p.coeffs]}


def unipoly_from_json(obj: Mapping) -> UniPoly:
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):  # a string would be read digit by digit
        raise ValueError(f"coeffs must be a JSON array, got {coeffs!r}")
    return UniPoly(tuple(fraction_from_str(s) for s in coeffs))


def bipoly_to_json(f: BiPoly) -> list:
    return [{"du": du, "dv": dv, "c": fraction_to_str(c)} for (du, dv), c in f.terms]


def bipoly_from_json(items: Iterable[Mapping]) -> BiPoly:
    terms = {}
    for t in items:
        key = (t["du"], t["dv"])
        if key in terms:  # a dict would keep the last term silently
            raise ValueError(f"exponent (du, dv) = {key} appears more than once")
        terms[key] = fraction_from_str(t["c"])
    return BiPoly(terms)


def field_to_json(X: VectorField2) -> dict:
    return {"p": bipoly_to_json(X.p_comp), "q": bipoly_to_json(X.q_comp)}


def field_from_json(obj: Mapping) -> VectorField2:
    return VectorField2(bipoly_from_json(obj["p"]), bipoly_from_json(obj["q"]))
