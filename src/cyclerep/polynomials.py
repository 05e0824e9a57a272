"""Exact polynomial arithmetic over the rationals.

Every polynomial is stored in one form, integer numerators over one
denominator: a positive int den with gcd(den, *nums) == 1, so equal
polynomials store equal tuples and == and hash compare them in C.  A
univariate polynomial's nums are dense, the constant first, with no
trailing zero; a bivariate one's are a nonzero int per key, the keys
(deg_u, deg_v) sorted.  The zero polynomial has no nums and den 1.  The
reduced Fractions, a UniPoly's `coeffs` and a BiPoly's `terms`, are a
view built on first read.  Everything in this module is exact; floating
point enters only through the float steps of a BiPoly's `horner_plan`
(a UniPoly's through `BiPoly.from_uni`), which `dynamics.field_rhs` and
`BiPoly.evaluate_float` run.  The exact operations are the ones a
separable pullback needs: sums and products of bivariate polynomials,
derivatives, the substitution `compose_separable` (the one composition),
the pullback's components p'(v) P(p(u), p(v)) and p'(u) Q(p(u), p(v))
(`_separable_pullback`, one pass each, for `cyclerep.pullback`) and
evaluation.  Only the two constructors turn coefficients into integers;
the operations run on integers throughout and make no Fraction: a result
is summed into one int per key over a common denominator and reduced by
one gcd (`_of`); an exact evaluation makes one Fraction at the end.

A `horner_plan` is a sparse Horner scheme (`_links`) over the nonzero
terms only: Horner in v within each power of u that occurs, then in u
over those rows, one step per nonzero term across the gap of powers
below it, each coefficient the correctly rounded float n / den.  A chain
whose lowest power is above 0 ends in a `+ 0.0` step, as the dense chain
does, so a zero result has the same sign.

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


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients, constant first, of the product of two integer polynomials."""
    out, nonzero = [0] * (len(a) + len(b) - 1), [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in nonzero:
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
    # sorted flat keys are sorted (du, dv), as dv < width
    flat = sorted(k for k, n in sums.items() if n)
    return BiPoly._of([divmod(k, width) for k in flat], [sums[k] for k in flat], den)


def _powers(base, one, times=mul):
    """Lazy table k -> base**k, each new power times(previous power, base)."""
    cache = [one]

    def power(k: int):
        while len(cache) <= k:
            cache.append(times(cache[-1], base))
        return cache[k]

    return power


@dataclass(frozen=True, init=False)
class UniPoly:
    """Dense univariate polynomial: the sum of nums[k] / den times x**k."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        """From coefficients, the constant first; trailing zeros are dropped."""
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # reduced Fractions over the lcm of their denominators: gcd(den, *nums) == 1
        den = math.lcm(*(c.denominator for c in cs))
        vars(self).update(nums=tuple(c.numerator * (den // c.denominator) for c in cs), den=den)

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "UniPoly":
        """The UniPoly nums / den, reduced by gcd(den, *nums), unchecked: nums
        ints, the constant first and the last nonzero, and den > 0."""
        p, g = object.__new__(cls), math.gcd(den, *nums)
        vars(p).update(nums=tuple([n // g for n in nums] if g > 1 else nums), den=den // g)
        return p

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[k]`` multiplies x**k, a reduced Fraction: a view built on first read."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def degree(self) -> Union[int, float]:
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INF

    def derivative(self) -> "UniPoly":
        """The derivative, computed once per polynomial."""
        return self._derivative

    @cached_property
    def _derivative(self) -> "UniPoly":
        return UniPoly._of([k * n for k, n in enumerate(self.nums)][1:], self.den)

    def evaluate(self, x: Scalar) -> Fraction:
        """self(x) exactly: with x = a/b, the integer sum of nums[i] a**i
        b**(n - i) (Horner) over den b**n, n the degree."""
        a, b = _as_fraction(x).as_integer_ratio()
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc, scale = acc * a + c * scale, scale * b
        return Fraction(acc * b, self.den * scale)


def chebyshev(m: int) -> UniPoly:
    """Chebyshev polynomial of the first kind T_m, from its explicit
    coefficients (Abramowitz & Stegun, 22.3.6): the leading one is 2**(m-1)
    for m >= 1, and each next one down, two powers lower, is
    c_{m-2k-2} = -c_{m-2k} (m-2k)(m-2k-1) / (4(k+1)(m-k-1)), an exact
    integer division.  Degree is exactly m and the coefficients need
    arbitrary precision.
    """
    if m < 0:
        raise ValueError(f"Chebyshev index must be >= 0, got {m}")
    nums = [0] * (m + 1)
    nums[m] = c = 1 << max(m - 1, 0)
    for k in range(m // 2):
        c = -c * (m - 2 * k) * (m - 2 * k - 1) // (4 * (k + 1) * (m - k - 1))
        nums[m - 2 * k - 2] = c
    return UniPoly._of(nums, 1)


Term = tuple[tuple[int, int], Fraction]


@dataclass(frozen=True, init=False)
class BiPoly:
    """Sparse bivariate polynomial in (u, v): the sum of n / den times
    u**du * v**dv over ((du, dv), n) in zip(keys, nums), in the one form."""

    keys: tuple[tuple[int, int], ...]
    nums: tuple[int, ...]
    den: int

    def __init__(self, terms: Union[Mapping, Iterable[Term]] = ()) -> None:
        """From terms ((du, dv), c), a mapping or pairs; repeated keys add up."""
        raw = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, int], Fraction] = {}
        for (du, dv), c in raw:
            c = _as_fraction(c)
            if c == 0:
                continue
            key = (as_integer(du), as_integer(dv))
            if key[0] < 0 or key[1] < 0:
                raise ValueError(f"negative exponent {key}")
            acc[key] = acc[key] + c if key in acc else c
        keys = sorted(k for k, c in acc.items() if c)
        cs = [acc[k] for k in keys]
        # reduced Fractions over the lcm of their denominators: gcd(den, *nums) == 1
        den = math.lcm(*(c.denominator for c in cs))
        vars(self).update(keys=tuple(keys), nums=tuple(c.numerator * (den // c.denominator) for c in cs), den=den)

    @classmethod
    def _of(cls, keys: list[tuple[int, int]], nums: list[int], den: int) -> "BiPoly":
        """The BiPoly nums / den at keys, reduced by gcd(den, *nums), unchecked:
        keys nonnegative int pairs strictly increasing, nums nonzero ints and
        den > 0, as the package's integer sums and derivatives build them."""
        f, g = object.__new__(cls), math.gcd(den, *nums)
        vars(f).update(keys=tuple(keys), nums=tuple([n // g for n in nums] if g > 1 else nums), den=den // g)
        return f

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """((du, dv), c) per key, c a reduced Fraction: a view built on first read."""
        return tuple((k, Fraction(n, self.den)) for k, n in zip(self.keys, self.nums))

    @classmethod
    def from_uni(cls, p: UniPoly, var: int) -> "BiPoly":
        """Embed a univariate polynomial as p(u) (var=0) or p(v) (var=1)."""
        if var not in (0, 1):
            raise ValueError("var must be 0 (first coordinate) or 1 (second)")
        powers = [k for k, n in enumerate(p.nums) if n]
        return cls._of([(0, k) if var else (k, 0) for k in powers], [p.nums[k] for k in powers], p.den)

    def total_degree(self) -> Union[int, float]:
        """max(deg_u + deg_v) over stored terms; NEG_INF for zero."""
        return max(map(sum, self.keys), default=NEG_INF)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        acc = dict(zip(self.keys, [n * s for n in self.nums]))
        for key, n in zip(other.keys, other.nums):
            acc[key] = acc.get(key, 0) + n * t
        keys = sorted(key for key, n in acc.items() if n)
        return BiPoly._of(keys, [acc[key] for key in keys], den)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        width = 1 + 2 * max((dv for _, dv in self.keys + other.keys), default=0)  # above each v power
        a, b = ([(du * width + dv, n) for (du, dv), n in zip(f.keys, f.nums)] for f in (self, other))
        return _sum_products([(a, b)], width, self.den * other.den)

    # lowering one exponent keeps the key order, and keeps every kept n nonzero
    def partial_u(self) -> "BiPoly":
        return BiPoly._of([(du - 1, dv) for du, dv in self.keys if du],
                          [du * n for (du, _), n in zip(self.keys, self.nums) if du], self.den)

    def partial_v(self) -> "BiPoly":
        return BiPoly._of([(du, dv - 1) for du, dv in self.keys if dv],
                          [dv * n for (_, dv), n in zip(self.keys, self.nums) if dv], self.den)

    def evaluate(self, xu: Scalar, xv: Scalar) -> Fraction:
        """self(xu, xv) exactly, for xu = a/b and xv = c/e: the integer sum of
        n a**du b**(U-du) c**dv e**(V-dv) over den b**U e**V, one Fraction at
        the end, U and V the top powers of u and v."""
        (a, b), (c, e) = _as_fraction(xu).as_integer_ratio(), _as_fraction(xv).as_integer_ratio()
        U, V = (max((k[i] for k in self.keys), default=0) for i in (0, 1))
        pa, pb, pc, pe = (_powers(x, 1) for x in (a, b, c, e))
        acc = sum(n * pa(du) * pb(U - du) * pc(dv) * pe(V - dv) for (du, dv), n in zip(self.keys, self.nums))
        return Fraction(acc, self.den * pb(U) * pe(V))

    def horner_plan(self) -> tuple[tuple[int, tuple[tuple[int, float], ...]], ...]:
        """The sparse Horner steps of `evaluate_float` (Peña & Sauer 2000):
        a chain in u whose links are rows, each row a chain in v whose links
        are the floats n / den, rounded as float(Fraction) is.  A chain is a
        tuple of (gap, link), the first gap 0; its value is the first link,
        then value * x**gap + link for each later one.  The rows are the
        powers of u that occur, highest first, each its nonzero v-terms,
        highest first.  A chain whose lowest power k is above 0 ends in the
        link (k, 0.0), the row ((0, 0.0),) for the u-chain, whose + 0.0 sets
        the sign of a zero result, as the dense chain's does.  The zero
        polynomial's plan is the one row ((0, 0.0),)."""
        rows, den = {}, self.den  # du -> [(dv, coefficient)]
        for (du, dv), n in zip(reversed(self.keys), reversed(self.nums)):  # by falling du, then dv
            rows.setdefault(du, []).append((dv, n / den))
        plan = _links([(du, _links(row, 0.0)) for du, row in rows.items()], ((0, 0.0),))
        return plan or ((0, ((0, 0.0),)),)

    @cached_property
    def evaluate_float(self):
        """Float evaluator (u, v) -> self(u, v), u and v floats or numpy
        arrays: the steps of `horner_plan`, with x**g computed as
        x**(g-1) * x once per call and shared by every row, built once per
        polynomial.  The closure lives in the instance __dict__, so a
        polynomial evaluated in floats can no longer be pickled."""
        rows = tuple((gu, row[0][1], row[1:]) for gu, row in self.horner_plan())
        top_u = max(gu for gu, _, _ in rows)
        top_v = max((g for _, _, steps in rows for g, _ in steps), default=0)

        def evaluate_float(u, v):
            up, vp = [1.0, u], [1.0, v]
            for _ in range(top_u - 1):
                up.append(up[-1] * u)
            for _ in range(top_v - 1):
                vp.append(vp[-1] * v)
            acc = None
            for gu, r, steps in rows:
                for g, c in steps:
                    r = r * vp[g] + c
                acc = r if acc is None else acc * up[gu] + r
            return acc

        return evaluate_float


def _links(items, zero) -> tuple:
    """Horner links (gap, link) of the sum of link * x**k over (k, link) in
    items, k falling: the first gap 0, each next the fall in k, and a last
    link (k, zero) when the lowest k is above 0."""
    links, prev = [], None
    for k, link in items:
        links.append((0 if prev is None else prev - k, link))
        prev = k
    if prev:
        links.append((prev, zero))
    return tuple(links)


def compose_separable(P: BiPoly, p: UniPoly) -> BiPoly:
    """Exact substitution P(p(u), p(v)) for a separable coordinate change.

    Total degree is at most deg(p) * deg(P), with equality whenever the top
    homogeneous part of P is nonzero.
    """
    return _compose(P, p, _powers(p.nums, [1], _convolve))


def _separable_pullback(X: VectorField2, p: UniPoly) -> VectorField2:
    """(p'(v) P(p(u), p(v)), p'(u) Q(p(u), p(v))) for X = (P, Q), each
    component in one integer pass, the two sharing the powers of p."""
    npow = _powers(p.nums, [1], _convolve)
    return VectorField2(_compose(X.p_comp, p, npow, 1), _compose(X.q_comp, p, npow, 0))


def _compose(P: BiPoly, p: UniPoly, npow, dp_var=None) -> BiPoly:
    """P(p(u), p(v)) for p = N / d (p.nums over p.den, N constant first) and
    npow(k) = N**k; times p'(u) if dp_var is 0, p'(v) if it is 1.

    With P = C / D on integers (P.nums over P.den), the term C_ab p(u)**a p(v)**b is
    C_ab d**(top - a - b) N(u)**a N(v)**b over D d**top, top the total
    degree of P, and p' = N' / d' (p.derivative()'s nums over its den).  The
    terms are summed first on the side of p' (v without it), into one integer
    polynomial per power on the other side; N' multiplies each sum once, and
    each sum enters one outer product.
    """
    N, d = p.nums, p.den
    f, f_den = (p.derivative().nums, p.derivative().den) if dp_var is not None else ([1], 1)
    top = max(P.total_degree(), 0)
    sums: dict[int, list[int]] = {}  # power on the other side -> integer sum on the side of p'
    for (a, b), c in zip(P.keys, P.nums):
        other, k = (b, a) if dp_var == 0 else (a, b)
        c *= d ** (top - a - b)
        acc, nk = sums.setdefault(other, []), npow(k)
        acc += [0] * (len(nk) - len(acc))
        for i, x in enumerate(nk):
            acc[i] += c * x
    width = top * len(N) + len(f)  # above every power of v in the result
    pairs = []
    for other, acc in sums.items():
        folded = [(i, x) for i, x in enumerate(_convolve(f, acc)) if x]
        plain = [(i, x) for i, x in enumerate(npow(other)) if x]
        u_side, v_side = (folded, plain) if dp_var == 0 else (plain, folded)
        pairs.append(([(i * width, x) for i, x in u_side], v_side))
    return _sum_products(pairs, width, P.den * d**top * f_den)


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
