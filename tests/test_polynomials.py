import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclerep.polynomials import (
    NEG_INF,
    BiPoly,
    UniPoly,
    VectorField2,
    as_integer,
    bipoly_from_json,
    bipoly_to_json,
    chebyshev,
    compose_separable,
    field_from_json,
    field_to_json,
    fraction_from_str,
    fraction_to_str,
    unipoly_from_json,
    unipoly_to_json,
)
from cyclerep.pullback import build_pullback


def U(*coeffs):
    return UniPoly(coeffs)


def neg(f):
    """-f, coefficient by coefficient."""
    return BiPoly(tuple((k, -c) for k, c in f.terms))


class TestChebyshev:
    def test_base_case(self):
        assert chebyshev(0) == U(1)
        assert chebyshev(1) == U(0, 1)

    def test_t3(self):
        assert chebyshev(3) == U(0, -3, 0, 4)  # 4x^3 - 3x

    def test_t6_against_hand_expansion(self):
        # T4 = 2x*T3 - T2 = 8x^4 - 8x^2 + 1
        # T5 = 2x*T4 - T3 = 16x^5 - 20x^3 + 5x
        # T6 = 2x*T5 - T4 = 32x^6 - 48x^4 + 18x^2 - 1
        assert chebyshev(6) == U(-1, 0, 18, 0, -48, 0, 32)

    @pytest.mark.parametrize("m", range(0, 12))
    def test_degree_and_endpoints(self, m):
        t = chebyshev(m)
        assert t.degree() == m
        assert t.evaluate(1) == 1
        assert t.evaluate(-1) == (-1) ** m
        if m >= 1:
            assert t.coeffs[-1] == Fraction(2) ** (m - 1)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_cosine_identity(self, m):
        t = chebyshev(m)
        rng = random.Random(1234 + m)
        for _ in range(1000):
            theta = rng.uniform(0.0, math.pi)
            assert abs(float(t.evaluate(Fraction(math.cos(theta)))) - math.cos(m * theta)) <= 1e-12

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_nesting(self, a, b):
        got = compose_separable(BiPoly.from_uni(chebyshev(a), 0), chebyshev(b))
        assert got == BiPoly.from_uni(chebyshev(a * b), 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            chebyshev(-1)

    def test_matches_fraction_recurrence_to_64(self):
        # T_0 = 1, T_1 = x, T_{k+1} = 2x T_k - T_{k-1}, over Fractions, to m = 200
        prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
        assert chebyshev(0).coeffs == (Fraction(1),)
        for m in range(1, 201):
            got = chebyshev(m).coeffs
            assert got == tuple(cur)
            assert all(type(c) is Fraction for c in got)
            nxt = [Fraction(0)] + [2 * c for c in cur]
            for i, c in enumerate(prev):
                nxt[i] -= c
            prev, cur = cur, nxt


class TestUniPoly:
    def test_derivative_t3(self):
        assert chebyshev(3).derivative() == U(-3, 0, 12)  # 12x^2 - 3

    def test_derivative_constant(self):
        assert U(5).derivative() == UniPoly()

    def test_derivative_power(self):
        assert U(0, 0, 0, 0, 0, 1).derivative() == U(0, 0, 0, 0, 5)

    def test_derivative_drops_degree_by_one(self):
        rng = random.Random(7)
        for _ in range(50):
            deg = rng.randint(1, 8)
            coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
            p = UniPoly(coeffs)
            assert p.derivative().degree() == deg - 1

    def test_zero_degree_sentinel(self):
        assert UniPoly().degree() == NEG_INF
        assert NEG_INF != -1 and NEG_INF < -1
        assert U(7).degree() == 0

    def test_trailing_zeros_stripped(self):
        assert U(1, 2, 0, 0) == U(1, 2)
        assert U(0, 0) == UniPoly()

    def test_exact_evaluation(self):
        p = U(Fraction(1, 3), Fraction(-2, 7), 1)
        x = Fraction(5, 11)
        assert p.evaluate(x) == Fraction(1, 3) - Fraction(2, 7) * x + x * x

    def test_immutable(self):
        p = U(1, 2)
        with pytest.raises(AttributeError):
            p.coeffs = ()


def small_fractions():
    return st.fractions(min_value=-3, max_value=3, max_denominator=6)


def bipolys(max_deg=6):
    pairs = st.tuples(st.integers(0, max_deg // 2), st.integers(0, max_deg // 2))
    return st.dictionaries(pairs, small_fractions(), max_size=6).map(BiPoly)


class TestBiPoly:
    def test_total_degree_examples(self):
        f = BiPoly({(2, 1): 1, (0, 1): 1})  # x^2 y + y
        assert f.total_degree() == 3
        assert BiPoly().total_degree() == NEG_INF

    def test_zero_coefficients_never_stored(self):
        f = BiPoly({(1, 1): 1}) + BiPoly({(1, 1): -1})
        assert f.terms == ()
        assert f == BiPoly()

    @settings(max_examples=120, deadline=None)
    @given(bipolys(), bipolys(), bipolys())
    def test_distributivity(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @settings(max_examples=60, deadline=None)
    @given(bipolys(), bipolys())
    def test_commutativity(self, f, g):
        assert f * g == g * f
        assert f + g == g + f

    def test_partial_derivatives(self):
        f = BiPoly({(3, 2): Fraction(1, 2), (0, 1): 4})
        assert f.partial_u() == BiPoly({(2, 2): Fraction(3, 2)})
        assert f.partial_v() == BiPoly({(3, 1): 1, (0, 0): 4})

    def test_float_eval_on_array_equals_scalar(self):
        f = BiPoly({(3, 2): Fraction(7, 3), (0, 5): -2, (1, 0): Fraction(1, 7), (0, 0): 4})
        us, vs = np.meshgrid(np.linspace(-1.1, 1.1, 9), np.linspace(-0.9, 1.3, 7))
        values = f.evaluate_float(us, vs)
        assert values.shape == us.shape
        for r in range(us.shape[0]):
            for c in range(us.shape[1]):
                assert values[r, c] == f.evaluate_float(float(us[r, c]), float(vs[r, c]))

    def test_float_eval_keeps_every_horner_step(self):
        # 2u^2v + 3: the u^2 row ends in an explicit "+ 0.0" step for its
        # absent v^0, and the u-gap of 2 is one multiply by u * u, so a
        # non-finite input meets them
        f = BiPoly({(2, 1): 2, (0, 0): 3})
        for u, v in [(0.5, -0.25), (math.inf, 0.0), (math.inf, 1.0), (2.0, math.nan), (1e200, 1e200)]:
            expected = (2.0 * v + 0.0) * (u * u) + 3.0
            got = f.evaluate_float(u, v)
            assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert math.isnan(f.evaluate_float(math.inf, 0.0))
        assert BiPoly().evaluate_float(0.4, -0.2) == 0.0

    def test_float_eval_matches_exact(self):
        rng = random.Random(99)
        for _ in range(30):
            f = BiPoly(
                {
                    (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(5)
                }
            )
            xu, xv = Fraction(rng.randint(-8, 8), 9), Fraction(rng.randint(-8, 8), 9)
            exact = float(f.evaluate(xu, xv))
            approx = f.evaluate_float(float(xu), float(xv))
            assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def reference_bi(f, u, v):
    """The sparse Horner steps the evaluator must reproduce, from the
    terms: for each power of u that occurs, highest first, Horner in v
    over its nonzero terms, a gap of g powers one multiply by v**g (v
    times itself g - 1 times), and a last `* v**k + 0.0` when the lowest
    power k is above 0; then the same in u over those rows."""

    def power(x, g):
        p = x
        for _ in range(g - 1):
            p = p * x
        return p

    def chain(items, x):
        (k, acc), *rest = items
        for j, c in rest:
            acc, k = acc * power(x, k - j) + c, j
        return acc * power(x, k) + 0.0 if k else acc

    rows = {}
    for (du, dv), c in sorted(f.terms, reverse=True):
        rows.setdefault(du, []).append((dv, float(c)))
    return chain([(du, chain(row, v)) for du, row in rows.items()], u) if rows else 0.0


def same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape
        assert [float(g).hex() for g in got.ravel()] == [float(w).hex() for w in want.ravel()]
    else:
        assert float(got).hex() == float(want).hex()


wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
finite_points = st.floats(-2.0, 2.0)
scalar_points = st.one_of(finite_points, st.sampled_from([math.inf, -math.inf, math.nan, 1e200, -0.0]))
sparse_bipolys = st.one_of(
    # sparse up to degree 40 in each variable, so most u-rows are absent
    st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)), wide_fractions, max_size=8),
    st.builds(lambda c: {(0, 0): c}, wide_fractions),  # constants, zero included
    st.just({}),
).map(BiPoly)
grid_points = st.fractions(min_value=-2, max_value=2, max_denominator=1000)
# sparse up to degree 40, so most powers are absent, with long zero runs
# and trailing zeros in the dense coefficients
unipolys = st.dictionaries(st.integers(0, 40), wide_fractions, max_size=8).map(
    lambda d: UniPoly(tuple(d.get(k, 0) for k in range(max(d, default=-1) + 1)))
)


class TestFloatEvaluatorAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(unipolys, scalar_points)
    def test_unipoly_at_floats(self, p, x):
        # a UniPoly runs in floats as `field_rhs` runs each cover factor: as
        # the BiPoly p(u) of `from_uni`, whose terms are p's nonzero ones
        terms = {(k, 0): c for k, c in enumerate(p.coeffs) if c}
        same_bits(BiPoly.from_uni(p, 0).evaluate_float(x, 0.0), reference_bi(BiPoly(terms), x, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(sparse_bipolys, scalar_points, scalar_points)
    def test_bipoly_at_floats(self, f, u, v):
        same_bits(f.evaluate_float(u, v), reference_bi(f, u, v))

    @settings(max_examples=100, deadline=None)
    @given(sparse_bipolys, st.lists(st.tuples(finite_points, finite_points), min_size=1, max_size=6))
    def test_bipoly_at_arrays(self, f, points):
        us, vs = np.array([p[0] for p in points]), np.array([p[1] for p in points])
        same_bits(f.evaluate_float(us, vs), reference_bi(f, us, vs))

    @settings(max_examples=200, deadline=None)
    @given(sparse_bipolys, grid_points, grid_points)
    def test_error_within_the_horner_bound(self, f, u, v):
        # Horner's forward error bound (Higham, Accuracy and Stability of
        # Numerical Algorithms, ch. 5): a step per power, each power's own
        # products included, stays within a few (deg_u + deg_v + 2) eps of
        # the sum of |terms|.  The points lie on a grid of 1/1000, so no
        # power of theirs reaches the subnormal range.
        u, v = float(u), float(v)
        deg_u = max((du for (du, _), _ in f.terms), default=0)
        deg_v = max((dv for (_, dv), _ in f.terms), default=0)
        xu, xv = Fraction(u), Fraction(v)
        scale = sum(abs(c * xu**du * xv**dv) for (du, dv), c in f.terms)
        err = abs(Fraction(f.evaluate_float(u, v)) - f.evaluate(xu, xv))
        assert err <= 2 * (deg_u + deg_v + 2) * Fraction(2**-52) * scale

    def test_degree_40_rows(self):
        f = BiPoly({(40, 40): Fraction(1, 3), (40, 0): -2, (0, 40): Fraction(7, 5), (17, 3): 1})
        for u, v in [(0.999, -1.001), (1.5, 0.5), (-0.3, 1.7)]:
            same_bits(f.evaluate_float(u, v), reference_bi(f, u, v))
        us, vs = np.linspace(-1.1, 1.1, 5), np.linspace(1.2, -0.7, 5)
        same_bits(f.evaluate_float(us, vs), reference_bi(f, us, vs))


# coefficients over the denominators 1, 2, 3, 4 and 7, so a product's
# common denominator differs from every operand's
mixed_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 7]))
mixed_bipolys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), mixed_fractions, max_size=8
).map(BiPoly)
mixed_coeffs = st.lists(mixed_fractions, max_size=8)
mixed_unipolys = mixed_coeffs.map(lambda cs: UniPoly(tuple(cs)))


def fraction_product(f, g):
    """f * g term by term over Fractions: every pair of terms multiplied and
    summed, zero sums dropped; the reference for the integer products."""
    acc = {}
    for (au, av), ca in f.terms:
        for (bu, bv), cb in g.terms:
            key = (au + bu, av + bv)
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return BiPoly(tuple((k, c) for k, c in acc.items() if c != 0))


class TestIntegerProducts:
    @settings(max_examples=150, deadline=None)
    @given(mixed_bipolys, mixed_bipolys)
    def test_bipoly_product_matches_fraction_reference(self, f, g):
        got = f * g
        assert got == fraction_product(f, g)
        assert all(type(c) is Fraction and c != 0 for _, c in got.terms)

    @settings(max_examples=100, deadline=None)
    @given(mixed_bipolys, mixed_bipolys)
    def test_bipoly_product_with_cancelling_terms(self, f, g):
        # the cross terms of (f + g)(f - g) cancel to f^2 - g^2
        got = (f + g) * (f + neg(g))
        assert got == fraction_product(f + g, f + neg(g))
        assert got == fraction_product(f, f) + neg(fraction_product(g, g))

    def test_bipoly_product_cancels_to_zero(self):
        f = BiPoly({(1, 0): Fraction(2, 3), (0, 1): Fraction(-5, 7)})
        g = BiPoly({(2, 1): Fraction(3, 4)})
        assert f * g == g * f
        assert (f * g + neg(f) * g).terms == ()

    @settings(max_examples=150, deadline=None)
    @given(mixed_unipolys, mixed_fractions, st.sampled_from([1, 2, 3, 4, 7, 2**53]))
    def test_exact_evaluation_matches_fraction_horner(self, p, num, den):
        x = num / den
        expected = Fraction(0)
        for c in reversed(p.coeffs):
            expected = expected * x + c
        got = p.evaluate(x)
        assert type(got) is Fraction and got == expected


def ref_sum(*polys):
    """The sum of polynomials written as dicts {(du, dv): Fraction}, zero
    sums dropped: with ref_product, ref_uni and ref_compose, the Fraction
    reference for the integer arithmetic."""
    acc = {}
    for f in polys:
        for key, c in f.items():
            acc[key] = acc.get(key, Fraction(0)) + c
    return {key: c for key, c in acc.items() if c}


def ref_product(f, g):
    return ref_sum(*({(au + bu, av + bv): ca * cb} for (au, av), ca in f.items() for (bu, bv), cb in g.items()))


def ref_uni(p, var):
    return {((0, k) if var else (k, 0)): c for k, c in enumerate(p.coeffs) if c}


def ref_compose(f, p):
    """f(p(u), p(v)), each term a product of its factors p(u) and p(v)."""
    terms = []
    for (du, dv), c in f.items():
        term = {(0, 0): c}
        for factor in [ref_uni(p, 0)] * du + [ref_uni(p, 1)] * dv:
            term = ref_product(term, factor)
        terms.append(term)
    return ref_sum(*terms)


def ref_neg(f):
    return {key: -c for key, c in f.items()}


def ref_partial_u(f):
    return {(du - 1, dv): du * c for (du, dv), c in f.items() if du}


def ref_partial_v(f):
    return {(du, dv - 1): dv * c for (du, dv), c in f.items() if dv}


def term_sum(f, x, y):
    """f at (x, y) as the sum of its terms over Fractions: the reference
    for the integer evaluation."""
    return sum((c * x**du * y**dv for (du, dv), c in f.terms), Fraction(0))


class TestExactBiPolyEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mixed_bipolys, sparse_bipolys), mixed_fractions, mixed_fractions,
           st.sampled_from([1, 2, 3, 2**53]))
    def test_matches_term_sum(self, f, x, y, den):
        x, y = x / den, y / den
        got = f.evaluate(x, y)
        assert type(got) is Fraction and got == term_sum(f, x, y)

    def test_integer_and_string_points(self):
        f = BiPoly({(3, 0): Fraction(1, 2), (1, 2): Fraction(-2, 3), (0, 0): 5})
        assert f.evaluate(2, -3) == 4 - 12 + 5
        assert f.evaluate("1/2", 0) == Fraction(1, 16) + 5
        assert BiPoly().evaluate(Fraction(7, 3), 1) == 0


# every way the package builds a BiPoly, applied to (f, g, p), with its
# reference over dicts of Fractions, applied to (dict(f.terms), dict(g.terms), p)
CONSTRUCTIONS = {
    "product": (lambda f, g, p: f * g, lambda f, g, p: ref_product(f, g)),
    "cancelling_product": (  # the f g terms cancel
        lambda f, g, p: (f + g) * (f + neg(g)),
        lambda f, g, p: ref_product(ref_sum(f, g), ref_sum(f, ref_neg(g))),
    ),
    "sum": (lambda f, g, p: f + g, lambda f, g, p: ref_sum(f, g)),
    "partial_u": (lambda f, g, p: f.partial_u(), lambda f, g, p: ref_partial_u(f)),
    "partial_v": (lambda f, g, p: g.partial_v(), lambda f, g, p: ref_partial_v(g)),
    "divergence": (
        lambda f, g, p: VectorField2(f, g).divergence,
        lambda f, g, p: ref_sum(ref_partial_u(f), ref_partial_v(g)),
    ),
    "from_uni_u": (lambda f, g, p: BiPoly.from_uni(p, 0), lambda f, g, p: ref_uni(p, 0)),
    "from_uni_v": (lambda f, g, p: BiPoly.from_uni(p, 1), lambda f, g, p: ref_uni(p, 1)),
    "compose_separable": (lambda f, g, p: compose_separable(f, p), lambda f, g, p: ref_compose(f, p)),
    "pullback_p": (
        lambda f, g, p: build_pullback(VectorField2(f, g), p).field.p_comp,
        lambda f, g, p: ref_product(ref_uni(p.derivative(), 1), ref_compose(f, p)),
    ),
    "pullback_q": (
        lambda f, g, p: build_pullback(VectorField2(f, g), p).field.q_comp,
        lambda f, g, p: ref_product(ref_uni(p.derivative(), 0), ref_compose(g, p)),
    ),
}


def assert_stored_form(f):
    """keys strictly increasing nonnegative int pairs, nums nonzero ints,
    den a positive int sharing no factor with every numerator."""
    assert type(f.keys) is tuple and type(f.nums) is tuple and len(f.keys) == len(f.nums)
    assert all(type(key) is tuple and len(key) == 2 for key in f.keys)
    assert all(type(e) is int and e >= 0 for key in f.keys for e in key)
    assert all(a < b for a, b in zip(f.keys, f.keys[1:]))
    assert all(type(n) is int and n != 0 for n in f.nums)
    assert type(f.den) is int and f.den > 0 and math.gcd(f.den, *f.nums) == 1
    assert f.keys or (f.nums, f.den) == ((), 1)


def rewritten(f, k):
    """BiPoly(...) pairs for the terms of f written otherwise: each c = n/d
    as the string "kn/kd", then 1/k and -1/k at its key, and a term 1 and
    a term -1 at (9, 9), so every key's sum passes through other values."""
    pairs = [((9, 9), 1)]
    for key, c in f.terms:
        pairs += [(key, f"{k * c.numerator}/{k * c.denominator}"), (key, Fraction(1, k)), (key, Fraction(-1, k))]
    return pairs + [((9, 9), -1)]


def same_poly(a, b):
    assert a == b and hash(a) == hash(b)
    assert (a.keys, a.nums, a.den) == (b.keys, b.nums, b.den)


cubic_covers = st.lists(mixed_fractions, min_size=2, max_size=3).map(lambda cs: UniPoly((*cs, Fraction(3, 2))))


class TestCanonicalForm:
    """Every BiPoly, however built, is in the one stored form, so equal
    rationals written differently give equal polynomials with equal hashes."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(CONSTRUCTIONS)), mixed_bipolys, mixed_bipolys, cubic_covers)
    @example("cancelling_product", BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1}), chebyshev(2))
    def test_results_are_canonical(self, name, f, g, p):
        if name.startswith("pullback") and not (f.keys or g.keys):
            f = BiPoly({(1, 0): 1})  # the zero field has no pullback
        build, reference = CONSTRUCTIONS[name]
        got = build(f, g, p)
        assert_stored_form(got)
        want = reference(dict(f.terms), dict(g.terms), p)
        assert dict(got.terms) == want  # the view: reduced Fractions, in key order
        assert [key for key, _ in got.terms] == list(got.keys) == sorted(want)
        assert all(type(c) is Fraction for _, c in got.terms)
        same_poly(got, BiPoly(want))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(CONSTRUCTIONS)), mixed_bipolys, mixed_bipolys, cubic_covers,
           mixed_bipolys, st.integers(2, 12))
    def test_equal_rationals_give_equal_polys(self, name, f, g, p, h, k):
        if name.startswith("pullback") and not (f.keys or g.keys):
            f = BiPoly({(1, 0): 1})
        build, _ = CONSTRUCTIONS[name]
        got = build(f, g, p)
        # the constructor: 2/4 for 1/2, and terms that cancel
        p2 = UniPoly(tuple(f"{k * c.numerator}/{k * c.denominator}" for c in p.coeffs))
        same_poly(build(BiPoly(rewritten(f, k)), BiPoly(rewritten(g, k)), p2), got)
        # the operations: numerators that share a factor k with the
        # denominator (times k, then 1/k), and a sum that cancels h
        scale, unscale = BiPoly({(0, 0): k}), BiPoly({(0, 0): Fraction(1, k)})
        same_poly(build((f * scale) * unscale, (g + h) + neg(h), p), got)

    def test_one_form_per_rational(self):
        half = BiPoly({(1, 2): Fraction(1, 2)})
        for other in (BiPoly({(1, 2): "2/4"}), BiPoly([((1, 2), 1), ((1, 2), Fraction(-1, 2))]),
                      BiPoly({(1, 2): 1}) * BiPoly({(0, 0): Fraction(3, 6)}),
                      BiPoly({(2, 2): Fraction(1, 4)}).partial_u(),
                      BiPoly.from_uni(UniPoly((0, 0, "3/6")), 1).partial_v() * BiPoly({(1, 1): Fraction(1, 2)})):
            same_poly(other, half)
        assert (half.keys, half.nums, half.den) == (((1, 2),), (1,), 2)
        zero = BiPoly({(1, 0): "1/2"}) + BiPoly({(1, 0): "-2/4"})
        same_poly(zero, BiPoly())
        assert (zero.keys, zero.nums, zero.den) == ((), (), 1)

    def test_terms_is_read_only(self):
        f = BiPoly({(1, 0): Fraction(2, 3)})
        with pytest.raises(AttributeError):
            f.terms = ()
        with pytest.raises(AttributeError):
            f.den = 1
        assert f.terms == (((1, 0), Fraction(2, 3)),)


def assert_uni_form(p):
    """nums dense ints, the constant first and the last nonzero, den a
    positive int sharing no factor with every numerator, zero ((), 1)."""
    assert type(p.nums) is tuple and all(type(n) is int for n in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert type(p.den) is int and p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert p.nums or p.den == 1


def ref_coeffs(cs):
    """cs as Fractions, trailing zeros dropped: the Fraction-list reference."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def same_uni(a, b):
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == (b.nums, b.den)


class TestUniPolyCanonicalForm:
    """Every UniPoly, however built, is in the one stored form, as a BiPoly
    is, and its `coeffs` view, derivative, exact value and float plan match
    a reference over a list of Fractions."""

    @settings(max_examples=100, deadline=None)
    @given(mixed_unipolys, st.integers(0, 40), st.integers(2, 12))
    def test_results_are_canonical(self, p, m, k):
        written = {"coeffs": [f"{k * c.numerator}/{k * c.denominator}" for c in p.coeffs]}
        for got in (p, p.derivative(), p.derivative().derivative(), chebyshev(m),
                    unipoly_from_json(unipoly_to_json(p)), unipoly_from_json(written)):
            assert_uni_form(got)
        same_uni(unipoly_from_json(written), p)

    @settings(max_examples=100, deadline=None)
    @given(mixed_coeffs, st.integers(2, 12), st.integers(0, 3))
    def test_equal_rationals_give_equal_polys(self, cs, k, zeros):
        p = UniPoly(cs)
        # "kn/kd" for n/d, ints as Fractions, and trailing zeros of either kind
        same_uni(UniPoly([f"{k * c.numerator}/{k * c.denominator}" for c in cs] + ["0/5"] * zeros), p)
        same_uni(UniPoly([Fraction(c) for c in cs] + [0] * zeros), p)
        same_uni(UniPoly(p.coeffs), p)

    def test_one_form_per_rational(self):
        half = UniPoly((0, Fraction(1, 2)))
        for other in (UniPoly((0, "2/4", 0, 0)), UniPoly(("0/3", Fraction(3, 6), Fraction(0))),
                      UniPoly((5, 0, Fraction(1, 4))).derivative()):
            same_uni(other, half)
        assert (half.nums, half.den) == ((0, 1), 2)
        for zero in (UniPoly((0, 0)), UniPoly((Fraction(1, 3),)).derivative(), chebyshev(1).derivative().derivative()):
            same_uni(zero, UniPoly())
        assert (UniPoly().nums, UniPoly().den) == ((), 1)

    @settings(max_examples=150, deadline=None)
    @given(mixed_coeffs, mixed_fractions, st.sampled_from([1, 2, 3, 2**53]))
    def test_matches_fraction_reference(self, cs, num, den):
        p, ref = UniPoly(cs), ref_coeffs(cs)
        assert p.coeffs == tuple(ref) and all(type(c) is Fraction for c in p.coeffs)
        assert p.derivative().coeffs == tuple(k * c for k, c in enumerate(ref))[1:]
        assert p.degree() == (len(ref) - 1 if ref else NEG_INF)
        x, expected = num / den, Fraction(0)
        for c in reversed(ref):
            expected = expected * x + c
        got = p.evaluate(x)
        assert type(got) is Fraction and got == expected

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mixed_coeffs, st.lists(wide_fractions, max_size=8)))
    def test_horner_plan_floats_are_the_fraction_floats(self, cs):
        ref = ref_coeffs(cs)
        want = [float(c).hex() for c in reversed(ref) if c]
        lowest = next((k for k, c in enumerate(ref) if c), 0)  # a zero step below it
        # as `field_rhs` writes a cover factor: the plan of `BiPoly.from_uni`,
        # one constant row per nonzero term
        got = [row[0][1].hex() for _, row in BiPoly.from_uni(UniPoly(cs), 0).horner_plan()]
        assert got == (want + [(0.0).hex()] * (lowest > 0) if want else [(0.0).hex()])

    def test_stored_form_is_read_only(self):
        p = UniPoly((1, Fraction(2, 3)))
        for name in ("coeffs", "nums", "den"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())
        assert (p.nums, p.den, p.coeffs) == ((3, 2), 3, (Fraction(1), Fraction(2, 3)))


class TestComposeSeparable:
    def test_identity_projection(self):
        # P = x composed with T_3 gives T_3(u) as a bivariate in u only
        P = BiPoly({(1, 0): 1})
        assert compose_separable(P, chebyshev(3)) == BiPoly({(3, 0): 4, (1, 0): -3})

    def test_sum_of_squares_with_t2(self):
        # (2u^2-1)^2 + (2v^2-1)^2 expanded by hand
        P = BiPoly({(2, 0): 1, (0, 2): 1})
        expected = BiPoly(
            {(4, 0): 4, (2, 0): -4, (0, 0): 2, (0, 4): 4, (0, 2): -4}
        )
        assert compose_separable(P, chebyshev(2)) == expected

    def test_lifted_circle_equation(self):
        # x^2 + y^2 - rho^2 pulled through T_3 equals T_3(u)^2 + T_3(v)^2 - rho^2,
        # the latter built through plain BiPoly products as an independent path.
        rho2 = Fraction(1, 4)
        P = BiPoly({(2, 0): 1, (0, 2): 1, (0, 0): -rho2})
        t3u = BiPoly.from_uni(chebyshev(3), 0)
        t3v = BiPoly.from_uni(chebyshev(3), 1)
        expected = t3u * t3u + t3v * t3v + BiPoly({(0, 0): -rho2})
        assert compose_separable(P, chebyshev(3)) == expected

    def test_non_monic_rational_cover_equals_repeated_products(self):
        # p and P over the denominators 2, 3, 4 and 7, p non-monic
        p = U(Fraction(1, 3), Fraction(-2, 7), 0, Fraction(5, 4))
        P = BiPoly({(0, 0): Fraction(-1, 2), (1, 0): Fraction(2, 3), (0, 2): Fraction(3, 4),
                    (2, 1): Fraction(-5, 7), (1, 2): 1, (0, 3): Fraction(9, 2)})
        pu, pv = BiPoly.from_uni(p, 0), BiPoly.from_uni(p, 1)
        expected = BiPoly()
        for (a, b), c in P.terms:
            term = BiPoly({(0, 0): c})
            for factor in [pu] * a + [pv] * b:
                term = fraction_product(term, factor)
            expected = expected + term
        got = compose_separable(P, p)
        assert got == expected
        assert got.total_degree() == 9

    def test_degree_multiplication_law(self):
        rng = random.Random(4242)
        for _ in range(100):
            dp, dP = rng.randint(1, 4), rng.randint(1, 4)
            p = UniPoly([rng.randint(-3, 3) for _ in range(dp)] + [rng.choice([1, 2, -1])])
            terms = {
                (rng.randint(0, dP), rng.randint(0, dP)): rng.randint(-3, 3)
                for _ in range(4)
            }
            terms[(dP, 0)] = rng.choice([1, -2, 3])  # nonzero top homogeneous part
            P = BiPoly({k: v for k, v in terms.items() if k[0] + k[1] <= dP})
            assert compose_separable(P, p).total_degree() == dp * P.total_degree()


class TestJson:
    def test_fraction_encoding(self):
        assert fraction_to_str(Fraction(-3)) == "-3/1"
        assert fraction_to_str(Fraction(2, 6)) == "1/3"

    def test_unipoly_round_trip(self):
        p = UniPoly((Fraction(-3), Fraction(0), Fraction(22, 7)))
        assert unipoly_from_json(json.loads(json.dumps(unipoly_to_json(p)))) == p

    def test_bipoly_round_trip(self):
        f = BiPoly({(0, 0): Fraction(-1, 3), (5, 2): Fraction(10, 9), (1, 1): -4})
        blob = json.dumps(bipoly_to_json(f))
        assert bipoly_from_json(json.loads(blob)) == f

    def test_field_round_trip(self):
        X = VectorField2(BiPoly({(1, 0): Fraction(1, 2)}), BiPoly({(0, 3): -2}))
        assert field_from_json(json.loads(json.dumps(field_to_json(X)))) == X

    def test_non_integer_exponent_rejected(self):
        # 0.5 is not truncated to 0: {"du": 0.5, "dv": 1} is not the term v
        with pytest.raises(ValueError, match="expected an integer"):
            bipoly_from_json([{"du": 0.5, "dv": 1, "c": "1"}])
        with pytest.raises(ValueError, match="expected an integer"):
            BiPoly({(1, 2.0): 1})
        assert BiPoly({(np.int64(2), 1): 1}) == BiPoly({(2, 1): 1})

    def test_float_coefficient_rejected(self):
        # 0.1 would be read as 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(ValueError, match="'num/den' string or an integer"):
            unipoly_from_json({"coeffs": [0.1, 1]})
        with pytest.raises(ValueError, match="'num/den' string or an integer"):
            bipoly_from_json([{"du": 0, "dv": 0, "c": 2.0}])
        assert unipoly_from_json({"coeffs": [3, "1/10"]}) == UniPoly((3, Fraction(1, 10)))

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_integer_rejected(self, flag):
        # bool is an int, and operator.index(True) is 1: {"du": true} is not the term u
        with pytest.raises(ValueError, match="expected an integer"):
            as_integer(flag)
        with pytest.raises(ValueError, match="expected an integer"):
            bipoly_from_json([{"du": flag, "dv": 0, "c": "1"}])
        assert as_integer(1) == 1

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_coefficient_rejected(self, flag):
        # {"coeffs": [true, 0, 1]} is not 1 + x^2
        with pytest.raises(ValueError, match="'num/den' string or an integer"):
            fraction_from_str(flag)
        with pytest.raises(ValueError, match="'num/den' string or an integer"):
            unipoly_from_json({"coeffs": [flag, 0, 1]})
        assert fraction_from_str(1) == 1

    def test_repeated_exponent_rejected(self):
        # a dict keyed by (du, dv) once kept the second term: p read as 2u
        with pytest.raises(ValueError, match=r"\(du, dv\) = \(1, 0\) appears more than once"):
            bipoly_from_json([{"du": 1, "dv": 0, "c": "1"}, {"du": 1, "dv": 0, "c": "2"}])

    @pytest.mark.parametrize("coeffs", ["301", {"0": "3"}, 3])
    def test_non_array_coeffs_rejected(self, coeffs):
        # "301" was once read character by character as 3 + x^2
        with pytest.raises(ValueError, match="coeffs must be a JSON array"):
            unipoly_from_json({"coeffs": coeffs})

    def test_term_order_deterministic(self):
        f = BiPoly({(2, 0): 1, (0, 2): 1, (1, 1): 1})
        g = BiPoly({(1, 1): 1, (0, 2): 1, (2, 0): 1})
        assert bipoly_to_json(f) == bipoly_to_json(g)


class TestVectorField:
    def test_degree_is_max_of_components(self):
        X = VectorField2(BiPoly({(1, 2): 1}), BiPoly({(0, 1): 1}))
        assert X.degree() == 3
        assert VectorField2(BiPoly(), BiPoly()).degree() == NEG_INF
