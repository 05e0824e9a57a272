import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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


def U(*coeffs):
    return UniPoly(coeffs)


def neg(f):
    """-f, coefficient by coefficient."""
    return BiPoly(tuple((k, -c) for k, c in f.terms))


def _horner(coeffs, x):
    """Horner's rule over coefficients from the highest power down: the
    leading one, then ``acc * x + c`` per lower power, zeros included."""
    it = iter(coeffs)
    acc = next(it)
    for c in it:
        acc = acc * x + c
    return acc


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
            assert abs(t.evaluate_float(math.cos(theta)) - math.cos(m * theta)) <= 1e-12

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_nesting(self, a, b):
        got = compose_separable(BiPoly.from_uni(chebyshev(a), 0), chebyshev(b))
        assert got == BiPoly.from_uni(chebyshev(a * b), 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            chebyshev(-1)

    def test_matches_fraction_recurrence_to_64(self):
        # T_0 = 1, T_1 = x, T_{k+1} = 2x T_k - T_{k-1}, over Fractions
        prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
        assert chebyshev(0).coeffs == (Fraction(1),)
        for m in range(1, 65):
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

    def test_float_eval_on_array_equals_scalar(self):
        t9 = chebyshev(9).coeffs
        p = UniPoly((t9[0] + Fraction(1, 3),) + t9[1:])
        xs = np.linspace(-1.2, 1.2, 41)
        values = p.evaluate_float(xs)
        assert isinstance(values, np.ndarray)
        assert all(values[i] == p.evaluate_float(float(x)) for i, x in enumerate(xs))
        assert U().evaluate_float(0.7) == 0.0


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
        # 2u^2v + 3: the absent u^1 row and the v^0 slot of the u^2 row are
        # explicit "+ 0.0" steps, so a non-finite input meets them
        f = BiPoly({(2, 1): 2, (0, 0): 3})
        for u, v in [(0.5, -0.25), (math.inf, 0.0), (math.inf, 1.0), (2.0, math.nan), (1e200, 1e200)]:
            expected = ((2.0 * v + 0.0) * u + 0.0) * u + 3.0
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


def reference_uni(p, x):
    """The float Horner the evaluator must reproduce, from _horner."""
    return _horner([float(c) for c in reversed(p.coeffs)] or [0.0], x)


def reference_bi(f, u, v):
    """Horner in v per row of v-coefficients, then in u, from _horner; a
    missing v-power is 0.0 and a missing u-power the row (0.0,)."""
    rows = {}
    for (du, dv), c in f.terms:
        rows.setdefault(du, {})[dv] = float(c)
    values = []
    for du in range(max(rows, default=0), -1, -1):
        row = rows.get(du, {0: 0.0})
        values.append(_horner([row.get(dv, 0.0) for dv in range(max(row), -1, -1)], v))
    return _horner(values, u)


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
unipolys = st.lists(wide_fractions, max_size=41).map(lambda cs: UniPoly(tuple(cs)))


class TestFloatEvaluatorAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(unipolys, scalar_points)
    def test_unipoly_at_floats(self, p, x):
        same_bits(p.evaluate_float(x), reference_uni(p, x))

    @settings(max_examples=100, deadline=None)
    @given(unipolys, st.lists(finite_points, min_size=1, max_size=6))
    def test_unipoly_at_arrays(self, p, xs):
        xs = np.array(xs)
        same_bits(p.evaluate_float(xs), reference_uni(p, xs))

    @settings(max_examples=200, deadline=None)
    @given(sparse_bipolys, scalar_points, scalar_points)
    def test_bipoly_at_floats(self, f, u, v):
        same_bits(f.evaluate_float(u, v), reference_bi(f, u, v))

    @settings(max_examples=100, deadline=None)
    @given(sparse_bipolys, st.lists(st.tuples(finite_points, finite_points), min_size=1, max_size=6))
    def test_bipoly_at_arrays(self, f, points):
        us, vs = np.array([p[0] for p in points]), np.array([p[1] for p in points])
        same_bits(f.evaluate_float(us, vs), reference_bi(f, us, vs))

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
mixed_unipolys = st.lists(mixed_fractions, max_size=8).map(lambda cs: UniPoly(tuple(cs)))


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
