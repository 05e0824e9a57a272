import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclerep.polynomials import BiPoly, UniPoly, VectorField2, chebyshev, compose_separable
from cyclerep.pullback import (
    build_pullback,
    check_exact_degree,
    pullback_result_to_json,
    verify_conjugacy,
)
from cyclerep.dynamics import radial_cubic_field

ROTATION = VectorField2(BiPoly({(0, 1): 1}), BiPoly({(1, 0): -1}))  # (y, -x)
MINUS_ONE = BiPoly({(0, 0): -1})


def random_field(rng, max_deg, exact_deg=None):
    """Random field with rational coefficients in [-3, 3]; if exact_deg is
    given, a term of that total degree is forced so deg(X) is exact."""
    deg = exact_deg if exact_deg is not None else rng.randint(1, max_deg)

    def rand_coeff():
        den = rng.randint(1, 4)
        return Fraction(rng.randint(-3 * den, 3 * den), den)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            du = rng.randint(0, deg)
            dv = rng.randint(0, deg - du)
            terms[(du, dv)] = rand_coeff()
        return BiPoly(terms)

    p, q = rand_poly(), rand_poly()
    du = rng.randint(0, deg)
    top = {(du, deg - du): Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3))}
    if rng.random() < 0.5:
        p = p + BiPoly(top)
    else:
        q = q + BiPoly(top)
    X = VectorField2(p, q)
    assert X.degree() == deg
    return X


def product_form_conjugacy(r, X) -> bool:
    """The reference check: p'(u) Y_1 == lambda P o Phi and
    p'(v) Y_2 == lambda Q o Phi, both products expanded."""
    p = r.cover_poly
    dpu = BiPoly.from_uni(p.derivative(), 0)
    dpv = BiPoly.from_uni(p.derivative(), 1)
    return (
        dpu * r.field.p_comp == r.lam * compose_separable(X.p_comp, p)
        and dpv * r.field.q_comp == r.lam * compose_separable(X.q_comp, p)
    )


def nudged(r, part):
    """r with the middle coefficient of one field component moved by 1."""
    p, q = r.field.p_comp, r.field.q_comp
    terms = list(p.terms if part == "p" else q.terms)
    key, c = terms[len(terms) // 2]
    terms[len(terms) // 2] = (key, c + 1)
    bad = BiPoly(terms)
    return replace(r, field=VectorField2(bad, q) if part == "p" else VectorField2(p, bad))


def random_cover(rng, m):
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
    coeffs.append(Fraction(rng.choice([1, 2, 3, -1, -2, -3])))
    return UniPoly(coeffs)


def random_rational_cover(rng, m):
    """A degree-m cover with coefficients over the denominators 1..6, but
    the constant term over 7: p' drops it, so p and p' never share their
    common denominator."""
    coeffs = [Fraction(7 * rng.randint(-3, 2) + rng.randint(1, 6), 7)]
    coeffs += [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m - 1)]
    coeffs.append(Fraction(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 6)))
    return UniPoly(coeffs)


def sympy_pullback(X, p):
    """The terms {(du, dv): c} of p'(v) P(p(u), p(v)) and of
    p'(u) Q(p(u), p(v)), expanded by sympy."""
    u, v = sympy.symbols("u v")
    pu = sum(sympy.Rational(c.numerator, c.denominator) * u**k for k, c in enumerate(p.coeffs))
    pv = pu.subs(u, v)

    def composed(F):
        return sum(sympy.Rational(c.numerator, c.denominator) * pu**a * pv**b for (a, b), c in F.terms)

    comps = (sympy.diff(pv, v) * composed(X.p_comp), sympy.diff(pu, u) * composed(X.q_comp))
    return [{key: Fraction(int(c.p), int(c.q)) for key, c in sympy.Poly(e, u, v).terms() if c}
            for e in comps]


class TestBuildPullback:
    def test_constant_field(self):
        X = VectorField2(BiPoly({(0, 0): 1}), BiPoly())
        r = build_pullback(X, chebyshev(2))
        assert r.field.p_comp == BiPoly({(0, 1): 4})  # T_2'(v) = 4v
        assert r.field.q_comp == BiPoly()

    def test_rotation_with_t2_by_hand(self):
        r = build_pullback(ROTATION, chebyshev(2))
        assert r.field.p_comp == BiPoly({(0, 3): 8, (0, 1): -4})
        assert r.field.q_comp == BiPoly({(3, 0): -8, (1, 0): 4})

    def test_radial_cubic_with_t3(self, radial_half, pullback_m3):
        # independent construction straight from the displayed formulas
        t3 = chebyshev(3)
        t3u, t3v = BiPoly.from_uni(t3, 0), BiPoly.from_uni(t3, 1)
        dt3u, dt3v = BiPoly.from_uni(t3.derivative(), 0), BiPoly.from_uni(t3.derivative(), 1)
        radial = t3u * t3u + t3v * t3v + BiPoly({(0, 0): Fraction(-1, 4)})
        assert pullback_m3.field.p_comp == dt3v * (t3v + MINUS_ONE * t3u * radial)
        assert pullback_m3.field.q_comp == dt3u * (MINUS_ONE * t3u + MINUS_ONE * t3v * radial)
        assert pullback_m3.field.degree() == 11
        assert pullback_m3.lam == dt3u * dt3v

    @pytest.mark.parametrize("seed", range(16))
    def test_rational_cover_matches_sympy(self, seed):
        rng = random.Random(seed)
        X, p = random_field(rng, 4), random_rational_cover(rng, rng.randint(2, 5))
        assert p.coeffs[0].denominator == 7
        Y = build_pullback(X, p).field
        assert [dict(Y.p_comp.terms), dict(Y.q_comp.terms)] == sympy_pullback(X, p)

    def test_low_degree_cover_rejected(self, radial_half):
        with pytest.raises(ValueError):
            build_pullback(radial_half, UniPoly((0, 1)))

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            build_pullback(VectorField2(BiPoly(), BiPoly()), chebyshev(2))


class TestConjugacy:
    def test_holds_by_construction(self, radial_half, pullback_m3):
        assert verify_conjugacy(pullback_m3, radial_half)

    def test_perturbation_detected(self, radial_half, pullback_m3):
        from dataclasses import replace

        bad = replace(
            pullback_m3,
            field=VectorField2(
                pullback_m3.field.p_comp + BiPoly({(0, 0): 1}), pullback_m3.field.q_comp
            ),
        )
        assert not verify_conjugacy(bad, radial_half)

    def test_cubic_seed_at_m64_within_wall_bound(self, radial_half):
        # build plus verify took 0.10 s (median of 5) on a shared 2-core
        # x86-64 host, each component built in one integer pass; the bound
        # is 5x that
        start = time.perf_counter()
        r = build_pullback(radial_half, chebyshev(64))
        assert verify_conjugacy(r, radial_half)
        assert time.perf_counter() - start < 0.5
        assert r.field.degree() == 64 * 3 + 63

    @pytest.mark.parametrize("part", ["p", "q"])
    def test_one_perturbed_coefficient_detected_at_m16(self, radial_half, part):
        # one coefficient c of the middle term moved by 1/(2 den(c)), which
        # changes its denominator and so every product it enters
        r = build_pullback(radial_half, chebyshev(16))
        assert verify_conjugacy(r, radial_half)
        p, q = r.field.p_comp, r.field.q_comp
        terms = list((p if part == "p" else q).terms)
        key, c = terms[len(terms) // 2]
        terms[len(terms) // 2] = (key, c + Fraction(1, 2 * c.denominator))
        bad = BiPoly(terms)
        r_bad = replace(r, field=VectorField2(bad, q) if part == "p" else VectorField2(p, bad))
        assert not verify_conjugacy(r_bad, radial_half)

    def test_exact_degree_examples(self, radial_half, pullback_m3):
        assert check_exact_degree(pullback_m3, radial_half)
        r2 = build_pullback(ROTATION, chebyshev(2))
        assert r2.field.degree() == 3
        assert check_exact_degree(r2, ROTATION)

    def test_exact_degree_random_quintic_m4(self):
        rng = random.Random(55)
        X = random_field(rng, 5, exact_deg=5)
        r = build_pullback(X, chebyshev(4))
        assert r.field.degree() == 23
        assert check_exact_degree(r, X)

    def test_random_instances(self):
        rng = random.Random(77)
        for k in range(30):
            X = random_field(rng, 5)
            p = random_cover(rng, (2, 3, 4)[k % 3])
            r = build_pullback(X, p)
            assert verify_conjugacy(r, X)
            assert check_exact_degree(r, X)


class TestCancelledCheck:
    """verify_conjugacy checks Y_1 = p'(v) P o Phi and Y_2 = p'(u) Q o Phi,
    the product form with p'(u), p'(v) cancelled; lambda = p'(u) p'(v) is
    derived from the cover."""

    def instances(self, radial_half):
        rng = random.Random(77)  # the instances of test_random_instances
        for k in range(30):
            X = random_field(rng, 5)
            yield build_pullback(X, random_cover(rng, (2, 3, 4)[k % 3])), X
        for m in range(2, 17):
            yield build_pullback(radial_half, chebyshev(m)), radial_half

    def test_agrees_with_product_form(self, radial_half):
        for r, X in self.instances(radial_half):
            for case in (r, nudged(r, "p"), nudged(r, "q")):
                assert verify_conjugacy(case, X) == product_form_conjugacy(case, X)
            assert verify_conjugacy(r, X)
            assert not verify_conjugacy(nudged(r, "p"), X)
            assert not verify_conjugacy(nudged(r, "q"), X)

    def test_lambda_must_be_the_cover_jacobian(self, radial_half):
        # 2 lambda and 2 Y would satisfy the product identity, but lam is
        # derived from the cover, so no result can carry 2 lambda
        for r, _ in self.instances(radial_half):
            dp = r.cover_poly.derivative()
            assert r.lam == BiPoly.from_uni(dp, 0) * BiPoly.from_uni(dp, 1)
        r = build_pullback(radial_half, chebyshev(3))
        two = BiPoly({(0, 0): 2})
        with pytest.raises(TypeError):
            replace(r, lam=two * r.lam)
        doubled = replace(r, field=VectorField2(two * r.field.p_comp, two * r.field.q_comp))
        assert not verify_conjugacy(doubled, radial_half)


# integer covers of degree 2 or 3
COVERS = st.builds(
    lambda low, top: UniPoly((*low, top)),
    st.lists(st.integers(-4, 4), min_size=2, max_size=3),
    st.integers(-4, 4).filter(bool),
)
QUADRATIC_MONOMIALS = [(du, dv) for du in range(3) for dv in range(3 - du)]
QUADRATIC_PARTS = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=6, max_size=6).map(
    lambda cs: BiPoly(dict(zip(QUADRATIC_MONOMIALS, cs)))
)
# seed fields of degree 1 or 2
SEED_FIELDS = st.builds(VectorField2, QUADRATIC_PARTS, QUADRATIC_PARTS).filter(lambda X: X.degree() >= 1)


class TestIteratedReplication:
    """Pulling back by p and then by q is pulling back once by p o q
    (chain rule: q'(v) p'(q(v)) = (p o q)'(v)), for any covers.  With
    T_a o T_b = T_ab, the (ab)^2 rectangles of the composite cover come
    from replicating twice.  All are exact polynomial identities."""

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_chebyshev_composes(self, a, b):
        # T_a(T_b(u)) by the substitution the pullback itself uses
        got = compose_separable(BiPoly.from_uni(chebyshev(a), 0), chebyshev(b))
        assert got == BiPoly.from_uni(chebyshev(a * b), 0)

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_two_pullbacks_are_one(self, radial_half, a, b):
        twice = build_pullback(build_pullback(radial_half, chebyshev(a)).field, chebyshev(b))
        once = build_pullback(radial_half, chebyshev(a * b))
        assert twice.field == once.field
        assert twice.field.degree() == 4 * a * b - 1

    @settings(max_examples=60, deadline=None)
    @given(SEED_FIELDS, COVERS, COVERS)
    def test_two_pullbacks_are_one_for_any_covers(self, X, p, q):
        # p o q by the substitution the pullback itself uses, read back densely
        terms = dict(compose_separable(BiPoly.from_uni(p, 0), q).terms)
        pq = UniPoly(tuple(terms.get((k, 0), 0) for k in range(p.degree() * q.degree() + 1)))
        first = build_pullback(X, p)
        twice = build_pullback(first.field, q)
        once = build_pullback(X, pq)
        assert twice.field == once.field
        assert check_exact_degree(first, X) and check_exact_degree(twice, first.field)
        assert check_exact_degree(once, X)
        assert once.field.degree() == (X.degree() + 1) * p.degree() * q.degree() - 1


class TestSerialization:
    def test_result_json(self, pullback_m3):
        blob = pullback_result_to_json(pullback_m3)
        assert blob["m"] == 3 and blob["d"] == 3 and blob["deg_Y"] == 11
        assert {"cover_poly", "field", "lambda"} <= set(blob)


class TestTamperedField:
    """verify_conjugacy compares the stored forms: a field one numerator
    off, or with a component doubled, is not the pullback."""

    @settings(max_examples=60, deadline=None)
    @given(SEED_FIELDS, COVERS, st.sampled_from(["p", "q"]), st.integers(0, 10**6), st.sampled_from([1, -1]))
    def test_one_numerator_off_or_a_component_doubled(self, X, p, part, pick, step):
        r = build_pullback(X, p)
        assert verify_conjugacy(r, X)
        Y = r.field
        if not (Y.p_comp if part == "p" else Y.q_comp).keys:  # a zero component stays zero
            part = "q" if part == "p" else "p"
        comp = Y.p_comp if part == "p" else Y.q_comp
        nums = list(comp.nums)
        nums[pick % len(nums)] += step
        off = BiPoly({key: Fraction(n, comp.den) for key, n in zip(comp.keys, nums)})
        for bad in (off, comp + comp):
            field = VectorField2(bad, Y.q_comp) if part == "p" else VectorField2(Y.p_comp, bad)
            assert not verify_conjugacy(replace(r, field=field), X)
