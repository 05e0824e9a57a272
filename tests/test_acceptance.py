"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (visible with pytest -s)."""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cyclerep.bounds import (
    SeedBound,
    SeedTable,
    best_cheb_bound,
    builtin_seed_table,
    quadratic_ceiling,
    replication_bound,
)
from cyclerep.branches import branch_inverse, cheb_branches, full_branch_intervals
from cyclerep.cli import main
from cyclerep.dynamics import lift_cycles, radial_cubic_field
from cyclerep.polynomials import BiPoly, UniPoly, VectorField2, chebyshev
from cyclerep.pullback import build_pullback, check_exact_degree, verify_conjugacy

GOLDEN = Path(__file__).parent / "golden"


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_table_reproduction(tmp_path):
    start = time.perf_counter()
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    code1 = main(["bounds", "table1", "--out", str(out1)])
    code2 = main(["bounds", "table2", "--out", str(out2)])
    elapsed = time.perf_counter() - start
    ok = (
        code1 == 0
        and code2 == 0
        and out1.read_text() == (GOLDEN / "table1.csv").read_text()
        and out2.read_text() == (GOLDEN / "table2.csv").read_text()
        and elapsed < 1.0
    )
    report(1, "table reproduction", ok)


def test_criterion_2_headline_bounds():
    seeds = builtin_seed_table()
    expected = {14: (252, (4, 3)), 29: (1080, (9, 3)), 31: (1380, (15, 2)), 39: (2012, (19, 2))}
    ok = True
    for N, (value, witness) in expected.items():
        entry = best_cheb_bound(N, seeds)
        ok = ok and entry.value == value and entry.witness == witness
    report(2, "headline bounds", ok)


def _random_field(rng, max_deg):
    """Random genuinely-degree-d field, rational coefficients in [-3, 3]."""
    deg = rng.randint(1, max_deg)

    def coeff():
        den = rng.randint(1, 4)
        return Fraction(rng.randint(-3 * den, 3 * den), den)

    terms_p, terms_q = {}, {}
    for terms in (terms_p, terms_q):
        for _ in range(rng.randint(1, 6)):
            du = rng.randint(0, deg)
            dv = rng.randint(0, deg - du)
            terms[(du, dv)] = coeff()
    du = rng.randint(0, deg)
    top_coeff = Fraction(rng.choice([1, 2, 3, -1, -2, -3]), rng.randint(1, 2))
    (terms_p if rng.random() < 0.5 else terms_q)[(du, deg - du)] = top_coeff
    X = VectorField2(BiPoly(terms_p), BiPoly(terms_q))
    if X.degree() != deg:
        return _random_field(rng, max_deg)
    return X


def _random_cover(rng, m):
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
    coeffs.append(Fraction(rng.choice([1, 2, 3, -1, -2, -3])))
    return UniPoly(coeffs)


def test_criterion_3_conjugacy_identity_suite():
    rng = random.Random(160920)
    start = time.perf_counter()
    ok = True
    for k in range(200):
        X = _random_field(rng, 5)
        m = (2, 3, 4)[k % 3]
        p = chebyshev(m) if k % 5 == 0 else _random_cover(rng, m)
        result = build_pullback(X, p)
        ok = ok and verify_conjugacy(result, X) and check_exact_degree(result, X)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, f"conjugacy identity suite ({elapsed:.1f}s)", ok)


def _run_example(tmp_path, m):
    out_dir = tmp_path / f"m{m}"
    code = main(["example", "--m", str(m), "--rho", "1/2", "--out-dir", str(out_dir)])
    rows = (out_dir / "cycles.csv").read_text().strip().splitlines()[1:]
    residuals = [
        float(line.split(",")[2])
        for line in (out_dir / "residuals.csv").read_text().strip().splitlines()[1:]
    ]
    return code, rows, residuals


def test_criterion_4_worked_example(tmp_path):
    start = time.perf_counter()
    code, rows, residuals = _run_example(tmp_path, 3)
    elapsed = time.perf_counter() - start

    ok = code == 0 and len(rows) == 9
    rects = set()
    mu_plus, mu_minus = math.exp(-math.pi), math.exp(math.pi)
    for row in rows:
        i, j, _, _, _, mu, reversed_flag = row.split(",")
        rects.add((int(i), int(j)))
        target = mu_minus if reversed_flag == "true" else mu_plus
        ok = ok and abs(float(mu) - target) / target <= 1e-3
    ok = ok and rects == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    ok = ok and all(abs(r) <= 1e-6 for r in residuals) and len(residuals) == 9

    field = radial_cubic_field(Fraction(1, 2))
    pb = build_pullback(field, chebyshev(3))
    ok = ok and pb.field.degree() == 11
    ok = ok and elapsed < 60.0
    report(4, f"worked example m=3 ({elapsed:.1f}s)", ok)


def test_criterion_5_m2_and_m4_replication(tmp_path, base_cycle, radial_half):
    start = time.perf_counter()
    counts = {}
    for m in (2, 4):
        pb = build_pullback(radial_half, chebyshev(m))
        records = lift_cycles(pb, base_cycle, m)
        counts[m] = sum(1 for r in records if r.certified)
    elapsed = time.perf_counter() - start
    ok = counts == {2: 4, 4: 16} and elapsed < 90.0
    report(5, f"m=2/m=4 replication ({elapsed:.1f}s)", ok)


def test_criterion_6_branch_suite():
    ok = all(full_branch_intervals(chebyshev(m)).count == m for m in range(2, 65))

    rng = random.Random(777)
    for _ in range(100):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-3_000_000, 3_000_000), 1_000_000) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(100_000, 3_000_000), 1_000_000))
        ok = ok and full_branch_intervals(UniPoly(coeffs)).count <= deg

    for m in range(2, 9):
        t = chebyshev(m)
        for k in range(1, m + 1):
            for _ in range(200):
                y = rng.uniform(-0.999, 0.999)
                u = branch_inverse(m, k, y)
                ok = ok and abs(float(t.evaluate(Fraction(u))) - y) <= 1e-12
    report(6, "branch suite", ok)


def _factorizations(q):
    """Every ordered tuple of factors >= 2 with product q."""
    if q == 1:
        return [()]
    return [(m,) + rest for m in range(2, q + 1) if q % m == 0 for rest in _factorizations(q // m)]


def test_criterion_7_quadratic_ceiling(radial_half):
    # a schedule (m_1, ..., m_r) is the one replication step by q = m_1 ... m_r,
    # which saturates the ceiling
    rng = random.Random(41)
    ok = True
    for _ in range(100):
        n0, k0 = rng.randint(1, 9), rng.randint(0, 40)
        q = math.prod(rng.randint(2, 6) for _ in range(rng.randint(1, 4)))
        N = (n0 + 1) * q - 1
        if k0:  # a seed table holds positive bounds only; k0 = 0 leaves the ceiling 0
            entry = replication_bound(n0, q, SeedTable(((n0, SeedBound(k0, "s")),)))
            ok = ok and entry.target_degree == N and entry.value == quadratic_ceiling(k0, n0, N)
        else:
            ok = ok and quadratic_ceiling(k0, n0, N) == 0

    # the worked example saturates the ceiling: 9 = 1 * (12/4)^2
    ok = ok and quadratic_ceiling(1, 3, 11) == 9

    # the reason, as exact fields: pulling back by T_{m_1}, then T_{m_2}, ...,
    # in every order, is pulling back once by T_q
    for q in range(2, 17):
        once = build_pullback(radial_half, chebyshev(q)).field
        for steps in _factorizations(q):
            field = radial_half
            for m in steps:
                field = build_pullback(field, chebyshev(m)).field
            ok = ok and field == once
    report(7, "quadratic ceiling properties", ok)


def test_criterion_8_multiplier_inversion(pullback_m3, base_cycle):
    records = lift_cycles(pullback_m3, base_cycle, 3)
    plus = [r.multiplier for r in records if not r.orientation_reversed]
    minus = [r.multiplier for r in records if r.orientation_reversed]
    ok = len(plus) == 5 and len(minus) == 4
    for mu_minus in minus:
        for mu_plus in plus:
            ok = ok and abs(mu_minus * mu_plus - 1.0) <= 5e-3
    report(8, "multiplier inversion", ok)
