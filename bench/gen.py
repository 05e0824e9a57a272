"""Seeded input generator for the benchmark.

    python3 bench/gen.py --workload exact --seed 7 --out .bench_work/inputs

writes the field and polynomial JSON files a plan consumes under the
output directory and the plan itself as `plan.json`.  The same
(workload, seed, plan index) always gives the same files and plan.

A plan is a fixed mix of operations whose parameters the seed draws.
The mix is fixed because operation costs differ by orders of magnitude
(a lift at m=8 costs 5x one at m=6, a section miss up to 100x a search
that converges), so a run made of whole plans measures the same work
whatever the seed.  PLAN_SECONDS is what one plan took at the parent
commit on a 2-core x86-64 machine; a run makes round(seconds /
(PLAN_SECONDS * REPEATS)) plans, at least one, so that it lasts about
--seconds there and does the same work on every commit.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

RHOS = ("1/3", "2/5", "1/2", "3/5", "2/3")

PLAN_SECONDS = {"lift": 31.0, "search": 7.5, "exact": 19.0, "cli": 11.0}
# Executions of each plan in a row; the runner keeps each op's fastest.
REPEATS = {"lift": 1, "search": 3, "exact": 1, "cli": 1}

# Lift: m=6 for every rho, and the m=8 frontier at the worked example's
# rho=1/2, where 4 of 64 rectangles stall.  m=10 is left out: single
# rectangles there run past 40 s and the lift does not finish in 14 min.
LIFT_M = 6
LIFT_FRONTIER = ("1/2", 8)

# Search: counts per plan of each kind of start.  Each rho is used equally
# often, and starts are stratified (one per equal slice of the range),
# so that every plan has the same mix of costs and of failing starts.
SEARCH_SEED_STARTS = 10
# On the seed field the secant stalls on the flat return map for
# s0 below 0.07-0.11 (by rho); one start per plan lands there.
SEED_S0 = (0.12, 1.0)
FLAT_S0 = (0.01, 0.06)
SEARCH_STABLE_STARTS = 15     # per cover degree
SEARCH_M = (3, 5)
# Orientation-reversed rectangles hold a cycle that repels in forward
# time by the factor exp(4 pi rho^2) = 23..265 per turn, so a start
# converges only very near it: 2e-5 of the half-length works for
# rho <= 3/5, while at rho=2/3 even that misses.  One start per rho and
# cover degree.
REVERSED_FRAC = 2e-5
REVERSED_RHOS = ("1/3", "2/5", "1/2", "3/5")
# One section miss per plan: an inward start in rectangle (1, 2) of m=3
# at rho=1/2 misses and costs 0.33-0.37 s.  Inward misses in the other
# reversed rectangles cost 0.3-0.7 s, at rho=2/5 1-11 s, and outward or
# m=5 misses 3-120 s, which would make the run's cost depend on the seed.
MISS_RHO = "1/2"
MISS_RECTS = ((1, 2),)
MISS_FRAC = (-0.2, -0.02)
# Stable starts go at most 40% of the half-length inward.  Farther in, at
# rho <= 2/5 and m=5, the lift-style section runs past the pulled-back
# equilibrium at the rectangle's centre, and a search there fails in one
# of several ways at costs from 0.05 s to 75 s.  One such start per plan
# at fixed cost stays in the mix: in rectangle (5, 3) of m=5 at rho=1/3,
# 70-78% inward, find_cycle certifies the equilibrium as a cycle (0.1 s).
STABLE_FRAC = (-0.4, 0.9)
EQUILIBRIUM_START = ("1/3", 5, (5, 3), (-0.78, -0.70))

# Exact: (field, cover degrees).  Compilation fails at total degree
# above about 110 (cubic seed at m>=29) and Chebyshev branch counts go
# wrong from m=14; both stay in the mix.
EXACT_FIELDS = (
    ("cubic", (2, 8, 14, 20, 26, 30, 32)),
    ("dense2", (2, 8, 14, 20, 26)),
    ("dense3", (3, 9, 15, 21)),
    ("dense4", (4, 10, 16, 22)),
)
EXACT_CHEB_M = tuple(range(2, 49))
EXACT_RANDOM_POLYS = 16

# Target degrees of tests/golden/table1.csv, which is the query oracle.
QUERY_DEGREES = (11, 13, 14, 15, 17, 19, 20, 21, 23, 24, 25, 26, 27, 29, 31, 35, 39, 43)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))


def dense_field(rng: random.Random, degree: int):
    """Field whose two components carry every monomial of total degree
    <= degree with a nonzero small rational coefficient."""
    from cyclerep.polynomials import BiPoly, VectorField2

    def comp():
        return BiPoly({(i, k - i): _rational(rng) for k in range(degree + 1) for i in range(k + 1)})

    return VectorField2(comp(), comp())


def random_poly(rng: random.Random):
    from cyclerep.polynomials import UniPoly

    deg = rng.randint(3, 7)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice((-6, -5, -4, -3, 3, 4, 5, 6)), rng.randint(1, 2)))
    return UniPoly(tuple(coeffs))


def _write(out: Path, name: str, obj) -> str:
    path = out / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return name


def _lift(rng, tiny):
    if tiny:
        return [{"kind": "lift", "rho": "1/2", "m": 2}]
    ops = [{"kind": "lift", "rho": rho, "m": LIFT_M} for rho in rng.sample(RHOS, len(RHOS))]
    rho, m = LIFT_FRONTIER
    ops.insert(rng.randrange(len(ops) + 1), {"kind": "lift", "rho": rho, "m": m})
    return ops


def _rect(rng, rho: str, m: int, reversed_: bool, frac: float, ij=None) -> dict:
    # branch_sign(i) * branch_sign(j) < 0 exactly when i, j differ in parity
    while ij is None:
        i, j = rng.randint(1, m), rng.randint(1, m)
        if ((i - j) % 2 == 1) == reversed_:
            ij = (i, j)
    return {"kind": "rect", "rho": rho, "m": m, "i": ij[0], "j": ij[1],
            "frac": frac, "reversed": reversed_}


def _stratified(rng, n: int, lo: float, hi: float) -> list[tuple[str, float]]:
    """n (rho, x) pairs: rhos cycled evenly, x one per slice of (lo, hi)."""
    rhos = [RHOS[k % len(RHOS)] for k in range(n)]
    rng.shuffle(rhos)
    return [(rho, lo + (hi - lo) * (k + rng.random()) / n) for k, rho in enumerate(rhos)]


def _search(rng, tiny):
    if tiny:
        return [{"kind": "seed", "rho": "1/2", "s0": rng.uniform(0.2, 0.9)},
                _rect(rng, "1/2", 3, False, rng.uniform(*STABLE_FRAC)),
                _rect(rng, "1/2", 3, True, rng.uniform(-REVERSED_FRAC, REVERSED_FRAC)),
                dict(_rect(rng, MISS_RHO, 3, True, rng.uniform(*MISS_FRAC)), miss=True)]
    ops = [{"kind": "seed", "rho": rho, "s0": s0}
           for rho, s0 in _stratified(rng, SEARCH_SEED_STARTS, *SEED_S0)]
    ops.append({"kind": "seed", "rho": rng.choice(RHOS), "s0": rng.uniform(*FLAT_S0)})
    for m in SEARCH_M:
        ops += [_rect(rng, rho, m, False, frac)
                for rho, frac in _stratified(rng, SEARCH_STABLE_STARTS, *STABLE_FRAC)]
        ops += [_rect(rng, rho, m, True, rng.uniform(-REVERSED_FRAC, REVERSED_FRAC))
                for rho in REVERSED_RHOS]
    ops += [dict(_rect(rng, MISS_RHO, 3, True, rng.uniform(*MISS_FRAC), ij), miss=True)
            for ij in MISS_RECTS]
    rho, m, ij, frac = EQUILIBRIUM_START
    ops.append(_rect(rng, rho, m, False, rng.uniform(*frac), ij))
    rng.shuffle(ops)
    return ops


def _exact(rng, tiny, out: Path):
    from cyclerep.dynamics import radial_cubic_field
    from cyclerep.polynomials import field_to_json, unipoly_to_json

    fields = (("cubic", (2,)),) if tiny else EXACT_FIELDS
    ops = []
    for label, ms in fields:
        if label == "cubic":
            field = radial_cubic_field(Fraction(rng.choice(RHOS)))
        else:
            field = dense_field(rng, int(label[-1]))
        name = _write(out, f"fields/{label}.json", field_to_json(field))
        ops += [{"kind": "field", "field": name, "m": m} for m in ms]
    ops += [{"kind": "cheb", "m": m} for m in ((3,) if tiny else EXACT_CHEB_M)]
    for k in range(1 if tiny else EXACT_RANDOM_POLYS):
        name = _write(out, f"polys/p{k:02d}.json", unipoly_to_json(random_poly(rng)))
        ops.append({"kind": "poly", "poly": name})
    rng.shuffle(ops)
    return ops


def _cli(rng, tiny, out: Path, seed: int):
    from cyclerep.polynomials import field_to_json, unipoly_to_json

    field_deg, field_m = rng.choice((2, 3)), rng.randint(2, 5)
    field = _write(out, "fields/cli_field.json", field_to_json(dense_field(rng, field_deg)))
    poly = _write(out, "polys/cli_poly.json", unipoly_to_json(random_poly(rng)))
    # one rho for the whole run, so that repeated examples can be compared
    rho = random.Random(f"cli:{seed}").choice(RHOS)
    N = rng.choice(QUERY_DEGREES)
    k0, n0 = rng.randint(1, 40), rng.randint(1, 9)
    ceiling = (k0, n0, n0 + rng.randint(0, 40))
    ops = [
        {"kind": "table", "argv": ["bounds", "table1"], "golden": "table1.csv", "fmt": "csv"},
        {"kind": "table", "argv": ["bounds", "table1", "--format", "json"], "golden": "table1.csv", "fmt": "json"},
        {"kind": "table", "argv": ["bounds", "table2"], "golden": "table2.csv", "fmt": "csv"},
        {"kind": "table", "argv": ["bounds", "table2", "--format", "json"], "golden": "table2.csv", "fmt": "json"},
        {"kind": "query", "argv": ["bounds", "query", str(N)], "N": N},
        {"kind": "ceiling", "argv": ["bounds", "ceiling", *map(str, ceiling)], "args": ceiling},
        {"kind": "cheb", "argv": ["branches", "--cheb", str(rng.randint(2, 12))]},
        {"kind": "poly", "argv": ["branches", poly], "poly": poly},
        {"kind": "pullback", "argv": ["pullback", field, "--m", str(field_m)], "field": field, "m": field_m},
        {"kind": "example", "argv": ["example", "--m", "2", "--rho", rho], "m": 2, "rho": rho},
        {"kind": "example", "argv": ["example", "--m", "3", "--rho", rho], "m": 3, "rho": rho},
    ]
    if tiny:
        ops = [ops[1], ops[7], ops[8], ops[9]]
    rng.shuffle(ops)
    return ops


def make_plan(workload: str, seed: int, index: int, out: Path, tiny: bool = False) -> list[dict]:
    """Write the inputs of plan `index` under `out` and return its ops."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "lift":
        ops = _lift(rng, tiny)
    elif workload == "search":
        ops = _search(rng, tiny)
    elif workload == "exact":
        ops = _exact(rng, tiny, out)
    elif workload == "cli":
        ops = _cli(rng, tiny, out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write(out, "plan.json", ops)
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("lift", "search", "exact", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0, help="plan number within a run")
    ap.add_argument("--out", required=True, help="directory for the generated files")
    ap.add_argument("--tiny", action="store_true", help="one op per kind, m=2 where it applies")
    args = ap.parse_args(argv)
    ops = make_plan(args.workload, args.seed, args.index, Path(args.out), args.tiny)
    print(f"{len(ops)} ops written to {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())
