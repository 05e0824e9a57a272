"""Replication arithmetic on published limit-cycle count records.

One pullback step of cover degree m turns a degree-n field with k limit
cycles into a degree-(nm + m - 1) field with m^2 k cycles, so any seed
lower bound L(n) on the cycle count at degree n yields m^2 L(n) at
target degree N whenever N + 1 = (n + 1) m.  This module keeps the seed
records as data, enumerates admissible factorizations to get the best
one-step consequence per target degree, reproduces the two comparison
tables, and evaluates the quadratic ceiling k0 ((N+1)/(n0+1))^2 that
caps every replication-only schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .polynomials import as_integer, csv_text

HAN_LI = "HanLi"
PROHENS_TORREGROSA = "ProhensTorregrosa"


class MissingSeedError(LookupError):
    """No seed record at the requested degree."""


class NoWitnessError(LookupError):
    """No admissible factorization N + 1 = (n + 1) m hits the seed table."""


@dataclass(frozen=True)
class SeedBound:
    value: int
    source: str


@dataclass(frozen=True)
class SeedTable:
    """Seed lower bounds by degree, each tagged with its literature source."""

    entries: tuple[tuple[int, SeedBound], ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=lambda entry: entry[0]))
        for k, (n, sb) in enumerate(ordered):
            if n < 0:
                raise ValueError(f"seed degree {n} must be >= 0")
            if k and ordered[k - 1][0] == n:
                raise ValueError(f"seed degree {n} appears more than once")
            if sb.value <= 0:
                raise ValueError(f"seed bound at degree {n} must be positive")
        object.__setattr__(self, "entries", ordered)

    def lookup(self, n: int) -> SeedBound:
        for deg, sb in self.entries:
            if deg == n:
                return sb
        raise MissingSeedError(f"no seed bound recorded at degree {n}")


# Seed records (best published cycle-count lower bound per degree, with source).
_SEED_ROWS: tuple[tuple[int, int, str], ...] = (
    (4, 28, PROHENS_TORREGROSA),
    (5, 37, PROHENS_TORREGROSA),
    (6, 53, PROHENS_TORREGROSA),
    (7, 74, PROHENS_TORREGROSA),
    (8, 96, PROHENS_TORREGROSA),
    (9, 120, PROHENS_TORREGROSA),
    (10, 142, PROHENS_TORREGROSA),
    (11, 153, HAN_LI),
    (12, 157, HAN_LI),
    (13, 212, PROHENS_TORREGROSA),
    (14, 194, HAN_LI),
    (15, 345, HAN_LI),
    (16, 351, HAN_LI),
    (17, 384, PROHENS_TORREGROSA),
    (18, 372, HAN_LI),
    (19, 503, HAN_LI),
    (20, 509, HAN_LI),
    (21, 568, PROHENS_TORREGROSA),
    (31, 1184, PROHENS_TORREGROSA),
    (35, 1536, PROHENS_TORREGROSA),
    (39, 1920, PROHENS_TORREGROSA),
    (43, 2272, PROHENS_TORREGROSA),
)

# Published direct bounds at the comparison degrees themselves (the L_pub
# column of the comparison table); at composite degrees these can differ
# from the seed values fed into the replication step.
_PUB_ROWS: Mapping[int, tuple[int, str]] = {
    11: (153, HAN_LI),
    13: (212, PROHENS_TORREGROSA),
    14: (194, HAN_LI),
    15: (345, HAN_LI),
    17: (384, PROHENS_TORREGROSA),
    19: (503, HAN_LI),
    20: (509, HAN_LI),
    21: (568, PROHENS_TORREGROSA),
    23: (833, HAN_LI),
    24: (843, HAN_LI),
    25: (870, HAN_LI),
    26: (880, HAN_LI),
    27: (1023, HAN_LI),
    29: (1060, HAN_LI),
    31: (1184, PROHENS_TORREGROSA),
    35: (1536, PROHENS_TORREGROSA),
    39: (1920, PROHENS_TORREGROSA),
    43: (2272, PROHENS_TORREGROSA),
}

COMPARISON_DEGREES: tuple[int, ...] = tuple(sorted(_PUB_ROWS))


def builtin_seed_table() -> SeedTable:
    return SeedTable(tuple((n, SeedBound(v, src)) for n, v, src in _SEED_ROWS))


def seed_table_from_json(items: Iterable[Mapping]) -> SeedTable:
    entries = []
    for it in items:
        entries.append((as_integer(it["n"]), SeedBound(as_integer(it["value"]), str(it["source"]))))
    return SeedTable(tuple(entries))


def load_seed_table(path: str) -> SeedTable:
    with open(path, "r", encoding="utf-8") as fh:
        return seed_table_from_json(json.load(fh))


@dataclass(frozen=True)
class BoundEntry:
    """A lower bound at target_degree with its replication witness."""

    target_degree: int
    value: int
    witness: tuple[int, int]  # (seed degree n, cover degree m)
    source: str

    def __post_init__(self) -> None:
        n, m = self.witness
        if m < 2:
            raise ValueError("witness cover degree must be >= 2")
        if self.target_degree + 1 != (n + 1) * m:
            raise ValueError(
                f"witness ({n},{m}) inconsistent with target degree {self.target_degree}"
            )


def replication_bound(n: int, m: int, seeds: SeedTable) -> BoundEntry:
    """One pullback step: from the seed at degree n, a bound m^2 * seed(n)
    at target degree N = (n + 1) m - 1.  ValueError unless n and m are
    integers."""
    n, m = as_integer(n), as_integer(m)
    if m < 2:
        raise ValueError(f"cover degree must be >= 2, got {m}")
    sb = seeds.lookup(n)
    return BoundEntry(
        target_degree=(n + 1) * m - 1,
        value=m * m * sb.value,
        witness=(n, m),
        source=sb.source,
    )


def admissible_factorizations(N: int, seeds: SeedTable) -> list[tuple[int, int]]:
    """All (n, m) with N + 1 = (n + 1) m, m >= 2, n in the seed table,
    ordered by increasing m."""
    total = N + 1
    return [
        (n, total // (n + 1))
        for n, _ in reversed(seeds.entries)
        if total % (n + 1) == 0 and total // (n + 1) >= 2
    ]


def best_cheb_bound(N: int, seeds: SeedTable) -> BoundEntry:
    """Best one-step replication bound at degree N over all admissible
    factorizations; ties broken by the smallest cover degree m."""
    if N < 3:
        raise ValueError(f"target degree must be >= 3, got {N}")
    entries = [replication_bound(n, m, seeds) for n, m in admissible_factorizations(N, seeds)]
    if not entries:
        raise NoWitnessError(
            f"no factorization {N}+1 = (n+1)*m with m >= 2 hits the seed table"
        )
    return max(entries, key=lambda entry: entry.value)  # the first maximum: smallest m


def inequality_chain(entry: BoundEntry) -> str:
    """Human-readable derivation, e.g. 'H(29) ≥ 9·H(9) ≥ 9·120 = 1080'."""
    n, m = entry.witness
    msq = m * m
    seed = entry.value // msq  # exact: value = m^2 * seed(n)
    return f"H({entry.target_degree}) ≥ {msq}·H({n}) ≥ {msq}·{seed} = {entry.value}"


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the published-vs-replication comparison table."""

    N: int
    l_pub: int
    pub_source: str
    l_cheb: int
    witness: tuple[int, int]
    delta: int


def table_pub_vs_cheb(seeds: Optional[SeedTable] = None) -> list[ComparisonRow]:
    seeds = seeds or builtin_seed_table()
    rows = []
    for N in COMPARISON_DEGREES:
        l_pub, src = _PUB_ROWS[N]
        entry = best_cheb_bound(N, seeds)
        rows.append(
            ComparisonRow(
                N=N,
                l_pub=l_pub,
                pub_source=src,
                l_cheb=entry.value,
                witness=entry.witness,
                delta=entry.value - l_pub,
            )
        )
    return rows


def table_derivation(seeds: Optional[SeedTable] = None) -> list[BoundEntry]:
    seeds = seeds or builtin_seed_table()
    return [best_cheb_bound(N, seeds) for N in COMPARISON_DEGREES]


def table1_csv(rows: Optional[list[ComparisonRow]] = None) -> str:
    rows = rows if rows is not None else table_pub_vs_cheb()
    return csv_text([["N", "L_pub(N)", "L_Ch(N)", "seed (n,m)", "Delta"]] + [
        [r.N, r.l_pub, r.l_cheb, f"({r.witness[0]},{r.witness[1]})", r.delta] for r in rows
    ])


def table2_csv(rows: Optional[list[BoundEntry]] = None) -> str:
    rows = rows if rows is not None else table_derivation()
    lines = [["N", "factorization of N+1", "seed bound used", "theorem output", "value of L_Ch(N)"]]
    for r in rows:
        N, (n, m) = r.target_degree, r.witness
        seed = r.value // (m * m)  # exact: value = m^2 * seed(n)
        lines.append([N, f"{N + 1}={n + 1}*{m}", f"H({n})>={seed}",
                      f"H({N})>={m * m}*{seed}", r.value])
    return csv_text(lines)


def quadratic_ceiling(k0: int, n0: int, N: int) -> Fraction:
    """Cap k0 * ((N + 1) / (n0 + 1))^2 on the cycle count reachable from a
    degree-n0 seed with k0 cycles by replication alone, exact rational.
    ValueError unless k0, n0 and N are integers."""
    k0, n0, N = as_integer(k0), as_integer(n0), as_integer(N)
    if k0 < 0:
        raise ValueError("k0 must be >= 0")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if N < n0:
        raise ValueError("N must be >= n0")
    ratio = Fraction(N + 1, n0 + 1)
    return k0 * ratio * ratio


@dataclass(frozen=True)
class Schedule:
    """An iterated replication plan: seed (n0, k0) and cover degrees m_j."""

    n0: int
    k0: int
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        n0, k0, steps = as_integer(self.n0), as_integer(self.k0), tuple(map(as_integer, self.steps))
        if n0 < 1:
            raise ValueError("n0 must be >= 1")
        if k0 < 0:
            raise ValueError("k0 must be >= 0")
        if any(m < 2 for m in steps):
            raise ValueError("every replication step needs cover degree >= 2")
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "steps", steps)


def schedule_bound(s: Schedule) -> tuple[int, int]:
    """Final degree and cycle bound of an iterated replication schedule.

    Each step multiplies degree-plus-one by m_j and the cycle count by
    m_j^2, so the result saturates the quadratic ceiling exactly; that
    identity is asserted here.
    """
    degree_plus_one = s.n0 + 1
    cycle_bound = s.k0
    for m in s.steps:
        degree_plus_one *= m
        cycle_bound *= m * m
    N = degree_plus_one - 1
    assert Fraction(cycle_bound) == quadratic_ceiling(s.k0, s.n0, N)
    return N, cycle_bound
