"""Replication arithmetic on published limit-cycle count records.

One pullback step of cover degree m turns a degree-n field with k limit
cycles into a degree-(nm + m - 1) field with m^2 k cycles, so any seed
lower bound L(n) on the cycle count at degree n yields m^2 L(n) at
target degree N whenever N + 1 = (n + 1) m.  This module keeps the seed
records as data, enumerates admissible factorizations to get the best
one-step consequence per target degree, gives the rows of the two
comparison tables, and evaluates the quadratic ceiling k0 ((N+1)/(n0+1))^2.

Iterating adds nothing: pulling back by T_{m_1}, ..., then T_{m_r} is
the one pullback by T_q, q = m_1 ... m_r, as T_a o T_b = T_ab (see
`cyclerep.pullback`).  So the schedule (m_1, ..., m_r) from a degree-n0
seed with k0 cycles reaches degree (n0 + 1) q - 1 with k0 q^2 cycles:
`replication_bound(n0, q, seeds)`, exactly the ceiling.  Bounds growing
faster than N^2, such as the n^2 log n family, need another mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .polynomials import as_integer

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


# The best published cycle-count lower bound per degree, with its source.
# The seeds fed into the replication step are those at SEED_DEGREES, and
# table 1 compares the bound at each of COMPARISON_DEGREES with L_Ch.
_PUBLISHED: Mapping[int, SeedBound] = {
    4: SeedBound(28, PROHENS_TORREGROSA),
    5: SeedBound(37, PROHENS_TORREGROSA),
    6: SeedBound(53, PROHENS_TORREGROSA),
    7: SeedBound(74, PROHENS_TORREGROSA),
    8: SeedBound(96, PROHENS_TORREGROSA),
    9: SeedBound(120, PROHENS_TORREGROSA),
    10: SeedBound(142, PROHENS_TORREGROSA),
    11: SeedBound(153, HAN_LI),
    12: SeedBound(157, HAN_LI),
    13: SeedBound(212, PROHENS_TORREGROSA),
    14: SeedBound(194, HAN_LI),
    15: SeedBound(345, HAN_LI),
    16: SeedBound(351, HAN_LI),
    17: SeedBound(384, PROHENS_TORREGROSA),
    18: SeedBound(372, HAN_LI),
    19: SeedBound(503, HAN_LI),
    20: SeedBound(509, HAN_LI),
    21: SeedBound(568, PROHENS_TORREGROSA),
    23: SeedBound(833, HAN_LI),
    24: SeedBound(843, HAN_LI),
    25: SeedBound(870, HAN_LI),
    26: SeedBound(880, HAN_LI),
    27: SeedBound(1023, HAN_LI),
    29: SeedBound(1060, HAN_LI),
    31: SeedBound(1184, PROHENS_TORREGROSA),
    35: SeedBound(1536, PROHENS_TORREGROSA),
    39: SeedBound(1920, PROHENS_TORREGROSA),
    43: SeedBound(2272, PROHENS_TORREGROSA),
}

SEED_DEGREES: tuple[int, ...] = (*range(4, 22), 31, 35, 39, 43)
COMPARISON_DEGREES: tuple[int, ...] = (11, 13, 14, 15, 17, 19, 20, 21, 23, 24, 25, 26, 27, 29, 31, 35, 39, 43)


def builtin_seed_table() -> SeedTable:
    return SeedTable(tuple((n, _PUBLISHED[n]) for n in SEED_DEGREES))


def seed_table_from_json(items: Iterable[Mapping]) -> SeedTable:
    entries = []
    for it in items:
        if not isinstance(source := it["source"], str):
            raise ValueError(f"seed source must be a JSON string, got {source!r}")
        entries.append((as_integer(it["n"]), SeedBound(as_integer(it["value"]), source)))
    return SeedTable(tuple(entries))


@dataclass(frozen=True)
class BoundEntry:
    """A lower bound at target_degree with its replication witness."""

    value: int
    witness: tuple[int, int]  # (seed degree n, cover degree m)
    source: str

    @property
    def target_degree(self) -> int:
        """(n + 1) m - 1, the degree of the pullback of a degree-n seed by T_m."""
        n, m = self.witness
        return (n + 1) * m - 1


def replication_bound(n: int, m: int, seeds: SeedTable) -> BoundEntry:
    """One pullback step: from the seed at degree n, a bound m^2 * seed(n)
    at target degree N = (n + 1) m - 1.  ValueError unless n and m are
    integers."""
    n, m = as_integer(n), as_integer(m)
    if m < 2:
        raise ValueError(f"cover degree must be >= 2, got {m}")
    sb = seeds.lookup(n)
    return BoundEntry(value=m * m * sb.value, witness=(n, m), source=sb.source)


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


def table1_rows(seeds: SeedTable) -> list[list[str]]:
    """Published vs replication bound per comparison degree: the header,
    then one row of string cells per degree."""
    rows = [["N", "L_pub(N)", "L_Ch(N)", "seed (n,m)", "Delta"]]
    for N in COMPARISON_DEGREES:
        l_pub = _PUBLISHED[N].value
        entry = best_cheb_bound(N, seeds)
        n, m = entry.witness
        rows.append([str(N), str(l_pub), str(entry.value), f"({n},{m})", str(entry.value - l_pub)])
    return rows


def table2_rows(seeds: SeedTable) -> list[list[str]]:
    """Derivation of each comparison degree's replication bound: the
    header, then one row of string cells per degree."""
    rows = [["N", "factorization of N+1", "seed bound used", "theorem output", "value of L_Ch(N)"]]
    for N in COMPARISON_DEGREES:
        entry = best_cheb_bound(N, seeds)
        n, m = entry.witness
        seed = entry.value // (m * m)  # exact: value = m^2 * seed(n)
        rows.append([str(N), f"{N + 1}={n + 1}*{m}", f"H({n})>={seed}",
                     f"H({N})>={m * m}*{seed}", str(entry.value)])
    return rows


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

