import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclerep.bounds import (
    COMPARISON_DEGREES,
    HAN_LI,
    PROHENS_TORREGROSA,
    MissingSeedError,
    NoWitnessError,
    SeedBound,
    SeedTable,
    admissible_factorizations,
    best_cheb_bound,
    builtin_seed_table,
    inequality_chain,
    quadratic_ceiling,
    replication_bound,
    seed_table_from_json,
    table1_csv,
    table2_csv,
    table_derivation,
    table_pub_vs_cheb,
)

GOLDEN = Path(__file__).parent / "golden"
SEEDS = builtin_seed_table()


class TestSeedTable:
    def test_exact_contents(self):
        expected = {
            4: 28, 5: 37, 6: 53, 7: 74, 8: 96, 9: 120, 10: 142,
            11: 153, 12: 157, 13: 212, 14: 194, 15: 345, 16: 351,
            17: 384, 18: 372, 19: 503, 20: 509, 21: 568,
            31: 1184, 35: 1536, 39: 1920, 43: 2272,
        }
        assert {n: sb.value for n, sb in SEEDS.entries} == expected

    def test_source_tags(self):
        assert SEEDS.lookup(9).source == PROHENS_TORREGROSA
        assert SEEDS.lookup(15).source == HAN_LI
        assert SEEDS.lookup(13).source == PROHENS_TORREGROSA

    def test_missing_degree(self):
        with pytest.raises(MissingSeedError):
            SEEDS.lookup(3)

    def test_repeated_degree_rejected(self):
        # a degree has one seed bound, whether or not the repeat agrees
        for second in (SeedBound(14, "b"), SeedBound(13, "a")):
            with pytest.raises(ValueError, match="degree 3"):
                SeedTable(((3, SeedBound(13, "a")), (3, second)))

    @pytest.mark.parametrize("entry", [{"n": 5, "value": 40.9}, {"n": 5.5, "value": 40}, {"n": 5, "value": "40"}])
    def test_non_integer_count_rejected(self, tmp_path, entry):
        # 40.9 is not truncated to 40, nor "40" parsed
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{**entry, "source": "custom"}]))
        with pytest.raises(ValueError, match="expected an integer"):
            seed_table_from_json(json.loads(path.read_text()))

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_degree_rejected(self, n):
        # the search divides by n + 1, which is 0 at n = -1
        with pytest.raises(ValueError, match=f"seed degree {n} must be >= 0"):
            SeedTable(((n, SeedBound(5, "a")), (4, SeedBound(28, "b"))))

    def test_json_override(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"n": 3, "value": 13, "source": "custom"}]))
        table = seed_table_from_json(json.loads(path.read_text()))
        assert table.lookup(3).value == 13


class TestReplicationBound:
    def test_examples(self):
        e = replication_bound(9, 3, SEEDS)
        assert (e.target_degree, e.value, e.witness) == (29, 1080, (9, 3))
        e = replication_bound(15, 2, SEEDS)
        assert (e.target_degree, e.value, e.witness) == (31, 1380, (15, 2))
        e = replication_bound(4, 5, SEEDS)
        assert (e.target_degree, e.value, e.witness) == (24, 700, (4, 5))

    @pytest.mark.parametrize("n0, k0, steps, expected", [
        (3, 1, (3,), (11, 9)),
        (3, 1, (2, 2), (15, 16)),
        (3, 1, (4,), (15, 16)),
        (9, 120, (3,), (29, 1080)),
    ], ids=["3", "2x2", "4", "h29"])
    def test_schedule_is_one_step_by_the_product(self, n0, k0, steps, expected):
        # pulling back by T_a, then T_b, is pulling back once by T_ab
        e = replication_bound(n0, math.prod(steps), SeedTable(((n0, SeedBound(k0, "s")),)))
        assert (e.target_degree, e.value) == expected

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            replication_bound(9, 1, SEEDS)
        with pytest.raises(MissingSeedError):
            replication_bound(3, 2, SEEDS)

    @pytest.mark.parametrize("n, m", [(9, 3.0), (9.0, 3), (9, 2.5), ("9", 3), (9, "3")])
    def test_non_integer_degrees_rejected(self, n, m):
        # 3.0 does not give target_degree 29.0, nor "9" a lookup by string
        with pytest.raises(ValueError, match="expected an integer"):
            replication_bound(n, m, SEEDS)


def every_m_factorizations(N, seeds):
    """Reference search: try every cover degree m from 2 to N + 1."""
    degrees = {n for n, _ in seeds.entries}
    out = []
    total = N + 1
    for m in range(2, total + 1):
        if total % m:
            continue
        n = total // m - 1
        if n in degrees:
            out.append((n, m))
    return out


class TestBestBound:
    @pytest.mark.parametrize(
        "N,value,witness",
        [
            (14, 252, (4, 3)),
            (11, 148, (5, 2)),
            (43, 2272, (21, 2)),   # ties (21,2) and (10,4); smallest m wins
            (27, 848, (13, 2)),    # ties (13,2) and (6,4); smallest m wins
            (35, 1536, (17, 2)),   # ties (17,2) and (8,4); smallest m wins
            (29, 1080, (9, 3)),
            (39, 2012, (19, 2)),
            (31, 1380, (15, 2)),
        ],
    )
    def test_values_and_witnesses(self, N, value, witness):
        entry = best_cheb_bound(N, SEEDS)
        assert entry.value == value
        assert entry.witness == witness

    def test_no_witness(self):
        with pytest.raises(NoWitnessError):
            best_cheb_bound(12, SEEDS)  # 13 is prime and 0 is not seeded

    def test_maximality_over_all_factorizations(self):
        for N in COMPARISON_DEGREES:
            best = best_cheb_bound(N, SEEDS)
            for n, m in admissible_factorizations(N, SEEDS):
                assert best.value >= replication_bound(n, m, SEEDS).value

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 60), st.integers(1, 10**6), max_size=25),
        st.integers(-2, 5000),
    )
    def test_factorizations_match_every_m_loop(self, values, N):
        seeds = SeedTable(tuple((n, SeedBound(v, "s")) for n, v in values.items()))
        assert admissible_factorizations(N, seeds) == every_m_factorizations(N, seeds)

    @pytest.mark.parametrize("degrees", [None, tuple(range(61))], ids=["builtin", "0..60"])
    def test_factorizations_match_every_m_loop_for_every_N(self, degrees):
        seeds = SEEDS
        if degrees is not None:
            seeds = SeedTable(tuple((n, SeedBound(1, "s")) for n in degrees))
        for N in range(-2, 5001):
            assert admissible_factorizations(N, seeds) == every_m_factorizations(N, seeds)

    def test_huge_degree_is_fast(self):
        # one divisibility test per seed degree; trying every m up to 10^9 + 1 takes a minute
        start = time.perf_counter()
        entry = best_cheb_bound(10**9, SEEDS)
        assert time.perf_counter() - start < 1.0
        assert (entry.witness, entry.value) == ((10, 90909091), 90909091**2 * 142)

    def test_inequality_chain_string(self):
        entry = best_cheb_bound(29, SEEDS)
        assert inequality_chain(entry) == "H(29) ≥ 9·H(9) ≥ 9·120 = 1080"


class TestTables:
    def test_row_n29(self):
        rows = {r.N: r for r in table_pub_vs_cheb()}
        r = rows[29]
        assert (r.l_pub, r.l_cheb, r.witness, r.delta) == (1060, 1080, (9, 3), 20)

    def test_row_n23(self):
        r = {r.N: r for r in table_pub_vs_cheb()}[23]
        assert (r.l_pub, r.l_cheb, r.witness, r.delta) == (833, 666, (7, 3), -167)

    def test_row_n13(self):
        r = {r.N: r for r in table_pub_vs_cheb()}[13]
        assert (r.l_pub, r.l_cheb, r.witness, r.delta) == (212, 212, (6, 2), 0)

    def test_eighteen_rows_each(self):
        assert len(table_pub_vs_cheb()) == 18
        assert len(table_derivation()) == 18

    def test_table1_matches_golden(self):
        assert table1_csv() == (GOLDEN / "table1.csv").read_text()

    def test_table2_matches_golden(self):
        assert table2_csv() == (GOLDEN / "table2.csv").read_text()


class TestQuadraticCeiling:
    def test_worked_example_value(self):
        assert quadratic_ceiling(1, 3, 11) == 9

    def test_zero_step_schedule(self):
        for k0 in (0, 1, 7):
            assert quadratic_ceiling(k0, 4, 4) == k0

    def test_rectangular_value(self):
        assert quadratic_ceiling(5, 4, 24) == 125

    def test_non_integer_ratio_stays_exact(self):
        assert quadratic_ceiling(2, 2, 4) == Fraction(50, 9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quadratic_ceiling(-1, 3, 11)
        with pytest.raises(ValueError):
            quadratic_ceiling(1, 0, 11)
        with pytest.raises(ValueError):
            quadratic_ceiling(1, 3, 2)

    def test_shipped_tables_saturate(self):
        for entry in table_derivation():
            n, m = entry.witness
            assert entry.value == quadratic_ceiling(entry.value // (m * m), n, entry.target_degree)

    @pytest.mark.parametrize("k0, n0, N", [(2.5, 3, 11), (1, 3.0, 11), (1, 3, 11.0), ("1", 3, 11), (1, 3, Fraction(11))])
    def test_non_integer_inputs_rejected(self, k0, n0, N):
        # 2.5 does not give the float 22.5, nor 11.0 a float ratio
        with pytest.raises(ValueError, match="expected an integer"):
            quadratic_ceiling(k0, n0, N)


class TestScheduleBound:
    # the schedule (m_1, ..., m_r) from a seed (n0, k0) is one replication
    # step by m_1 ... m_r; k0 >= 1, as a SeedTable holds only positive bounds
    def test_random_schedules_saturate_ceiling(self):
        rng = random.Random(314)
        for _ in range(100):
            n0, k0 = rng.randint(1, 9), rng.randint(1, 50)
            steps = [rng.randint(2, 5) for _ in range(rng.randint(1, 4))]
            e = replication_bound(n0, math.prod(steps), SeedTable(((n0, SeedBound(k0, "s")),)))
            assert e.value == quadratic_ceiling(k0, n0, e.target_degree)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 30),
        st.lists(st.integers(2, 6), min_size=1, max_size=4),
    )
    def test_saturation_property(self, n0, k0, steps):
        q = math.prod(steps)
        e = replication_bound(n0, q, SeedTable(((n0, SeedBound(k0, "s")),)))
        assert e.target_degree + 1 == (n0 + 1) * q
        assert e.value == quadratic_ceiling(k0, n0, e.target_degree)
