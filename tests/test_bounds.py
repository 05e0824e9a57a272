import json
import math
import random
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
    Schedule,
    SeedBound,
    SeedTable,
    admissible_factorizations,
    best_cheb_bound,
    builtin_seed_table,
    inequality_chain,
    load_seed_table,
    quadratic_ceiling,
    replication_bound,
    schedule_bound,
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
            load_seed_table(str(path))

    def test_json_override(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"n": 3, "value": 13, "source": "custom"}]))
        table = load_seed_table(str(path))
        assert table.lookup(3).value == 13


class TestReplicationBound:
    def test_examples(self):
        e = replication_bound(9, 3, SEEDS)
        assert (e.target_degree, e.value, e.witness) == (29, 1080, (9, 3))
        e = replication_bound(15, 2, SEEDS)
        assert (e.target_degree, e.value, e.witness) == (31, 1380, (15, 2))
        e = replication_bound(4, 5, SEEDS)
        assert (e.target_degree, e.value, e.witness) == (24, 700, (4, 5))

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

    def test_inequality_chain_string(self):
        entry = best_cheb_bound(29, SEEDS)
        assert inequality_chain(entry, SEEDS) == "H(29) ≥ 9·H(9) ≥ 9·120 = 1080"


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

    @pytest.mark.parametrize("k0, n0, N", [(2.5, 3, 11), (1, 3.0, 11), (1, 3, 11.0), ("1", 3, 11), (1, 3, Fraction(11))])
    def test_non_integer_inputs_rejected(self, k0, n0, N):
        # 2.5 does not give the float 22.5, nor 11.0 a float ratio
        with pytest.raises(ValueError, match="expected an integer"):
            quadratic_ceiling(k0, n0, N)


def factorizations(q):
    """All multisets of factors >= 2 with the given product."""
    if q == 1:
        return [()]
    out = []
    for m in range(2, q + 1):
        if q % m == 0:
            out.extend((m,) + rest for rest in factorizations(q // m) if not rest or rest[0] >= m)
    return out


class TestScheduleBound:
    def test_worked_example(self):
        assert schedule_bound(Schedule(3, 1, (3,))) == (11, 9)

    def test_factorization_independence_example(self):
        assert schedule_bound(Schedule(3, 1, (2, 2))) == (15, 16)
        assert schedule_bound(Schedule(3, 1, (4,))) == (15, 16)

    def test_h29_derivation(self):
        assert schedule_bound(Schedule(9, 120, (3,))) == (29, 1080)

    def test_invalid_schedules(self):
        with pytest.raises(ValueError):
            Schedule(3, 1, (1,))
        with pytest.raises(ValueError):
            Schedule(0, 1, (2,))

    @pytest.mark.parametrize("n0, k0, steps", [(3, 1, (2.7, 3.9)), (3, 1.5, (2,)), (2.5, 1, (2,)), (3, 1, ("2",))])
    def test_non_integer_schedule_rejected(self, n0, k0, steps):
        # 2.7 is not truncated to 2, nor "2" parsed, nor 1.5 carried into a float bound
        with pytest.raises(ValueError, match="expected an integer"):
            Schedule(n0, k0, steps)

    def test_independence_all_products_up_to_64(self):
        for q in range(2, 65):
            results = {schedule_bound(Schedule(3, 2, f)) for f in factorizations(q)}
            assert results == {((3 + 1) * q - 1, 2 * q * q)}

    def test_random_schedules_saturate_ceiling(self):
        rng = random.Random(314)
        for _ in range(100):
            s = Schedule(
                rng.randint(1, 9),
                rng.randint(0, 50),
                tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 4))),
            )
            N, bound = schedule_bound(s)
            assert Fraction(bound) == quadratic_ceiling(s.k0, s.n0, N)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(0, 30),
        st.lists(st.integers(2, 6), min_size=1, max_size=4),
    )
    def test_saturation_property(self, n0, k0, steps):
        N, bound = schedule_bound(Schedule(n0, k0, tuple(steps)))
        assert Fraction(bound) == quadratic_ceiling(k0, n0, N)
        assert N + 1 == (n0 + 1) * math.prod(steps)
