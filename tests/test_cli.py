import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cyclerep
from cyclerep import branches, svgplot
from cyclerep.branches import cheb_nodes, full_branch_intervals
from cyclerep.cli import main
from cyclerep.polynomials import UniPoly, chebyshev, field_to_json, fmt9, unipoly_to_json
from cyclerep.dynamics import lift_cycles, radial_cubic_field
from cyclerep.pullback import build_pullback

GOLDEN = Path(__file__).parent / "golden"


def write_field_file(tmp_path, field, name="field.json"):
    path = tmp_path / name
    path.write_text(json.dumps(field_to_json(field)))
    return str(path)


def main_within_10s(argv):
    """main(argv), asserted to return within 10 s of wall time: a step that
    grows too fast with its input fails here instead of running on."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 10, argv
    return code


class TestPullbackCommand:
    def test_worked_cubic(self, tmp_path, radial_half):
        field_file = write_field_file(tmp_path, radial_half)
        out = tmp_path / "out.json"
        assert main(["pullback", field_file, "--m", "3", "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["deg_Y"] == 11
        assert blob["conjugacy_identity"] is True
        assert blob["exact_degree"] is True

    @pytest.mark.parametrize("m", [2, 5])
    def test_golden_field_bytes(self, m, capsys):
        # tests/golden/pullback_field.json: degree 3, every monomial present,
        # denominators 1 to 4; its outputs as first written pin the bytes
        assert main(["pullback", str(GOLDEN / "pullback_field.json"), "--m", str(m)]) == 0
        got = capsys.readouterr().out.encode("utf-8")
        assert got == (GOLDEN / f"pullback_field_m{m}.json").read_bytes()

    def test_golden_field_m64_hash(self, tmp_path, capsys):
        # the 2 MB pullback at m = 64 is pinned by its sha256, in the
        # `sha256sum -c` format; the bytes as first written.  The exact
        # layer at the largest cover: each component built in one integer
        # pass, and verified by a rebuild
        out = tmp_path / "pb64.json"
        assert main_within_10s(["pullback", str(GOLDEN / "pullback_field.json"), "--m", "64", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "deg_Y=255 conjugacy=ok exact_degree=ok\n"
        digest, name = (GOLDEN / "pullback_field_m64.sha256").read_text().split()
        assert (hashlib.sha256(out.read_bytes()).hexdigest(), name) == (digest, out.name)

    def test_iterated_pullback_is_one_pullback(self, tmp_path):
        # pulling back by T_2 and the result by T_3 gives the field of the
        # one pullback by T_6, as T_2 o T_3 = T_6
        field = GOLDEN / "pullback_field.json"
        pb2, pb23, pb6 = (tmp_path / f"{name}.json" for name in ("pb2", "pb23", "pb6"))
        assert main(["pullback", str(field), "--m", "2", "--out", str(pb2)]) == 0
        field2 = tmp_path / "field2.json"
        field2.write_text(json.dumps(json.loads(pb2.read_text())["field"]))
        assert main(["pullback", str(field2), "--m", "3", "--out", str(pb23)]) == 0
        assert main(["pullback", str(field), "--m", "6", "--out", str(pb6)]) == 0
        twice, once = json.loads(pb23.read_text()), json.loads(pb6.read_text())
        assert twice["field"] == once["field"]
        assert twice["deg_Y"] == once["deg_Y"] == 23

    def test_constant_field_follows_the_degree_law(self, tmp_path, capsys):
        # deg Y = n m + m - 1 holds at n = 0: the field (1, 0) pulled back
        # by T_3 is (T_3'(v), 0) = (12 v^2 - 3, 0), of degree 2
        field = tmp_path / "one.json"
        field.write_text(json.dumps({"p": [{"du": 0, "dv": 0, "c": "1"}], "q": []}))
        out = tmp_path / "out.json"
        assert main(["pullback", str(field), "--m", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "deg_Y=2 conjugacy=ok exact_degree=ok\n"
        blob = json.loads(out.read_text())
        assert (blob["d"], blob["deg_Y"], blob["exact_degree"]) == (0, 2, True)
        assert blob["field"] == {"p": [{"du": 0, "dv": 0, "c": "-3/1"}, {"du": 0, "dv": 2, "c": "12/1"}], "q": []}

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["pullback", str(bad), "--m", "3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad vector field file {bad}: ")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(["pullback", str(absent), "--m", "3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad vector field file {absent}: ")

    def test_m1_exits_3(self, tmp_path, radial_half):
        field_file = write_field_file(tmp_path, radial_half)
        assert main(["pullback", field_file, "--m", "1"]) == 3

    def test_zero_denominator_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({"p": [{"du": 0, "dv": 1, "c": "1/0"}], "q": []}))
        assert main(["pullback", str(bad), "--m", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad vector field file {bad}: ")

    def test_fractional_exponent_exits_2(self, tmp_path, capsys):
        # du = 0.5 is not truncated to the term v
        bad = tmp_path / "half.json"
        bad.write_text(json.dumps({"p": [{"du": 0.5, "dv": 1, "c": "1"}], "q": [{"du": 1, "dv": 0, "c": "1"}]}))
        assert main(["pullback", str(bad), "--m", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad vector field file {bad}: ")

    def test_float_coefficient_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "float.json"
        bad.write_text(json.dumps({"p": [{"du": 0, "dv": 1, "c": 0.1}], "q": [{"du": 1, "dv": 0, "c": "1"}]}))
        assert main(["pullback", str(bad), "--m", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad vector field file {bad}: ")

    def test_repeated_exponent_exits_2(self, tmp_path, capsys):
        # the second u term once replaced the first: p read as 2u, exit 0
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps({"p": [{"du": 1, "dv": 0, "c": "1"}, {"du": 1, "dv": 0, "c": "2"}],
                                   "q": [{"du": 0, "dv": 1, "c": "1"}]}))
        assert main(["pullback", str(bad), "--m", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad vector field file {bad}: ")

    def test_bool_exponent_exits_2(self, tmp_path, capsys):
        # du = true was once read as 1: exit 0 with deg_Y=3
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({"p": [{"du": True, "dv": 0, "c": "1"}], "q": [{"du": 0, "dv": 1, "c": "1"}]}))
        assert main(["pullback", str(bad), "--m", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad vector field file {bad}: ")


class TestBoundsCommand:
    def test_table1_matches_golden(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["bounds", "table1", "--out", str(out)]) == 0
        assert out.read_text() == (GOLDEN / "table1.csv").read_text()

    def test_table2_matches_golden(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert main(["bounds", "table2", "--out", str(out)]) == 0
        assert out.read_text() == (GOLDEN / "table2.csv").read_text()

    def test_table_stdout_deterministic(self, capsys):
        assert main(["bounds", "table1"]) == 0
        first = capsys.readouterr().out
        assert main(["bounds", "table1"]) == 0
        assert capsys.readouterr().out == first

    def test_query_39(self, capsys):
        assert main(["bounds", "query", "39"]) == 0
        out = capsys.readouterr().out
        assert "2012" in out and "(19,2)" in out
        assert "H(39) ≥ 4·H(19) ≥ 4·503 = 2012" in out

    def test_query_of_a_huge_degree(self, capsys):
        # one divisibility test per seed degree, so N = 10^9 answers at once
        assert main_within_10s(["bounds", "query", "1000000000"]) == 0
        assert "witness=(10,90909091)" in capsys.readouterr().out

    def test_query_without_witness_exits_5(self, capsys):
        # at N = 10^12 no seed degree n has n + 1 dividing N + 1
        for N in ("12", "1000000000000"):
            assert main_within_10s(["bounds", "query", N]) == 5

    @pytest.mark.parametrize("error", ["MissingSeedError", "NoWitnessError"])
    def test_lookup_errors_exit_5(self, monkeypatch, capsys, error):
        import cyclerep.bounds as bounds_mod

        def fail(N, seeds):
            raise getattr(bounds_mod, error)("synthetic")

        monkeypatch.setattr(bounds_mod, "best_cheb_bound", fail)
        assert main(["bounds", "query", "11"]) == 5
        assert capsys.readouterr().err == "error: synthetic\n"

    def test_ceiling_integer(self, capsys):
        assert main(["bounds", "ceiling", "1", "3", "11"]) == 0
        assert capsys.readouterr().out.strip() == "9"

    def test_ceiling_fraction(self, capsys):
        assert main(["bounds", "ceiling", "2", "2", "4"]) == 0
        assert capsys.readouterr().out.strip() == "50/9"

    def test_seed_table_env_override(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"n": 5, "value": 40, "source": "custom"}]))
        monkeypatch.setenv("CYCLEREP_SEED_TABLE", str(path))
        assert main(["bounds", "query", "11"]) == 0
        out = capsys.readouterr().out
        assert "160" in out  # 4 * 40 from the override table

    @pytest.mark.parametrize(
        "entries",
        [
            None,  # no file at the path
            [{"n": 5, "source": "custom"}],
            [{"n": 5, "value": 40, "source": "a"}, {"n": 5, "value": 41, "source": "b"}],
            [{"n": 5, "value": 40.9, "source": "custom"}],
            [{"n": -1, "value": 5, "source": "custom"}],  # once read as (n + 1) = 0
            [{"n": 9, "value": True, "source": "custom"}],  # once read as 1: L_Ch=9 at N = 29
            [{"n": 9, "value": 120, "source": None}],  # once printed as source=None
            [{"n": 9, "value": 120, "source": ["x"]}],  # once printed as source=['x']
        ],
        ids=["missing_file", "missing_value", "repeated_degree", "fractional_value",
             "negative_degree", "bool_value", "null_source", "list_source"],
    )
    def test_bad_seed_table_file_exits_2(self, tmp_path, capsys, monkeypatch, entries):
        path = tmp_path / "seeds.json"
        if entries is not None:
            path.write_text(json.dumps(entries))
        monkeypatch.setenv("CYCLEREP_SEED_TABLE", str(path))
        for argv in (["table1"], ["table2"], ["query", "11"]):
            assert main(["bounds", *argv]) == 2
            assert capsys.readouterr().err.startswith(f"error: bad seed table file {path}: ")

    def test_json_format(self, capsys):
        # quoted cells such as "seed (n,m)" and "(5,2)" stay whole strings
        for table in ("table1", "table2"):
            assert main(["bounds", table, "--format", "json"]) == 0
            blob = json.loads(capsys.readouterr().out)
            with open(GOLDEN / f"{table}.csv", newline="", encoding="utf-8") as fh:
                golden = list(csv.reader(fh))
            assert blob["header"] == golden[0]
            assert blob["rows"] == golden[1:]
            assert len(blob["rows"]) == 18

    def test_seed_table_override_tables_in_both_formats(self, tmp_path, capsys, monkeypatch):
        # a lone seed at degree 0 is the witness (0, N+1) of every N
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"n": 0, "value": 1, "source": "x"}]))
        monkeypatch.setenv("CYCLEREP_SEED_TABLE", str(path))
        row11 = {"table1": ["11", "153", "144", "(0,12)", "-9"],
                 "table2": ["11", "12=1*12", "H(0)>=1", "H(11)>=144*1", "144"]}
        for table, want in row11.items():
            assert main(["bounds", table]) == 0
            rows = list(csv.reader(capsys.readouterr().out.splitlines()))
            assert main(["bounds", table, "--format", "json"]) == 0
            blob = json.loads(capsys.readouterr().out)
            assert [blob["header"], *blob["rows"]] == rows
            assert len(rows) == 19 and rows[1] == want

    @pytest.mark.parametrize("table", ["table1", "table2"])
    def test_json_matches_golden(self, table, tmp_path):
        # tests/golden/table{1,2}.json: the JSON tables as first written pin the bytes
        out = tmp_path / f"{table}.json"
        assert main(["bounds", table, "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{table}.json").read_bytes()


class TestBranchesCommand:
    @pytest.mark.parametrize("name", ["t64", "t63", "t5_11_10", "quartic"])
    def test_golden_bytes(self, name, tmp_path, capsys):
        # the exact classifier on the even cover T_64, the odd covers T_63 and
        # (11/10) T_5, and 2 - 5x - 12x^2 + 7x^3 - 10x^4, neither odd nor even
        # (tests/golden/quartic.json); its outputs as first written pin the bytes
        covers = {
            "t64": chebyshev(64),
            "t63": chebyshev(63),
            "t5_11_10": UniPoly([Fraction(11, 10) * c for c in chebyshev(5).coeffs]),
        }
        if name in covers:
            poly_file = tmp_path / f"{name}.json"
            poly_file.write_text(json.dumps(unipoly_to_json(covers[name])))
        else:
            poly_file = GOLDEN / "quartic.json"
        assert main(["branches", str(poly_file)]) == 0
        got = capsys.readouterr().out.encode("utf-8")
        assert got == (GOLDEN / f"branches_{name}.json").read_bytes()

    def test_cheb_6(self, capsys):
        # T_m is built from its explicit coefficients, one exact step per
        # coefficient, so the branches of T_10000 come in well within 10 s
        for m in (6, 10000):
            assert main_within_10s(["branches", "--cheb", str(m)]) == 0
            blob = json.loads(capsys.readouterr().out)
            assert blob["count"] == m
            assert len(blob["intervals"]) == m

    def test_square_polynomial_has_no_branches(self, tmp_path, capsys):
        poly_file = tmp_path / "sq.json"
        from cyclerep.polynomials import UniPoly

        poly_file.write_text(json.dumps(unipoly_to_json(UniPoly((0, 0, 1)))))
        assert main(["branches", str(poly_file)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["count"] == 0

    def test_t3_file_matches_closed_form(self, tmp_path, capsys):
        poly_file = tmp_path / "t3.json"
        poly_file.write_text(json.dumps(unipoly_to_json(chebyshev(3))))
        assert main(["branches", str(poly_file)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["branches", "--cheb", "3"]) == 0
        closed = json.loads(capsys.readouterr().out)
        assert from_file["count"] == closed["count"] == 3
        for a, b in zip(from_file["intervals"], closed["intervals"]):
            assert a["k"] == b["k"] and a["dir"] == b["dir"]
            assert abs(a["lo"] - b["lo"]) <= 1e-8
            assert abs(a["hi"] - b["hi"]) <= 1e-8

    def test_degenerate_warns_but_exits_0(self, tmp_path, capsys):
        poly_file = tmp_path / "cube.json"
        from cyclerep.polynomials import UniPoly

        poly_file.write_text(json.dumps(unipoly_to_json(UniPoly((0, 0, 0, 1)))))
        assert main(["branches", str(poly_file)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert json.loads(captured.out)["degenerate"] is True

    def test_zero_denominator_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({"coeffs": ["0", "1/0", "1"]}))
        assert main(["branches", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad polynomial file {bad}: ")

    def test_float_coefficient_exits_2(self, tmp_path, capsys):
        # 0.1 would be read as its binary value, not as 1/10
        bad = tmp_path / "float.json"
        bad.write_text(json.dumps({"coeffs": [0.1, 1]}))
        assert main(["branches", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad polynomial file {bad}: ")

    def test_bool_coefficient_exits_2(self, tmp_path, capsys):
        # [true, 0, 1] was once read as 1 + x^2, exit 0
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({"coeffs": [True, 0, 1]}))
        assert main(["branches", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad polynomial file {bad}: ")

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b'{"coeffs": ["\xff"]}', b"[" * 100_000 + b"]" * 100_000],
        ids=["not_json", "not_utf8", "too_deep"],  # not_utf8 once exited 3, too_deep with a traceback
    )
    def test_malformed_json_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["branches", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad polynomial file {bad}: ")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(["branches", str(absent)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad polynomial file {absent}: ")

    def test_cheb_below_2_exits_3(self, capsys):
        assert main(["branches", "--cheb", "1"]) == 3
        assert capsys.readouterr().err == "error: need m >= 2, got 1\n"

    def test_string_coeffs_exits_2(self, tmp_path, capsys):
        # "301" was once read character by character as 3 + x^2, exit 0
        bad = tmp_path / "string.json"
        bad.write_text(json.dumps({"coeffs": "301"}))
        assert main(["branches", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad polynomial file {bad}: ")

    def test_svg_cheb6_matches_golden(self, tmp_path, capsys):
        # tests/golden/branches_cheb6.svg: the T_6 graph as first written pins the bytes
        svg = tmp_path / "cheb6.svg"
        assert main(["branches", "--cheb", "6", "--svg", str(svg)]) == 0
        capsys.readouterr()
        assert svg.read_bytes() == (GOLDEN / "branches_cheb6.svg").read_bytes()

    def test_svg_output(self, tmp_path, capsys):
        svg = tmp_path / "graph.svg"
        assert main(["branches", "--cheb", "4", "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "</svg>" in text

    def test_svg_plots_exact_values(self, tmp_path, capsys):
        # float Horner on T_64's monomial coefficients is off by 2.7e7 on [-1, 1];
        # each drawn point, read back from 9-digit pixels, lies on cos(64 acos x)
        svg = tmp_path / "t64.svg"
        assert main(["branches", "--cheb", "64", "--svg", str(svg)]) == 0
        capsys.readouterr()
        (coords,) = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="#2255cc"',
                               svg.read_text())
        scale = svgplot.SIZE / (2.0 * svgplot.WORLD)
        points = [tuple(map(float, pair.split(","))) for pair in coords.split()]
        assert len(points) == 401
        inside = 0
        for px, py in points:
            x, y = px / scale - svgplot.WORLD, svgplot.WORLD - py / scale
            if abs(x) <= 1:
                inside += 1
                assert abs(y - math.cos(64 * math.acos(x))) <= 1e-6, x
        assert inside > 350

    def test_both_inputs_rejected(self, tmp_path):
        poly_file = tmp_path / "p.json"
        poly_file.write_text(json.dumps(unipoly_to_json(chebyshev(3))))
        assert main(["branches", str(poly_file), "--cheb", "3"]) == 3
        assert main(["branches"]) == 3

    # 10^400 is beyond float range; the coefficients are written out in digits
    def test_tiny_coefficient_is_decided_exactly(self, tmp_path, capsys):
        # 1 + x^2 / 10^400 >= 1 everywhere: no branch, and no float overflow
        poly_file = tmp_path / "tiny.json"
        poly_file.write_text(json.dumps({"coeffs": ["1", "0", f"1/{10**400}"]}))
        assert main(["branches", str(poly_file)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert (blob["count"], blob["degenerate"]) == (0, False)

    def test_endpoint_beyond_float_range_exits_3(self, tmp_path, capsys):
        # x / 10^400 has its branch on (-10^400, 10^400)
        poly_file = tmp_path / "wide.json"
        poly_file.write_text(json.dumps({"coeffs": ["0", f"1/{10**400}"]}))
        assert main(["branches", str(poly_file)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_root_clash_exits_4(self, tmp_path, capsys, monkeypatch, wall_bound):
        # two roots isolated at one exact point, which no narrowing parts,
        # are a failure of the exact classifier: exit 4 with one error line
        poly_file = tmp_path / "t3.json"
        poly_file.write_text(json.dumps(unipoly_to_json(chebyshev(3))))
        cell = ([0, 1], 0, 0, 0)
        monkeypatch.setattr(branches, "_level_roots", lambda *args: [(1, cell), (-1, cell)])
        with wall_bound(5.0):
            assert main(["branches", str(poly_file)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == "error: two roots isolated at one exact point, which no narrowing parts\n"

    def test_branch_narrower_than_float_spacing(self, tmp_path, capsys):
        # 10^20 x - 10^26 maps (10^6 - 10^-20, 10^6 + 10^-20) onto (-1, 1); both
        # ends round to the float 10^6, so each is pushed one float outward
        coeffs = [str(-10**26), str(10**20)]
        poly_file = tmp_path / "narrow.json"
        poly_file.write_text(json.dumps({"coeffs": coeffs}))
        assert main(["branches", str(poly_file)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["count"] == 1
        # equal at 9 significant digits, so the JSON holds the ends in full
        (out,) = blob["intervals"]
        assert out["lo"] < out["hi"]
        assert (out["lo"], out["hi"]) == (math.nextafter(1e6, 0), math.nextafter(1e6, 2e6))
        (iv,) = full_branch_intervals(UniPoly(tuple(map(int, coeffs)))).intervals
        assert iv.lo < 1e6 < iv.hi
        assert (iv.lo, iv.hi) == (math.nextafter(1e6, 0), math.nextafter(1e6, 2e6))

    @pytest.mark.parametrize("cheb, svg", [(None, "g.svg"), ("2", "missing/x.svg")],
                             ids=["huge_coefficient", "missing_directory"])
    def test_svg_of_huge_coefficient_exits_3(self, tmp_path, capsys, cheb, svg):
        # the SVG is written before the JSON, so a failed run prints nothing
        poly_file = tmp_path / "steep.json"
        poly_file.write_text(json.dumps({"coeffs": ["0", "1", "0", str(10**400)]}))
        source = ["--cheb", cheb] if cheb else [str(poly_file)]
        assert main(["branches", *source, "--svg", str(tmp_path / svg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestExampleCommand:
    def test_m2_end_to_end_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["example", "--m", "2", "--out-dir", str(out1)]) == 0
        assert main(["example", "--m", "2", "--out-dir", str(out2)]) == 0
        for name in ("cycles.csv", "residuals.csv", "phase_portrait.svg",
                     "branch_rectangles.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        lines = (out1 / "cycles.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 cycles
        residuals = (out1 / "residuals.csv").read_text().strip().splitlines()[1:]
        assert all(abs(float(row.split(",")[2])) <= 1e-6 for row in residuals)

    def test_m3_matches_golden(self, tmp_path):
        # tests/golden/example_m3_rho1_2 holds the two CSVs and the two SVGs
        # as first written, so this pins the bytes across changes, not only
        # between two runs
        out = tmp_path / "ex"
        assert main(["example", "--m", "3", "--rho", "1/2", "--out-dir", str(out)]) == 0
        for name in ("cycles.csv", "residuals.csv", "phase_portrait.svg", "branch_rectangles.svg"):
            assert (out / name).read_bytes() == (GOLDEN / "example_m3_rho1_2" / name).read_bytes()

    def test_m8_cycles_match_golden(self, tmp_path):
        # tests/golden/example_m8_rho2_3/cycles.csv pins all 64 lifted
        # records, the reversed edge rectangles among them, to the bytes
        # first written
        out = tmp_path / "ex"
        assert main(["example", "--m", "8", "--rho", "2/3", "--out-dir", str(out)]) == 0
        got = (out / "cycles.csv").read_bytes()
        assert got == (GOLDEN / "example_m8_rho2_3" / "cycles.csv").read_bytes()
        assert got.count(b"\n") == 1 + 64

    def test_m12_cycles_match_golden(self, tmp_path):
        # tests/golden/example_m12_rho1_2/cycles.csv pins all 144 lifted
        # records at m = 12, where every DOP853 trial and RHS float shows
        out = tmp_path / "ex"
        assert main(["example", "--m", "12", "--rho", "1/2", "--out-dir", str(out)]) == 0
        got = (out / "cycles.csv").read_bytes()
        assert got == (GOLDEN / "example_m12_rho1_2" / "cycles.csv").read_bytes()
        assert got.count(b"\n") == 1 + 144

    def test_prime_m29_fails_fast_one_line_per_rectangle(self, tmp_path):
        # T_29 is one prime factor, run by Horner on its monomials (1.5e-6
        # off); returns whose steps collapse end at the step budget, so the
        # run exits 4 in 7.5 s on a 2-core x86 host, where it ran past 90 s
        # with no budget
        argv = ["example", "--m", "29", "--rho", "1/2", "--out-dir", "ex"]
        run = run_fresh(f"import sys\nfrom cyclerep.cli import main\nsys.exit(main({argv!r}))\n", tmp_path, 90)
        assert run.returncode == 4 and run.stdout == ""
        lines = run.stderr.splitlines()
        rects = [re.fullmatch(r"rectangle \((\d+),(\d+)\) failed: .+", line) for line in lines]
        assert lines and all(rects)
        assert len({r.groups() for r in rects}) == len(lines)
        assert not (tmp_path / "ex").exists()

    def test_m16_lifts_every_rectangle(self, tmp_path, capsys):
        # edge branches at m = 16 are narrower than an absolute 1e-3 seed
        # guard allowed: 32 rectangles once failed and the run exited 4
        assert main(["example", "--m", "16", "--rho", "1/2", "--out-dir", str(tmp_path / "ex")]) == 0
        assert "lifted cycles: 256 (expected 256)\n" in capsys.readouterr().out

    def test_m15_residuals_are_exact(self, tmp_path, radial_half, base_cycle):
        # each written residual is T_m(u)^2 + T_m(v)^2 - rho^2 at its anchor,
        # computed exactly and rounded once; float Horner on the expanded
        # degree-30 curve wrote its own rounding noise here, up to 2.3e-6
        m, out = 15, tmp_path / "ex"
        assert main(["example", "--m", str(m), "--out-dir", str(out)]) == 0
        rows = list(csv.DictReader((out / "residuals.csv").read_text().splitlines()))
        records = lift_cycles(build_pullback(radial_half, chebyshev(m)), base_cycle, m)
        assert len(rows) == len(records) == m * m
        t_m = chebyshev(m).evaluate
        for row, r in zip(rows, records):
            exact = t_m(Fraction(r.anchor[0])) ** 2 + t_m(Fraction(r.anchor[1])) ** 2 - Fraction(1, 4)
            assert (int(row["i"]), int(row["j"])) == (r.rect.i, r.rect.j)
            assert abs(float(row["residual"])) <= 1e-7
            assert row["residual"] == fmt9(float(exact))

    def test_m2_prints_multiplier_error(self, tmp_path, capsys):
        out = tmp_path / "ex"
        assert main(["example", "--m", "2", "--out-dir", str(out)]) == 0
        match = re.search(r"^lifted multipliers: max rel error (\S+) ", capsys.readouterr().out, re.M)
        assert match is not None
        worst = float(match.group(1))
        assert worst <= 1e-3
        # the error goes to stdout only; cycles.csv keeps its columns and
        # holds the multipliers the printed error is computed from
        rows = list(csv.DictReader((out / "cycles.csv").read_text().splitlines()))
        assert list(rows[0]) == ["i", "j", "anchor_u", "anchor_v", "period", "multiplier",
                                 "orientation_reversed"]
        mu = math.exp(-math.pi)
        from_csv = max(
            abs(float(r["multiplier"]) * (mu if r["orientation_reversed"] == "true" else 1 / mu) - 1)
            for r in rows
        )
        assert abs(from_csv - worst) <= 1e-8

    def test_tol_is_not_an_option(self, tmp_path, capsys):
        # the search runs at the one fixed DynamicsConfig.tol
        out = tmp_path / "ex"
        with pytest.raises(SystemExit) as exc:
            main(["example", "--m", "2", "--tol", "1e-9", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m, message", [
        ("1", "cover polynomial must have degree >= 2, got degree 1"),
        ("-1", "Chebyshev index must be >= 0, got -1"),
    ], ids=["m1", "negative"])
    def test_m_below_2_exits_3(self, tmp_path, capsys, m, message):
        # the library's own checks: build_pullback and chebyshev
        out = tmp_path / "ex"
        assert main(["example", f"--m={m}", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_lifted_curves_lie_on_the_preimage_in_their_rectangles(self, tmp_path):
        # each drawn lifted cycle is a closed polygon, in (i, j) order; its
        # points, read back from 9-digit pixels, lie on the preimage of the
        # base cycle T_m(u)^2 + T_m(v)^2 = rho^2 and inside their rectangle
        m, rho = 8, 2 / 3
        out = tmp_path / "ex"
        assert main(["example", "--m", str(m), "--rho", "2/3", "--out-dir", str(out)]) == 0
        svg = (out / "branch_rectangles.svg").read_text()
        curves = re.findall(r'<polygon points="([^"]*)" fill="none" stroke="#2255cc"', svg)
        assert len(curves) == m * m
        scale = svgplot.SIZE / (2.0 * svgplot.WORLD)
        t = chebyshev(m)

        def t_m(x):
            return float(t.evaluate(Fraction(x)))

        nodes = cheb_nodes(m)
        worst = 0.0
        for n, coords in enumerate(curves):
            i, j = divmod(n, m)
            points = [tuple(map(float, pair.split(","))) for pair in coords.split()]
            assert len(points) == 301
            for px, py in points:
                u, v = px / scale - svgplot.WORLD, svgplot.WORLD - py / scale
                assert nodes[i + 1] < u < nodes[i] and nodes[j + 1] < v < nodes[j]
                worst = max(worst, abs(t_m(u) ** 2 + t_m(v) ** 2 - rho**2))
        assert worst <= 1e-6

    def test_bad_rho_exits_3(self, tmp_path, capsys):
        # radial_cubic_field's check; a negative value needs the --rho= form,
        # as argparse before Python 3.13 reads a bare -1/2 as an option
        out = tmp_path / "ex"
        for rho_args, shown in ((["--rho", "2"], "2"), (["--rho=-1/2"], "-1/2")):
            assert main(["example", "--m", "2", *rho_args, "--out-dir", str(out)]) == 3
            assert capsys.readouterr().err == f"error: rho must lie in (0, 1), got {shown}\n"
            assert not out.exists()

    def test_unparsable_rho_exits_2(self, tmp_path):
        assert main(["example", "--m", "2", "--rho", "x/y", "--out-dir", str(tmp_path)]) == 2

    def test_non_hyperbolic_base_exits_4(self, tmp_path, capsys):
        # rho = 1/200 is a valid radius; what fails is the dynamics: the
        # seed multiplier exp(-4 pi rho^2) = 0.99969 lies within eps_hyp of 1
        out = tmp_path / "ex"
        assert main(["example", "--m", "2", "--rho", "1/200", "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: base cycle not certified hyperbolic: multiplier 0.99968589 within eps_hyp=0.001 of 1\n")
        assert not out.exists()

    def test_lift_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        from cyclerep.dynamics import LiftError

        def boom(pb, base, m):
            raise LiftError([(1, 1, "synthetic failure")], {})

        # the handler looks the name up in cyclerep.dynamics when it runs
        monkeypatch.setattr("cyclerep.dynamics.lift_cycles", boom)
        assert main(["example", "--m", "2", "--out-dir", str(tmp_path / "x")]) == 4
        assert "(1,1)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_failed_branch_inverse_exits_4(self, tmp_path, monkeypatch, capsys):
        # a closed form off by 1e-6 fails the inverse's check in u: a
        # dynamics failure with one error line, not a traceback
        from cyclerep import branches

        exact = branches.cheb_preimage
        monkeypatch.setattr(branches, "cheb_preimage", lambda m, k, y: exact(m, k, y) + 1e-6)
        out = tmp_path / "x"
        assert main(["example", "--m", "2", "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: branch inverse postcondition failed")
        assert not out.exists()

    def test_cycle_search_error_exits_4(self, tmp_path, monkeypatch, capsys):
        # a DynamicsError out of the base search: one error line, exit 4 and
        # no output directory; cyclerep.cli is patched too in case it holds
        # its own binding of find_cycle
        from cyclerep.dynamics import CycleSearchError

        def boom(field, section, s0):
            raise CycleSearchError("synthetic search failure")

        monkeypatch.setattr("cyclerep.dynamics.find_cycle", boom)
        monkeypatch.setattr("cyclerep.cli.find_cycle", boom, raising=False)
        out = tmp_path / "x"
        assert main(["example", "--m", "2", "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: synthetic search failure"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["example", "bounds", "pullback", "branches"])
def test_unwritable_output_path_exits_3(tmp_path, radial_half, capsys, command):
    # an --out-dir that is an existing file, or an output file in a missing
    # directory: one error line and exit 3, not a traceback
    afile, missing = tmp_path / "afile", tmp_path / "missing"
    afile.write_text("")
    argv = {
        "example": ["example", "--m", "2", "--out-dir", str(afile)],
        "bounds": ["bounds", "table1", "--out", str(missing / "x.csv")],
        "pullback": ["pullback", write_field_file(tmp_path, radial_half), "--m", "2",
                     "--out", str(missing / "p.json")],
        "branches": ["branches", "--cheb", "3", "--svg", str(missing / "g.svg")],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert afile.read_text() == "" and not missing.exists()


def run_fresh(probe: str, cwd, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run probe in a fresh interpreter on the cyclerep the tests import: this
    one may have numpy and scipy loaded, and has every cyclerep layer the
    tests loaded.  A run past timeout seconds is killed and fails the test."""
    src = str(Path(cyclerep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class TestRuntimeImports:
    def test_cli_runs_without_numpy_or_scipy(self, tmp_path):
        probe = (
            "import sys\n"
            "import cyclerep.cli\n"
            "code = cyclerep.cli.main(['bounds', 'table1'])\n"
            "loaded = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})\n"
            "print('loaded:', loaded, file=sys.stderr)\n"
            "sys.exit(code or bool(loaded))\n"
        )
        run = run_fresh(probe, tmp_path)
        assert run.stderr.strip() == "loaded: []"
        assert run.returncode == 0
        assert run.stdout == (GOLDEN / "table1.csv").read_text()

    @pytest.mark.parametrize("argv, layers", [
        (["bounds", "table1"], {"bounds", "polynomials"}),
        (["branches", "--cheb", "3"], {"branches", "polynomials"}),
        (["pullback", str(GOLDEN / "pullback_field.json"), "--m", "2"], {"pullback", "polynomials"}),
        (["example", "--m", "2"], {"branches", "dynamics", "polynomials", "pullback", "svgplot"}),
    ], ids=["bounds", "branches", "pullback", "example"])
    def test_command_loads_only_its_layers(self, tmp_path, argv, layers):
        # each subcommand imports the layers it runs and no other, and
        # neither numpy nor scipy
        probe = (
            "import sys\n"
            "from cyclerep.cli import main\n"
            f"code = main({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.startswith('cyclerep.')), file=sys.stderr)\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        run = run_fresh(probe, tmp_path)
        assert run.returncode == 0, run.stderr
        modules, third_party = run.stderr.splitlines()[-2:]
        assert modules == str(sorted(f"cyclerep.{name}" for name in layers | {"cli"}))
        assert third_party == "[]"
