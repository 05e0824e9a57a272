"""Command-line front end.

Subcommands wire the library into reproducible file-based workflows:

    pullback  build a separable Chebyshev pullback of a field and verify it
    example   run the built-in one-cycle cubic seed end to end (lift + plots)
    bounds    lower-bound tables, single-degree queries, quadratic ceiling
    branches  full-branch structure of a polynomial

Exit codes are stable: 0 ok, 2 parse error or unreadable input, 3 invalid
parameters or unwritable output, 4 dynamics/verification failure, 5 no
admissible witness.  All numeric output is printed with 9 significant
digits and no timestamps, so identical inputs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PARAMS = 3
EXIT_DYNAMICS = 4
EXIT_NO_WITNESS = 5


class ParseFailure(Exception):
    pass


def _error(err, code: int) -> int:
    """Print err as the one `error: ` line on stderr and return code."""
    print(f"error: {err}", file=sys.stderr)
    return code


def _dump_json(obj) -> str:
    """obj as JSON text; the caller rounds its floats (only branches has any)."""
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, path) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(path: str, parse, kind: str):
    """Parse the JSON file at path with parse; kind names it in the error."""
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; json raises
    # RecursionError on arrays nested deeper than the interpreter's stack
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as err:
        raise ParseFailure(f"bad {kind} file {path}: {err}") from err


# each handler imports the layers it runs in its body, so a process loads
# only those: a `bounds` run never compiles the integrator
def cmd_pullback(args) -> int:
    from .polynomials import chebyshev, field_from_json
    from .pullback import build_pullback, check_exact_degree, pullback_result_to_json, verify_conjugacy

    field = _load(args.field, field_from_json, "vector field")
    if args.m < 2:
        raise ValueError(f"cover degree must be >= 2, got {args.m}")
    result = build_pullback(field, chebyshev(args.m))
    ok_conj = verify_conjugacy(result, field)
    ok_deg = check_exact_degree(result, field)
    payload = pullback_result_to_json(result)
    payload["conjugacy_identity"] = ok_conj
    payload["exact_degree"] = ok_deg
    _emit(_dump_json(payload), args.out)
    if not (ok_conj and ok_deg):
        print("pullback verification failed", file=sys.stderr)
        return EXIT_DYNAMICS
    print(f"deg_Y={payload['deg_Y']} conjugacy=ok exact_degree=ok", file=sys.stderr)
    return EXIT_OK


def cmd_example(args) -> int:
    from .branches import cheb_nodes, cheb_preimage
    from .dynamics import (
        DynamicsConfig,
        DynamicsError,
        LiftError,
        Section,
        find_cycle,
        integrate,
        lift_cycles,
        radial_cubic_field,
        records_to_csv,
    )
    from .polynomials import chebyshev, csv_text, fmt9, fraction_from_str
    from .pullback import build_pullback, check_exact_degree, verify_conjugacy
    from .svgplot import branch_grid_svg, phase_portrait_svg

    m = args.m
    if m < 2:
        raise ValueError(f"cover degree must be >= 2, got {m}")
    try:
        rho = fraction_from_str(args.rho)
    except ValueError as err:
        raise ParseFailure(f"bad rho {args.rho!r}: {err}") from err
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    tol = DynamicsConfig.tol if args.tol is None else args.tol
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    cfg = DynamicsConfig(tol=tol)
    try:
        field = radial_cubic_field(rho)
        pb = build_pullback(field, chebyshev(m))
        if not verify_conjugacy(pb, field) or not check_exact_degree(pb, field):
            print("pullback verification failed", file=sys.stderr)
            return EXIT_DYNAMICS

        section = Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
        base = find_cycle(field, section, float(rho), cfg)
        if not base.certified:
            print(f"error: base cycle not certified hyperbolic: multiplier {fmt9(base.multiplier)}"
                  f" within eps_hyp={DynamicsConfig.eps_hyp:g} of 1", file=sys.stderr)
            return EXIT_DYNAMICS
        try:
            records = lift_cycles(pb, base, m, cfg)
        except LiftError as err:
            for i, j, why in err.failures:
                print(f"rectangle ({i},{j}) failed: {why}", file=sys.stderr)
            return EXIT_DYNAMICS

        # created only now, so that a failed run leaves nothing behind
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "cycles.csv").write_text(records_to_csv(records), encoding="utf-8")

        # exact, then rounded: float Horner on the expanded T_m curve is noise by m = 14
        T = pb.cover_poly.evaluate
        rows = [["i", "j", "residual"]]
        for r in records:
            resid = T(Fraction(r.anchor[0])) ** 2 + T(Fraction(r.anchor[1])) ** 2 - rho * rho
            rows.append([r.rect.i, r.rect.j, fmt9(float(resid))])
        (out_dir / "residuals.csv").write_text(csv_text(rows), encoding="utf-8")

        plot_tol = 1e-8
        spirals = [
            integrate(field, start, 30.0, 1200, plot_tol)
            for start in ((0.9, 0.0), (0.12 * float(rho) / 0.5, 0.0))
        ]
        (out_dir / "phase_portrait.svg").write_text(
            phase_portrait_svg(integrate(field, base.anchor, base.period, 400, plot_tol), spirals),
            encoding="utf-8",
        )

        # the lifted cycle in rectangle (i, j) is the branch-wise preimage of the
        # base cycle: its u on branch i of T_m, its v on branch j
        xs, ys = zip(*integrate(field, base.anchor, base.period, 300, plot_tol))
        us = [[cheb_preimage(m, k, x) for x in xs] for k in range(1, m + 1)]
        vs = [[cheb_preimage(m, k, y) for y in ys] for k in range(1, m + 1)]
        lifted_curves = [list(zip(us[r.rect.i - 1], vs[r.rect.j - 1])) for r in records]
        (out_dir / "branch_rectangles.svg").write_text(
            branch_grid_svg(cheb_nodes(m), lifted_curves, [r.anchor for r in records]),
            encoding="utf-8",
        )

        # the seed cycle's multiplier is exp(-4 pi rho^2); a reversed lift has its reciprocal
        mu = math.exp(-4.0 * math.pi * float(rho) ** 2)
        worst = 0.0
        for r in records:
            target = 1.0 / mu if r.orientation_reversed else mu
            worst = max(worst, abs(r.multiplier - target) / target)

        print(f"deg_Y={int(pb.field.degree())}")
        print(f"base: anchor=({fmt9(base.anchor[0])},{fmt9(base.anchor[1])}) "
              f"period={fmt9(base.period)} multiplier={fmt9(base.multiplier)}")
        print(f"lifted cycles: {len(records)} (expected {m * m})")
        print(f"lifted multipliers: max rel error {fmt9(worst)} vs exp(-+4 pi rho^2)")
        print(f"outputs in {out_dir}")
        return EXIT_OK
    except DynamicsError as err:
        return _error(err, EXIT_DYNAMICS)


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    path = os.environ.get("CYCLEREP_SEED_TABLE")  # a JSON file of seeds in place of the builtin ones
    seeds = (_load(path, bounds_mod.seed_table_from_json, "seed table") if path
             else bounds_mod.builtin_seed_table())
    try:
        if args.bounds_cmd == "table1":
            text = bounds_mod.table1_csv(bounds_mod.table_pub_vs_cheb(seeds))
        elif args.bounds_cmd == "table2":
            text = bounds_mod.table2_csv(bounds_mod.table_derivation(seeds))
        elif args.bounds_cmd == "query":
            entry = bounds_mod.best_cheb_bound(args.N, seeds)
            n, m = entry.witness
            print(f"N={entry.target_degree} L_Ch={entry.value} witness=({n},{m}) source={entry.source}")
            print(bounds_mod.inequality_chain(entry))
            return EXIT_OK
        elif args.bounds_cmd == "ceiling":
            print(bounds_mod.quadratic_ceiling(args.k0, args.n0, args.N))  # "9" or "50/9"
            return EXIT_OK
        else:  # pragma: no cover - argparse enforces choices
            raise ValueError(f"unknown bounds subcommand {args.bounds_cmd}")
    except (bounds_mod.MissingSeedError, bounds_mod.NoWitnessError) as err:
        return _error(err, EXIT_NO_WITNESS)

    if args.fmt == "json":
        rows = list(csv.reader(text.splitlines()))
        text = _dump_json({"header": rows[0], "rows": rows[1:]})
    _emit(text, args.out)
    return EXIT_OK


def cmd_branches(args) -> int:
    from .branches import branch_set_to_json, cheb_branches, full_branch_intervals
    from .polynomials import fmt9, unipoly_from_json

    if (args.poly is None) == (args.cheb is None):
        raise ValueError("give exactly one of POLY.json or --cheb M")
    if args.cheb is not None:
        bset = cheb_branches(args.cheb)
    else:
        poly = _load(args.poly, unipoly_from_json, "polynomial")
        bset = full_branch_intervals(poly)
    if bset.degenerate:
        print("warning: degenerate: p' and p'' share a root, so a critical point may lie"
              " inside a branch", file=sys.stderr)
    blob = branch_set_to_json(bset)
    for out in blob["intervals"]:
        lo, hi = float(fmt9(out["lo"])), float(fmt9(out["hi"]))
        if lo < hi:  # equal at 9 digits: the full ends are kept, so lo < hi shows
            out["lo"], out["hi"] = lo, hi
    if args.svg:  # before the JSON, so a plot or a path that fails leaves stdout empty
        from .svgplot import poly_graph_svg

        span = 1.05
        n = 400
        pts = []
        for k in range(n + 1):
            x = -span + 2 * span * k / n
            # exact, then rounded: float Horner on T_64's monomials is off by 2.7e7
            y = float(bset.poly.evaluate(Fraction(x)))
            pts.append((x, max(-1.1, min(1.1, y))))
        Path(args.svg).write_text(poly_graph_svg(pts, bset.intervals), encoding="utf-8")
    sys.stdout.write(_dump_json(blob))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes "-1e-9" as a value, not an option.

    Before Python 3.13, argparse treats only "-5" and "-.5"-style tokens as
    negative numbers, so "--tol -1e-9" failed to parse (exit 2) instead of
    reaching the parameter check (exit 3).  This is the 3.13 pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cyclerep", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_pb = sub.add_parser("pullback", help="separable Chebyshev pullback of a field file")
    p_pb.add_argument("field", help="vector field JSON file")
    p_pb.add_argument("--m", type=int, required=True, help="cover degree (>= 2)")
    p_pb.add_argument("--out", help="output JSON path (default: stdout)")

    p_ex = sub.add_parser("example", help="one-cycle cubic seed: pullback, lift, plots")
    p_ex.add_argument("--m", type=int, default=3, help="cover degree (default 3)")
    p_ex.add_argument("--rho", default="1/2", help="cycle radius in (0,1), e.g. 1/2")
    p_ex.add_argument("--tol", type=float, help="integration tolerance")
    p_ex.add_argument("--out-dir", default="example_out", help="output directory")

    p_b = sub.add_parser("bounds", help="lower-bound tables and queries")
    bsub = p_b.add_subparsers(dest="bounds_cmd", required=True)
    for name in ("table1", "table2"):
        p_t = bsub.add_parser(name)
        p_t.add_argument("--out", help="output CSV path (default: stdout)")
        p_t.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_q = bsub.add_parser("query")
    p_q.add_argument("N", type=int)
    p_c = bsub.add_parser("ceiling")
    p_c.add_argument("k0", type=int)
    p_c.add_argument("n0", type=int)
    p_c.add_argument("N", type=int)

    p_br = sub.add_parser("branches", help="full-branch structure of a polynomial")
    p_br.add_argument("poly", nargs="?", help="univariate polynomial JSON file")
    p_br.add_argument("--cheb", type=int, help="use the Chebyshev polynomial of this degree")
    p_br.add_argument("--svg", help="write a graph SVG with branch intervals shaded")

    return ap


_HANDLERS = {
    "pullback": cmd_pullback,
    "example": cmd_example,
    "bounds": cmd_bounds,
    "branches": cmd_branches,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParseFailure as err:
        return _error(err, EXIT_PARSE)
    except (ValueError, OverflowError, OSError) as err:  # a float overflow; an unwritable output path
        return _error(err, EXIT_PARAMS)


def entrypoint() -> None:  # console_scripts target
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
