"""The four workloads: how each op runs, what is timed and how its output
is checked.

Every workload is single-process and closed-loop: one caller, the next
op starts only after the previous one has finished and been checked.
Only the call into cyclerep is timed; building inputs and checking
outputs are not.  A wrong output and a raised exception both make the
op a failure, recorded under a type name; none is filtered out.

Functions are looked up on their module at call time
(`dynamics.find_cycle(...)`), so the tracer's patches apply.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from cyclerep import branches, dynamics, polynomials, pullback

perf = time.perf_counter

MULT_REL_TOL = 1e-3      # ROADMAP criterion 4 on the lifted multiplier
ANCHOR_RESID_TOL = 1e-6  # |T_m(u)^2 + T_m(v)^2 - rho^2| at an anchor
EVAL_REL_TOL = 1e-11     # float evaluator vs exact, relative to sum |term|
BRANCH_TOL = 1e-7        # branch endpoints vs closed form / sympy oracle

# Failure types the parent commit is known to produce (ROADMAP Baseline).
# They count as failures; any other type makes the run incorrect.
KNOWN_FAILURES = {
    # m=8 secant stalls; multiplier error above 1e-3 from m=7
    "lift": {"LiftError", "mult_rel_err"},
    # section misses; secant stall on a flat return map near s0 = 0;
    # starts past the pulled-back equilibrium, where a search stalls,
    # meets a tangent field or certifies the equilibrium as a cycle
    "search": {"NoReturnError", "CycleSearchError", "DegenerateCrossingError", "mult_rel_err"},
    # eval codegen nesting limit; numeric classifier from m=14
    "exact": {"SyntaxError", "wrong_branch_count", "wrong_branch_endpoints"},
    # bounds --format json splits quoted cells
    "cli": {"table1_json_mismatch"},
}


class Recorder:
    """Outcome of every op execution of a run, plus accuracy maxima from
    the checks.  A plan may run several times in a row; `times` keeps one
    entry per op, its fastest execution, scaled to the host's idle speed
    around it when a HostSpeed samples the run."""

    def __init__(self, host=None) -> None:
        self.host = host  # HostSpeed sampling during the run, if any
        self.times: list[float] = []
        self._current: list[tuple[float, float, float]] = []  # seconds, start, end
        self._repeats: list[list[tuple[float, float, float]]] = []
        self._window = (0.0, 0.0)
        self.failures: Counter = Counter()
        self.attempted = 0
        self.passed = 0
        self.timed_wall = 0.0
        self.child_rss_kb = 0
        self.maxima: Counter = Counter()
        self.extra: dict[str, list[float]] = {}

    def clock(self) -> tuple[float, float]:
        return perf(), (self.host.stolen if self.host else 0.0)

    def since(self, mark: tuple[float, float], own_process: bool = True) -> float:
        """Wall time since `mark`, less the host-speed sampler's share when
        the op ran in this process."""
        t0, stolen = mark
        end = perf()
        self._window = (t0, end)
        seconds = end - t0
        if own_process and self.host:
            seconds -= self.host.stolen - stolen
        return seconds

    def op(self, seconds: float, failure: str | None) -> None:
        self._current.append((seconds, *self._window))
        self.attempted += 1
        if failure is None:
            self.passed += 1
        else:
            self.failures[failure] += 1

    def repeat_done(self) -> None:
        self._repeats.append(self._current)
        self._current = []

    def plan_done(self) -> None:
        def scaled(seconds, start, end):
            return seconds * self.host.scale(start, end) if self.host else seconds

        self.times += [min(scaled(*t) for t in ts) for ts in zip(*self._repeats)]
        self._repeats = []

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def note(self, name: str, value: float) -> None:
        self.extra.setdefault(name, []).append(value)


def _mult_star(rho: Fraction, reversed_: bool) -> float:
    mu = math.exp(-4.0 * math.pi * float(rho) ** 2)
    return 1.0 / mu if reversed_ else mu


def check_cycle(rec, rho: Fraction, reversed_: bool, curve, layer: str, recorder) -> str | None:
    """Certified, multiplier near exp(-+4 pi rho^2), anchor on the lifted curve."""
    if not rec.certified:
        return "not_certified"
    star = _mult_star(rho, reversed_)
    err = abs(rec.multiplier - star) / star
    recorder.maximum(f"dynamics.{layer}.mult_rel_err_max", err)
    resid = abs(curve.evaluate_float(*rec.anchor))
    recorder.maximum(f"dynamics.{layer}.anchor_resid_max", resid)
    if err > MULT_REL_TOL:
        return "mult_rel_err"
    if resid > ANCHOR_RESID_TOL:
        return "anchor_resid"
    return None


# -- lift ----------------------------------------------------------------


class Lift:
    """`example`-style lift of the cubic seed: build, verify, base cycle,
    all m^2 rectangles.  An op is one rectangle; its time is its lift's
    wall time divided by m^2."""

    def prepare(self, ops, inputs: Path):
        return [(Fraction(op["rho"]), op["m"]) for op in ops]

    def execute(self, jobs, recorder: Recorder, tracer=None) -> None:
        for rho, m in jobs:
            self._one(rho, m, recorder)

    def _one(self, rho: Fraction, m: int, recorder: Recorder) -> None:
        records, failed, error = {}, {}, None
        mark = recorder.clock()
        try:
            X = dynamics.radial_cubic_field(rho)
            pb = pullback.build_pullback(X, polynomials.chebyshev(m))
            if not (pullback.verify_conjugacy(pb, X) and pullback.check_exact_degree(pb, X)):
                error = "pullback_check"
            else:
                section = dynamics.Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
                base = dynamics.find_cycle(X, section, float(rho))
                try:
                    lifted = dynamics.lift_cycles(pb, base, m)
                    records = {(r.rect.i, r.rect.j): r for r in lifted}
                except dynamics.LiftError as err:
                    records = dict(err.records)
                    failed = {(i, j): "LiftError" for i, j, _ in err.failures}
        except Exception as err:  # every op is accounted for, whatever it raises
            error = type(err).__name__
        seconds = recorder.since(mark)
        recorder.note(f"lift_m{m}_s", seconds)
        recorder.timed_wall += seconds
        curve = dynamics.implicit_lift_curve(m, rho)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if error or (i, j) in failed:
                    failure = error or failed[(i, j)]
                elif (i, j) not in records:
                    failure = "missing_rectangle"
                else:
                    rec = records[(i, j)]
                    failure = check_cycle(rec, rho, rec.orientation_reversed, curve, "lift", recorder)
                recorder.op(seconds / (m * m), failure)


# -- search --------------------------------------------------------------


def _lift_section(pb, m: int, i: int, j: int, anchor) -> tuple:
    """Section through the branch-wise inverse of `anchor` in rectangle
    (i, j), built the way lift_cycles builds it; returns it with its
    half-length and the rectangle's two branch intervals."""
    bset = branches.cheb_branches(m)
    iu, iv = bset.intervals[i - 1], bset.intervals[j - 1]
    seed = (branches.branch_inverse(m, i, anchor[0]), branches.branch_inverse(m, j, anchor[1]))
    clearance = min(seed[0] - iu.lo, iu.hi - seed[0], seed[1] - iv.lo, iv.hi - seed[1])
    half = min(0.45 * clearance, dynamics.DEFAULT_CONFIG.section_cap)
    fu = pb.field.p_comp.evaluate_float(*seed)
    fv = pb.field.q_comp.evaluate_float(*seed)
    norm = math.hypot(fu, fv)
    d = (-fv / norm, fu / norm)
    base = (seed[0] - half * d[0], seed[1] - half * d[1])
    return dynamics.Section(base=base, direction=d, s_max=2.0 * half), half, (iu, iv)


class Search:
    """find_cycle from seeded off-cycle starts on the seed field and on
    pullback rectangles; an op is one search."""

    def __init__(self) -> None:
        self._fields: dict = {}

    def _pullback(self, rho: Fraction, m: int):
        key = (rho, m)
        if key not in self._fields:
            X = dynamics.radial_cubic_field(rho)
            pb = pullback.build_pullback(X, polynomials.chebyshev(m)) if m else None
            curve = dynamics.implicit_lift_curve(max(m, 2), rho) if m else None
            self._fields[key] = (X, pb, curve)
        return self._fields[key]

    def prepare(self, ops, inputs: Path):
        jobs = []
        for op in ops:
            rho = Fraction(op["rho"])
            if op["kind"] == "seed":
                X, _, _ = self._pullback(rho, 0)
                section = dynamics.Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)
                jobs.append((op, rho, X, section, op["s0"], None, None))
            else:
                _, pb, curve = self._pullback(rho, op["m"])
                section, half, rect = _lift_section(pb, op["m"], op["i"], op["j"], (float(rho), 0.0))
                jobs.append((op, rho, pb.field, section, half * (1.0 + op["frac"]), curve, rect))
        return jobs

    def execute(self, jobs, recorder: Recorder, tracer=None) -> None:
        for op, rho, field, section, s0, curve, rect in jobs:
            rec, failure = None, None
            mark = recorder.clock()
            try:
                rec = dynamics.find_cycle(field, section, s0)
            except Exception as err:  # every op is accounted for, whatever it raises
                failure = type(err).__name__
            seconds = recorder.since(mark)
            recorder.timed_wall += seconds
            if failure is None:
                failure = self._check(op, rho, rec, curve, rect, recorder)
            recorder.op(seconds, failure)

    @staticmethod
    def _check(op, rho, rec, curve, rect, recorder) -> str | None:
        if op["kind"] == "seed":
            if not rec.certified:
                return "not_certified"
            if abs(rec.anchor[0] - float(rho)) > ANCHOR_RESID_TOL or abs(rec.anchor[1]) > ANCHOR_RESID_TOL:
                return "anchor_off_cycle"
            star = _mult_star(rho, False)
            err = abs(rec.multiplier - star) / star
            recorder.maximum("dynamics.search.mult_rel_err_max", err)
            return "mult_rel_err" if err > MULT_REL_TOL else None
        iu, iv = rect
        if not (iu.contains(rec.anchor[0]) and iv.contains(rec.anchor[1])):
            return "anchor_outside_rectangle"
        return check_cycle(rec, rho, op["reversed"], curve, "search", recorder)


# -- exact ---------------------------------------------------------------


def _abs_bound(f, u: float, v: float) -> float:
    u, v = abs(float(u)), abs(float(v))
    return sum(abs(float(c)) * u ** a * v ** b for (a, b), c in f.terms)


def oracle_branches(p) -> list[tuple[float, float]]:
    """Full branches of p over the reals, from sympy's exact real roots:
    pieces between the odd-multiplicity roots of p' whose range covers
    (-1, 1), with endpoints the roots of p = -1 and p = +1 in them (a
    critical value of exactly +-1 makes the critical point an endpoint).
    Ordered right to left like full_branch_intervals."""
    import sympy

    x = sympy.Symbol("x")
    P = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    mult = Counter(P.diff(x).real_roots())
    crit = sorted(sympy.N(r, 50) for r, k in mult.items() if k % 2)
    levels = sorted(sympy.N(r, 50) for r in set((P - 1).real_roots()) | set((P + 1).real_roots()))
    lead, deg = p.coeffs[-1], p.degree()
    tie = sympy.Float("1e-40", 50)

    def value(t):
        if t in (-math.inf, math.inf):
            sign = 1 if lead > 0 else -1
            return math.inf * sign * (1 if t > 0 or deg % 2 == 0 else -1)
        return P.eval(t)

    cuts = [-math.inf] + crit + [math.inf]
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        va, vb = value(a), value(b)
        if min(va, vb) <= -1 + tie and max(va, vb) >= 1 - tie:
            inside = [r for r in levels if a - tie <= r <= b + tie]
            out.append((float(min(inside)), float(max(inside))))
    return sorted(out, reverse=True)


WRONG_BRANCHES = ("wrong_branch_count", "wrong_branch_endpoints")


def _compare_branches(bset, expected) -> str | None:
    got = [(iv.lo, iv.hi) for iv in bset.intervals]
    if len(got) != len(expected):
        return "wrong_branch_count"
    for (lo, hi), (elo, ehi) in zip(got, expected):
        if abs(lo - elo) > BRANCH_TOL or abs(hi - ehi) > BRANCH_TOL:
            return "wrong_branch_endpoints"
    return None


class Exact:
    """Exact algebra and evaluator compilation, no ODE integration.
    Field ops: build, conjugacy, degree law, compile both components,
    one call of each on a numpy grid.  Branch ops: full_branch_intervals
    on T_m or on a seeded random polynomial."""

    GRID = 32
    PROBES = ((3, 5), (17, 29), (30, 2))

    def __init__(self) -> None:
        self._expected: dict = {}  # oracle results, computed once per input

    def prepare(self, ops, inputs: Path):
        axis = np.linspace(-0.95, 0.95, self.GRID)
        U, V = np.meshgrid(axis, axis)
        jobs = []
        for op in ops:
            if op["kind"] == "field":
                obj = json.loads((inputs / op["field"]).read_text(encoding="utf-8"))
                jobs.append((op, polynomials.field_from_json(obj), (U, V)))
            elif op["kind"] == "poly":
                obj = json.loads((inputs / op["poly"]).read_text(encoding="utf-8"))
                jobs.append((op, polynomials.unipoly_from_json(obj), None))
            else:
                jobs.append((op, None, None))
        return jobs

    def execute(self, jobs, recorder: Recorder, tracer=None) -> None:
        for op, data, grid in jobs:
            out, failure = None, None
            mark = recorder.clock()
            try:
                if op["kind"] == "field":
                    out = self._field_op(data, op["m"], grid)
                elif op["kind"] == "cheb":
                    out = branches.full_branch_intervals(polynomials.chebyshev(op["m"]))
                else:
                    out = branches.full_branch_intervals(data)
            except Exception as err:  # every op is accounted for, whatever it raises
                failure = type(err).__name__
            seconds = recorder.since(mark)
            recorder.timed_wall += seconds
            if failure is None:
                failure = self._check(op, data, out, grid)
            if failure in WRONG_BRANCHES and tracer is not None:
                tracer.count("branches.full_branch_intervals.wrong_count")
            recorder.op(seconds, failure)

    @staticmethod
    def _field_op(X, m: int, grid):
        pb = pullback.build_pullback(X, polynomials.chebyshev(m))
        ok = pullback.verify_conjugacy(pb, X), pullback.check_exact_degree(pb, X)
        fp = dynamics.compile_component(pb.field.p_comp)
        fq = dynamics.compile_component(pb.field.q_comp)
        return pb, ok, fp(*grid), fq(*grid)

    def _check(self, op, data, out, grid) -> str | None:
        if op["kind"] == "cheb":
            m = op["m"]
            nodes = branches.cheb_nodes(m)
            return _compare_branches(out, [(nodes[k], nodes[k - 1]) for k in range(1, m + 1)])
        if op["kind"] == "poly":
            if op["poly"] not in self._expected:
                self._expected[op["poly"]] = oracle_branches(data)
            return _compare_branches(out, self._expected[op["poly"]])
        pb, (conj, deg), gp, gq = out
        if not conj:
            return "conjugacy"
        if not deg:
            return "degree_law"
        U, V = grid
        key = (op["field"], op["m"])
        if key not in self._expected:
            self._expected[key] = [
                [(float(comp.evaluate(Fraction(U[r, c]), Fraction(V[r, c]))),
                  _abs_bound(comp, U[r, c], V[r, c])) for r, c in self.PROBES]
                for comp in (pb.field.p_comp, pb.field.q_comp)
            ]
        for values, expected in zip((gp, gq), self._expected[key]):
            values = np.broadcast_to(values, U.shape)
            for (r, c), (exact, bound) in zip(self.PROBES, expected):
                if not abs(values[r, c] - exact) <= EVAL_REL_TOL * bound:
                    return "eval_mismatch"
        return None


# -- cli -------------------------------------------------------------------


def _read_table(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))


class Cli:
    """Sequential fresh `python -m cyclerep.cli` processes; an op is one
    process, timed from spawn to exit."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.golden = root / "tests" / "golden"
        self.first_cycles: dict[tuple, bytes] = {}
        self.runs = 0
        env = {k: v for k, v in os.environ.items() if k not in ("CYCLEREP_SEED_TABLE", "PYTHONPATH")}
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(work)
        self.env = env

    def prepare(self, ops, inputs: Path):
        return [(op, inputs) for op in ops]

    def execute(self, jobs, recorder: Recorder, tracer=None) -> None:
        for op, inputs in jobs:
            self.runs += 1
            tag = f"op{self.runs:04d}"
            argv = list(op["argv"])
            if op["kind"] == "example":
                argv += ["--out-dir", tag]
            if tracer is None:
                cmd = [sys.executable, "-m", "cyclerep.cli", *argv]
            else:
                child = Path(__file__).resolve().parent / "clichild.py"
                cmd = [sys.executable, "-X", "importtime", str(child), f"{tag}.trace.json", *argv]
            out_path, err_path = inputs / f"{tag}.out", inputs / f"{tag}.err"
            host = recorder.host
            if host:
                # sampling while the child runs would compete with it for
                # the host; take the samples between children instead
                host.pause()
                for _ in range(3):
                    host.sample()
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                mark = recorder.clock()
                proc = subprocess.Popen(cmd, cwd=inputs, env=self.env, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = recorder.since(mark, own_process=False)
            if host:
                host.resume()
            proc.returncode = os.waitstatus_to_exitcode(status)
            recorder.timed_wall += seconds
            recorder.child_rss_kb = max(recorder.child_rss_kb, usage.ru_maxrss)
            stdout = out_path.read_bytes()
            written = len(stdout)
            if op["kind"] == "example":
                written += sum(p.stat().st_size for p in (inputs / tag).iterdir())
            if tracer is not None:
                self._merge_trace(tracer, inputs / f"{tag}.trace.json", err_path, op, written)
            if proc.returncode != 0:
                failure = f"exit_{proc.returncode}"
            else:
                failure = self._check(op, stdout.decode("utf-8"), inputs, tag)
            if failure in WRONG_BRANCHES and tracer is not None:
                tracer.count("branches.full_branch_intervals.wrong_count")
            recorder.op(seconds, failure)

    @staticmethod
    def _merge_trace(tracer, trace_path: Path, err_path: Path, op, written: int) -> None:
        tracer.count("cli.processes")
        tracer.count("cli.bytes_written", written)
        if trace_path.exists():
            counters = json.loads(trace_path.read_text(encoding="utf-8"))["counters"]
            for key, value in counters.items():
                if key.endswith("_max"):
                    tracer.maximum(key, value)
                else:
                    tracer.count(key, value)
        for line in err_path.read_text(encoding="utf-8", errors="replace").splitlines():
            # -X importtime: "import time: self [us] | cumulative | name"
            if line.startswith("import time:") and line.split("|")[-1].strip() == "cyclerep.dynamics":
                tracer.count("cli.import_dynamics_s", int(line.split("|")[1]) * 1e-6)

    def _check(self, op, stdout: str, inputs: Path, tag: str) -> str | None:
        kind = op["kind"]
        if kind == "table":
            golden = self.golden / op["golden"]
            if op["fmt"] == "csv":
                ok = stdout == golden.read_text(encoding="utf-8")
            else:
                rows = _read_table(golden)
                ok = json.loads(stdout) == {"header": rows[0], "rows": rows[1:]}
            return None if ok else f"{golden.stem}_{op['fmt']}_mismatch"
        if kind == "query":
            row = next(r for r in _read_table(self.golden / "table1.csv")[1:] if int(r[0]) == op["N"])
            want = f"N={op['N']} L_Ch={row[2]} witness={row[3]} "
            return None if stdout.startswith(want) else "query_mismatch"
        if kind == "ceiling":
            k0, n0, N = op["args"]
            value = k0 * Fraction(N + 1, n0 + 1) ** 2
            want = str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
            return None if stdout.strip() == want else "ceiling_mismatch"
        if kind == "cheb":
            m = int(op["argv"][-1])
            blob = json.loads(stdout)
            if blob["count"] != m:
                return "wrong_branch_count"
            nodes = branches.cheb_nodes(m)
            got = [(iv["lo"], iv["hi"]) for iv in blob["intervals"]]
            want = [(nodes[k], nodes[k - 1]) for k in range(1, m + 1)]
            bad = any(abs(a - b) > BRANCH_TOL for g, w in zip(got, want) for a, b in zip(g, w))
            return "wrong_branch_endpoints" if bad else None
        if kind == "poly":
            blob = json.loads(stdout)
            poly = polynomials.unipoly_from_json(json.loads((inputs / op["poly"]).read_text(encoding="utf-8")))
            bset = branches.BranchSet(
                poly=poly,
                intervals=tuple(
                    branches.BranchInterval(iv["k"], iv["lo"], iv["hi"], 1 if iv["dir"] == "+" else -1)
                    for iv in blob["intervals"]
                ),
            )
            return _compare_branches(bset, oracle_branches(poly))
        if kind == "pullback":
            blob = json.loads(stdout)
            field = polynomials.field_from_json(json.loads((inputs / op["field"]).read_text(encoding="utf-8")))
            m = op["m"]
            if not (blob["conjugacy_identity"] and blob["exact_degree"]):
                return "pullback_check"
            return None if blob["deg_Y"] == m * int(field.degree()) + m - 1 else "degree_law"
        return self._check_example(op, inputs / tag)

    def _check_example(self, op, out_dir: Path) -> str | None:
        m, rho = op["m"], Fraction(op["rho"])
        cycles = (out_dir / "cycles.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(cycles.decode("utf-8"))))
        if len(rows) != m * m:
            return "missing_rectangle"
        for row in rows:
            star = _mult_star(rho, row["orientation_reversed"] == "true")
            if abs(float(row["multiplier"]) - star) / star > MULT_REL_TOL:
                return "mult_rel_err"
        for row in csv.DictReader(io.StringIO((out_dir / "residuals.csv").read_text(encoding="utf-8"))):
            if abs(float(row["residual"])) > ANCHOR_RESID_TOL:
                return "anchor_resid"
        for svg in ("phase_portrait.svg", "branch_rectangles.svg"):
            if not (out_dir / svg).read_text(encoding="utf-8").rstrip().endswith("</svg>"):
                return "bad_svg"
        first = self.first_cycles.setdefault((m, rho), cycles)
        return None if first == cycles else "not_byte_identical"


def make(name: str, root: Path, work: Path):
    if name == "lift":
        return Lift()
    if name == "search":
        return Search()
    if name == "exact":
        return Exact()
    if name == "cli":
        return Cli(root, work)
    raise ValueError(f"unknown workload {name!r}")
