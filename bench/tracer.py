"""Spans and counters recorded from outside cyclerep.

`Tracer.install()` replaces each public function of the package with a
timing wrapper under every module attribute that refers to it, which is
where callers look the name up (`cyclerep.dynamics.find_cycle` as well
as the copy `cyclerep.cli` imported).  RK steps are counted through a
subclass of the `RK45` that `cyclerep.dynamics` steps by hand, crossing
refinements through its `brentq`, and RHS evaluations by wrapping the
callable that `field_rhs` returns.  `uninstall()` puts every original
back.

A span is (name, start, end, parent index).  Spans stay in memory until
`write()`.  Self time is a span's duration minus the time its direct
children took; RHS evaluations are too many to keep as spans, so their
time is only subtracted from the enclosing span and summed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# public function -> (module that defines it, span name)
TRACED = (
    ("cyclerep.dynamics", "poincare_return", "dynamics.return"),
    ("cyclerep.dynamics", "find_cycle", "dynamics.search"),
    ("cyclerep.dynamics", "lift_cycles", "dynamics.lift"),
    ("cyclerep.dynamics", "compile_component", "dynamics.compile"),
    ("cyclerep.dynamics", "integrate", "dynamics.integrate"),
    ("cyclerep.polynomials", "chebyshev", "polynomials.chebyshev"),
    ("cyclerep.polynomials", "compose_separable", "polynomials.compose_separable"),
    ("cyclerep.pullback", "build_pullback", "pullback.build"),
    ("cyclerep.pullback", "verify_conjugacy", "pullback.verify_conjugacy"),
    ("cyclerep.pullback", "check_exact_degree", "pullback.check_exact_degree"),
    ("cyclerep.branches", "full_branch_intervals", "branches.full_branch_intervals"),
    ("cyclerep.branches", "branch_inverse", "branches.branch_inverse"),
    ("cyclerep.bounds", "table_pub_vs_cheb", "bounds.tables"),
    ("cyclerep.bounds", "table_derivation", "bounds.tables"),
    ("cyclerep.bounds", "table1_csv", "bounds.tables"),
    ("cyclerep.bounds", "table2_csv", "bounds.tables"),
    ("cyclerep.bounds", "best_cheb_bound", "bounds.query"),
    ("cyclerep.svgplot", "phase_portrait_svg", "svgplot"),
    ("cyclerep.svgplot", "branch_grid_svg", "svgplot"),
    ("cyclerep.svgplot", "poly_graph_svg", "svgplot"),
)


def _coef_bits(field) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for comp in (field.p_comp, field.q_comp) for _, c in comp.terms),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [span index, name, start, child time]
        self._patches: list[tuple[object, str, object]] = []
        self.rhs_evals = 0
        self.rhs_s = 0.0

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [len(self.spans) - 1, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> tuple[float, str | None]:
        end = time.perf_counter()
        self._stack.pop()
        idx, name, start, child = frame
        dur = end - start
        self.spans[idx] = (name, start, end, self.spans[idx][3])
        self.counters[name + ".calls"] += 1
        self.counters[name + ".s"] += dur
        self.counters[name + ".self_s"] += dur - child
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][1]
        return dur, parent

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                dur, parent = tracer._close(frame)
                tracer._after(name, dur, parent, None, err)
                raise
            dur, parent = tracer._close(frame)
            tracer._after(name, dur, parent, result, None)
            return result

        return wrapper

    def _after(self, name, dur, parent, result, err) -> None:
        """Counters that need the result, the error or the parent span."""
        if err is not None:
            self.counters[name + ".failed"] += 1
        if name == "dynamics.return":
            if parent == "dynamics.search":
                self.counters["dynamics.search.returns"] += 1
            if type(err).__name__ == "NoReturnError":
                self.counters["dynamics.return.miss_calls"] += 1
                self.counters["dynamics.return.miss_s"] += dur
        elif name == "dynamics.search":
            if err is None:
                # the last two returns of a search that gives a record
                # are its finite-difference multiplier returns
                self.counters["dynamics.search.fd_returns"] += 2
            if parent == "dynamics.lift":
                self.maximum("dynamics.lift.rect_s_max", dur)
        elif name == "dynamics.lift":
            if err is None:
                self.counters["dynamics.lift.rect_certified"] += len(result)
            elif type(err).__name__ == "LiftError":
                self.counters["dynamics.lift.rect_certified"] += len(err.records)
                self.counters["dynamics.lift.rect_failed"] += len(err.failures)
        elif name == "polynomials.compose_separable" and err is None:
            self.counters[name + ".out_terms"] += len(result.terms)
        elif name == "pullback.build" and err is None:
            field = result.field
            self.counters["pullback.field_terms"] += len(field.p_comp.terms) + len(field.q_comp.terms)
            self.maximum("pullback.coef_bits_max", _coef_bits(field))
        elif name == "svgplot" and err is None:
            self.counters["svgplot.bytes"] += len(result.encode("utf-8"))

    # -- patching ----------------------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "cyclerep" or modname.startswith("cyclerep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import cyclerep.dynamics as dyn

        for modname, attr, name in TRACED:
            if modname in sys.modules:  # a layer this process never imported is not called
                original = getattr(sys.modules[modname], attr)
                self._replace_everywhere(original, self._wrap(original, name))

        tracer = self
        stepper = dyn.RK45

        class CountingRK45(stepper):
            def step(self):
                tracer.counters["dynamics.return.rk_steps"] += 1
                return super().step()

        self._patches.append((dyn, "RK45", stepper))
        dyn.RK45 = CountingRK45

        root_finder = dyn.brentq

        def brentq(*args, **kwargs):
            tracer.counters["dynamics.return.brentq_calls"] += 1
            return root_finder(*args, **kwargs)

        self._patches.append((dyn, "brentq", root_finder))
        dyn.brentq = brentq

        make_rhs = dyn.field_rhs

        def field_rhs(field):
            rhs = make_rhs(field)
            perf = time.perf_counter

            def counted(t, z):
                t0 = perf()
                value = rhs(t, z)
                dt = perf() - t0
                tracer.rhs_evals += 1
                tracer.rhs_s += dt
                if tracer._stack:
                    tracer._stack[-1][3] += dt
                return value

            return counted

        self._replace_everywhere(make_rhs, field_rhs)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        self.counters["dynamics.rhs.evals"] = self.rhs_evals
        self.counters["dynamics.rhs.self_s"] = self.rhs_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
