"""cyclerep benchmark.

    python3 bench/run.py --workload lift|search|exact|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cyclerep is imported from
`src/`.  Inputs come from `bench/gen.py` and the seed.  A run executes
whole plans (a fixed mix of ops, see gen.py), as many as fit in S
seconds at the parent commit.  In search the plan runs three times in a
row and every op keeps its fastest time.  Reported times are scaled to
the host's idle speed, measured on a fixed kernel while the run goes
(hostspeed.py): on a shared host one op's time swings 2x within seconds.
Outputs of every execution are checked; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, untraced.
--trace 1 runs one plan untraced and then the same plan under the
tracer, and reports the per-layer metrics; the trace (spans and
counters) is written to .bench_work/trace-<workload>-<seed>.json.

Set-up time is measured in fresh interpreters (`--setup-only`), each
timed from spawn until imports are done and the first plan's inputs are
generated and loaded; the median of three is reported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
WORKLOADS = ("lift", "search", "exact", "cli")


def _setup(workload: str, seed: int, tiny: bool, work: Path):
    """Imports, generated inputs of plan 0, and the workload's prepared jobs."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import cyclerep

    if Path(cyclerep.__file__).resolve().parent != ROOT / "src" / "cyclerep":
        raise ImportError(f"cyclerep imported from {cyclerep.__file__}, not from this checkout")
    import gen
    import workloads

    runner = workloads.make(workload, ROOT, work)
    inputs = work / "plan0"
    jobs = runner.prepare(gen.make_plan(workload, seed, 0, inputs, tiny), inputs)
    return gen, workloads, runner, jobs


def measure_setup(args) -> list[float]:
    samples = []
    for k in range(1 if args.tiny else SETUP_SAMPLES):
        work = WORK / f"{args.workload}-{args.seed}-setup{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(work)] + (["--tiny"] if args.tiny else [])
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up run failed: {line!r}")
        shutil.rmtree(work, ignore_errors=True)
    return samples


def run_plan(runner, jobs, rec, repeats: int, tracer=None) -> None:
    for _ in range(repeats):
        runner.execute(jobs, rec, tracer)
        rec.repeat_done()
    rec.plan_done()


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 ops beyond it (the maximum when
    there are 10 ops or fewer), its percent rank, and the sample count."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(rec, setup: list[float], workload: str) -> dict[str, float]:
    """Times are in seconds at the host's idle speed (see hostspeed.py)."""
    rss_kb = rec.child_rss_kb if workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        # per second of op time, each op counted at its fastest execution
        "ops_per_s": rec.passed / rec.attempted * len(rec.times) / sum(rec.times),
        "op_p50_s": statistics.median(rec.times),
        "op_tail_s": tail(rec.times)[0],
        "pass_share": rec.passed / rec.attempted,
    }


def per_layer(tracer, rec, untraced_wall: float) -> dict[str, float]:
    c = tracer.counters
    values = {name: float(c.get(name, 0.0)) for name in LAYER_COUNTERS}
    values.update(rec.maxima)
    procs = c.get("cli.processes", 0.0)
    for name in ("cli.import_s", "cli.import_dynamics_s"):
        values[name] = c.get(name, 0.0) / procs if procs else 0.0
    searches = c.get("dynamics.search.calls", 0.0)
    values["dynamics.search.returns_per_search"] = c.get("dynamics.search.returns", 0.0) / searches if searches else 0.0
    values["dynamics.rhs.wall_share"] = c.get("dynamics.rhs.self_s", 0.0) / rec.timed_wall
    values["bench.timed_wall_s"] = rec.timed_wall
    values["bench.untraced_wall_s"] = untraced_wall
    values["bench.trace_overhead_s"] = rec.timed_wall - untraced_wall
    values["bench.failed_share"] = (rec.attempted - rec.passed) / rec.attempted
    return values


# counters reported as they are; per_layer() adds the derived ones
LAYER_COUNTERS = (
    "dynamics.return.calls", "dynamics.return.s", "dynamics.return.self_s",
    "dynamics.return.rk_steps", "dynamics.return.brentq_calls",
    "dynamics.return.miss_calls", "dynamics.return.miss_s",
    "dynamics.rhs.evals", "dynamics.rhs.self_s",
    "dynamics.search.calls", "dynamics.search.s", "dynamics.search.fd_returns",
    "dynamics.search.failed", "dynamics.search.mult_rel_err_max",
    "dynamics.lift.s", "dynamics.lift.rect_certified", "dynamics.lift.rect_failed",
    "dynamics.lift.rect_s_max", "dynamics.lift.mult_rel_err_max", "dynamics.lift.anchor_resid_max",
    "dynamics.compile.calls", "dynamics.compile.s", "dynamics.compile.failed",
    "dynamics.integrate.calls", "dynamics.integrate.s",
    "polynomials.chebyshev.calls", "polynomials.chebyshev.s",
    "polynomials.compose_separable.calls", "polynomials.compose_separable.s",
    "polynomials.compose_separable.out_terms",
    "pullback.build.s", "pullback.verify_conjugacy.s", "pullback.check_exact_degree.s",
    "pullback.field_terms", "pullback.coef_bits_max",
    "branches.full_branch_intervals.calls", "branches.full_branch_intervals.s",
    "branches.full_branch_intervals.wrong_count",
    "branches.branch_inverse.calls", "branches.branch_inverse.s",
    "bounds.tables.s", "bounds.query.s", "svgplot.s", "svgplot.bytes",
    "cli.main.bounds.s", "cli.main.branches.s", "cli.main.pullback.s", "cli.main.example.s",
    "cli.bytes_written",
)


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cyclerep benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one op per kind (self-test size)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cyclerep" / "__init__.py").is_file():
        print(f"error: no cyclerep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = Path(args.work) if args.work else WORK / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    if args.setup_only:
        _setup(args.workload, args.seed, args.tiny, work)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        setup = []
        gen, workloads, runner, jobs = _setup(args.workload, args.seed, args.tiny, work)
        from tracer import Tracer

        warm = workloads.Recorder()
        run_plan(runner, jobs, warm, 1)
        rec, tracer = workloads.Recorder(), Tracer()
        tracer.install()
        try:
            run_plan(runner, jobs, rec, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
        values = per_layer(tracer, rec, warm.timed_wall)
        wanted = spec["per_layer"]
        plans = 1
    else:
        sys.path.insert(0, str(HERE))
        from hostspeed import HostSpeed

        with HostSpeed() as host:
            setup = measure_setup(args)
            gen, workloads, runner, jobs = _setup(args.workload, args.seed, args.tiny, work)
            rec = workloads.Recorder(host)
            repeats = 1 if args.tiny else gen.REPEATS[args.workload]
            plans = 1 if args.tiny else max(1, round(args.seconds / (gen.PLAN_SECONDS[args.workload] * repeats)))
            run_plan(runner, jobs, rec, repeats)
            for k in range(1, plans):
                inputs = work / f"plan{k}"
                jobs = runner.prepare(gen.make_plan(args.workload, args.seed, k, inputs), inputs)
                run_plan(runner, jobs, rec, repeats)
        # the set-up child competes with the sampler for the host, so set-up
        # is scaled by the run's median host speed, not by its own window
        setup = [s * host.scale() for s in setup]
        values = end_to_end(rec, setup, args.workload)
        wanted = spec["end_to_end"]
        print(f"host speed: {len(host.samples)} kernel samples, median scale {host.scale():.4f}")

    unknown = set(rec.failures) - workloads.KNOWN_FAILURES[args.workload]
    _, pct, n = tail(rec.times)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} plans={plans} "
          f"attempted={rec.attempted} passed={rec.passed} timed_wall_s={rec.timed_wall:.4f}")
    print("failures by type: " + json.dumps(dict(sorted(rec.failures.items()))))
    if unknown:
        print("failures outside the known defects: " + ", ".join(sorted(unknown)))
    print(f"op_tail_s is the p{pct:.1f} of {n} ops")
    for name, samples in sorted(rec.extra.items()):
        print(f"{name}: median {statistics.median(samples):.4f} over {len(samples)}")
    if setup:
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
    print("env: " + json.dumps(environment()))
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if not math.isfinite(value):
            raise ArithmeticError(f"metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": not unknown,
        "attempted": rec.attempted,
        "failed": rec.attempted - rec.passed,
        "metrics": metrics,
    }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
