"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at its tiny size (one op per kind, m=2 where it
applies), untraced and traced, and checks that each run exits 0 and
that its last line carries exactly the keys of the result contract and
every metric BENCHMARK.json names for that mode, with its unit and a
finite value.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{where}: failed {result['failed']!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        if metric.get("unit") != wanted.get(name):
            problems.append(f"{where}: {name} has unit {metric.get('unit')!r}")
        value = metric.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
