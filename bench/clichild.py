"""Run one `cyclerep.cli` command under the tracer.

    python3 -X importtime bench/clichild.py TRACE.json ARGS...

Times `import cyclerep.cli`, installs the tracer, runs `cli.main(ARGS)`
and writes the counters and spans to TRACE.json.  Exits with the
command's exit code.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cyclerep.cli as cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.count("cli.import_s", import_s)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        tracer.count(f"cli.main.{argv[0]}.s", time.perf_counter() - t0)
        tracer.uninstall()
        tracer.write(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
