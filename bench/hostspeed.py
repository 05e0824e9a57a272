"""Host speed, sampled on a fixed pure-Python kernel while the ops run.

On a shared host the interpreter's speed drifts: one op's wall time
swings up to 2x within seconds and by +-20% between runs, and a fixed
pure-Python kernel slows down in step with it.  Over 20 s of alternating
full_branch_intervals(T_30) with `kernel()`, the medians of ten 2-s
blocks spread by 0.37 (op) and 0.40 (kernel) of their median, their
ratio by 0.05.  So the runner reports times scaled by
NOMINAL_S / the kernel's time at that moment: seconds at this host's
idle speed, steady from run to run, and unchanged by anything in
cyclerep.

`HostSpeed` runs the kernel from a SIGALRM handler every INTERVAL
seconds of wall time; op timings subtract the time the handler took,
and each op is scaled by the samples taken while it ran (and around
it, for ops shorter than a few samples).
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.2
NOMINAL_S = 0.002  # kernel time on an idle 2-core x86-64 host, Python 3.11

_COEFFS = tuple(1.0 / (k + 1) for k in range(40))


def kernel() -> float:
    """Horner evaluation of a fixed polynomial at 1500 points."""
    acc = 0.0
    for i in range(1500):
        x = i * 1e-3
        r = 0.0
        for c in _COEFFS:
            r = r * x + c
        acc += r
    return acc


class HostSpeed:
    """Context manager that samples the kernel's time every INTERVAL s."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stamps: list[float] = []  # perf_counter at each sample's end
        self.stolen = 0.0  # wall time spent in the sampler
        self._previous = None

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - t0)
        self.stamps.append(end)
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """Factor from measured seconds to seconds at nominal host speed:
        over the whole run, or over the samples taken from `start` to
        `end`, a window widened on both sides until it holds three."""
        samples = self.samples
        pad = INTERVAL
        while start is not None and pad < 100.0:
            local = [d for t, d in zip(self.stamps, self.samples) if start - pad <= t <= end + pad]
            if len(local) >= 3:
                samples = local
                break
            pad *= 2
        return NOMINAL_S / statistics.median(samples)
