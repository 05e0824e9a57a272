import contextlib
import signal
from fractions import Fraction

import pytest

from cyclerep.dynamics import Section, find_cycle, radial_cubic_field
from cyclerep.polynomials import chebyshev
from cyclerep.pullback import build_pullback


@pytest.fixture(scope="session")
def radial_half():
    """The one-cycle cubic seed with cycle radius 1/2."""
    return radial_cubic_field(Fraction(1, 2))


@pytest.fixture(scope="session")
def x_axis_section():
    return Section(base=(0.0, 0.0), direction=(1.0, 0.0), s_max=1.0)


@pytest.fixture(scope="session")
def base_cycle(radial_half, x_axis_section):
    rec = find_cycle(radial_half, x_axis_section, 0.5)
    assert rec.certified
    return rec


@pytest.fixture(scope="session")
def pullback_m3(radial_half):
    return build_pullback(radial_half, chebyshev(3))


@contextlib.contextmanager
def _wall_bound(seconds: float):
    """Raise TimeoutError in the body once `seconds` of wall time pass, so
    that a hang fails its test instead of stalling the suite (SIGALRM, so
    on the main thread of a POSIX host)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_bound():
    """`with wall_bound(seconds):` fails the test on a hang."""
    return _wall_bound
