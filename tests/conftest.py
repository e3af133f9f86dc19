import contextlib
import math
import signal

import pytest

from plaplab import (
    Exponential,
    ProblemSpec,
    RadialProfile,
    lambda_star_estimate,
    make_grid,
    minimal_iterate,
    solver,
)


@pytest.fixture(scope="session")
def grid2000():
    return make_grid(1e-8, 2000)


@pytest.fixture(scope="session")
def gelfand_disk_spec():
    return ProblemSpec(2.0, 2.0, Exponential(1.0))


@pytest.fixture(scope="session")
def minimal_disk_lam1(gelfand_disk_spec, grid2000):
    prof = minimal_iterate(gelfand_disk_spec, 1.0, grid2000)
    assert isinstance(prof, RadialProfile)
    return prof


@pytest.fixture(scope="session")
def continuation_disk(gelfand_disk_spec, grid2000):
    return lambda_star_estimate(gelfand_disk_spec, grid2000)


@pytest.fixture(scope="session")
def continuation_12_2(grid2000):
    spec = ProblemSpec(12.0, 2.0, Exponential(1.0))
    return lambda_star_estimate(spec, grid2000)


@pytest.fixture(scope="session")
def continuation_10_3(grid2000):
    spec = ProblemSpec(10.0, 3.0, Exponential(1.0))
    return lambda_star_estimate(spec, grid2000)


@pytest.fixture
def without_unstable_stop(monkeypatch):
    """Switches the certified unstable-iterate stop off, and with it the
    leaps, so that a divergent probe runs on until it passes u_max or
    overflows, and a probe at the fold runs to a ghost stop."""
    monkeypatch.setattr(solver, "UNSTABLE_MARGIN", math.inf)


@pytest.fixture
def without_early_decisions(monkeypatch):
    """Switches the certified early decisions of warm-started search probes
    off, so that every plain converged probe runs to the stopping test."""
    monkeypatch.setattr(solver, "EARLY_SWEEPS", 10**9)


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` raises TimeoutError in a block still
    running after that many seconds, so a call that loops forever fails
    instead of hanging the suite."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        except TimeoutError as exc:
            # a fresh exception: the interrupted frame's traceback entry can
            # lack a line number, which pytest cannot format
            raise TimeoutError(str(exc)) from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
