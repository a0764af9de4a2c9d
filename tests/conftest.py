"""Shared test configuration: hypothesis profile, the suite time budget
and the grids the critical-point finder scans."""

import time

from hypothesis import HealthCheck, settings

from ybekit.landscape import AxisSpec, get_function

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SUITE_BUDGET_SECONDS = 60.0
_session_start = time.perf_counter()


def finder_axes(tag, n, domain=None):
    """One n-point AxisSpec per axis of ``tag``, over ``domain``, one
    (start, stop) per axis, or the function's default domain; a tuple, so
    cached references can take it."""
    spec = get_function(tag)
    return tuple(AxisSpec(name, *bounds, n)
                 for name, bounds in zip(spec.axes, domain or spec.default_domain))


def session_elapsed() -> float:
    return time.perf_counter() - _session_start


def pytest_sessionfinish(session, exitstatus):
    elapsed = session_elapsed()
    print(f"\nfull suite wall time: {elapsed:.1f}s (budget {SUITE_BUDGET_SECONDS:.0f}s)")
    if elapsed >= SUITE_BUDGET_SECONDS and exitstatus == 0:
        print("time budget exceeded; marking the run as failed")
        session.exitstatus = 1
