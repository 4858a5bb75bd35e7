"""Suite-wide pytest hooks: a wall-clock limit per test phase.

The setup, the call and the teardown of every test each run under a
limit of ``TIME_LIMIT_S`` seconds, armed with ``signal.setitimer``.  A
phase that runs out fails with the test's name and the traceback of
where it was, so a wrong rule that makes a run hang fails its tests
instead of hanging the suite.  The slowest phase takes about 6 s.
"""

import signal

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an ``Exception``: no ``except Exception`` in the code under
    test swallows it, and Hypothesis does not shrink on it, so the phase
    fails at once."""


def _time_limit(item, phase):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid}: {phase} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _time_limit(item, "setup")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _time_limit(item, "call")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    yield from _time_limit(item, "teardown")
