"""Settings for every test under this directory, perfbench's included."""

import faulthandler
import multiprocessing as mp
import os
import sys

import pytest

HANG_S = 120  # the slowest test takes a few seconds

_stderr = None  # a copy of the real stderr, which tests capture


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())  # stderr is not captured while configuring


def pytest_unconfigure(config):
    os.close(_stderr)


@pytest.fixture(autouse=True)
def fail_when_hung():
    """Dump every thread's stack and exit when one test runs past HANG_S,
    so a hung pool fails the run instead of stalling it."""
    faulthandler.dump_traceback_later(HANG_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_child_left_alive():
    """Fail a test that leaves a child process running: pools must reap their workers."""
    yield
    alive = mp.active_children()
    if alive:
        pytest.fail(f"child processes left alive: {alive}")
