import multiprocessing as mp
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_left_alive():
    """Fail a test that leaves a child process running: pools must reap their workers."""
    yield
    alive = mp.active_children()
    if alive:
        pytest.fail(f"child processes left alive: {alive}")
