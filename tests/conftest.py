import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def small_knobs(monkeypatch):
    """Every tuning knob set so small that a few hundred strings take every
    code path: word_leaves leaves of 2-3 strings flushed every 16, 16-bit
    radix steps, sample-sort steps and merge polls.  Each knob is one
    assignment on the module that owns it, and forked workers inherit it."""
    from strsort import basecase, lcpmerge, radix, ssss

    monkeypatch.setattr(basecase, "LEAF_THRESHOLD", 4)
    monkeypatch.setattr(basecase, "LEAF_FLUSH", 16)
    monkeypatch.setattr(radix, "RADIX16_THRESHOLD", 32)
    monkeypatch.setattr(lcpmerge, "MERGE_POLL_INTERVAL", 8)
    monkeypatch.setattr(ssss, "T_MEDIUM", 16)
