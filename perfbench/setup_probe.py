"""Print the seconds from importing strsort to a corpus ready for its first sort.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED N
"""

import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import corpora  # noqa: E402  (imports numpy and strsort)

corpora.fresh(corpora.make(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
print(time.perf_counter() - t0)
