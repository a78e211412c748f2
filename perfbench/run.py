"""Benchmark strsort's sorters on one seeded workload; print metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload {random,url,suffix} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Lines before it describe the corpus and each metric.  perfbench/README.md
documents every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("random", "url", "suffix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "strsort" / "__init__.py").is_file():
        print(f"error: no strsort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import corpora
    import harness
    import tracing

    corpus = corpora.make(args.workload, args.seed)
    tracer = None
    if args.trace:
        tmp_root = ROOT / ".perfbench-tmp"
        tmp_root.mkdir(exist_ok=True)
        tracer = tracing.Tracer(tempfile.mkdtemp(dir=tmp_root))
    try:
        bench = harness.Bench(args.workload, corpus, args.seed, tracer)
        print(f"# workload {args.workload} seed {args.seed}: "
              + " ".join(f"{k}={v:.4g}" for k, v in bench.ref.stats().items()))
        if args.trace:
            bench.loop([s[0] for s in harness.SORTERS], args.seconds, traced=True)
            metrics, units = bench.per_layer(), dict(harness.PER_LAYER)
            for sorter, exact in bench.exact_counters().items():
                print(f"# {sorter}: counters repeated exactly: {', '.join(exact) or 'none'}")
        else:
            setup = harness.measure_setup(args.workload, args.seed, corpora.N)
            bench.loop([harness.BUILTIN, *(s[0] for s in harness.SORTERS)], args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, units = bench.end_to_end(setup, rss), dict(harness.END_TO_END)
            for name, times in {"setup": setup, **bench.times}.items():
                print(f"# {name}: {len(times)} samples: " + " ".join(f"{t:.4f}" for t in times))
    finally:
        if tracer is not None:
            shutil.rmtree(tracer.trace_dir, ignore_errors=True)
            if not any(tmp_root.iterdir()):
                tmp_root.rmdir()
    for name, value in metrics.items():
        print(f"# {name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    sys.stdout.flush()
    if threading.active_count() > 1:
        # a sort that missed its deadline can leave a thread blocked on a pool
        # queue whose workers were reaped; it would keep the process alive
        os._exit(0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
