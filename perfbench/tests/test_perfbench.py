"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import json
import multiprocessing as mp
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import corpora
import harness
import tracing
from strsort import bench as strsort_bench
from strsort import parallel

ROOT = Path(__file__).resolve().parents[2]
SMALL = 3000


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload):
    a = corpora.make(workload, 5, SMALL)
    b = corpora.make(workload, 5, SMALL)
    c = corpora.make(workload, 6, SMALL)
    assert a.buffer == b.buffer and np.array_equal(a.handles, b.handles)
    assert len(a) == SMALL
    assert a.buffer != c.buffer


def _reversed(sset, threads, seed, stats):
    return sset.with_handles(np.sort(sset.handles)[::-1].copy())


def _raises(sset, threads, seed, stats):
    raise RuntimeError("deliberately broken")


def _dies(ctx, job, env):
    os._exit(3)


def _worker_dies(sset, threads, seed, stats):
    # a dead worker never answers, so the pool waits until the deadline
    parallel.pool_run(1, [0], _dies, None)
    return sset


def test_broken_sorters_drive_fail_ratio_to_one(monkeypatch):
    broken = {"reversed": _reversed, "raises": _raises, "worker-dies": _worker_dies}
    for name, fn in broken.items():
        monkeypatch.setitem(strsort_bench.ALGORITHMS, name, fn)
    monkeypatch.setattr(harness, "SORTERS", tuple((n, n, 1) for n in broken))
    monkeypatch.setattr(harness, "DEADLINE_S", 1.0)
    monkeypatch.setattr(harness, "TURN_S", 0.0)
    run = harness.Bench("random", corpora.make("random", 1, SMALL), 1)
    run.loop(list(broken), seconds=0)
    assert run.attempted == len(broken)
    assert run.failed == run.attempted
    assert run.end_to_end([0.1], 1.0)["ok_ratio"] == 0.0
    assert not mp.active_children()


def _site_snapshot():
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "strsort"]
    owners += [parallel.WorkPool, parallel._Env]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_traced_run_restores_every_attribute(workload, tmp_path):
    before = _site_snapshot()
    tracer = tracing.Tracer(str(tmp_path))
    run = harness.Bench(workload, corpora.make(workload, 2, SMALL), 2, tracer)
    run.loop([s[0] for s in harness.SORTERS], seconds=0, traced=True)
    after = _site_snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    tracer.check_unpatched()
    assert run.failed == 0
    layers = run.per_layer()
    assert list(layers) == [name for name, _ in harness.PER_LAYER]
    assert layers["s5.strset.keys"] >= SMALL
    assert layers["ps5.parallel.pools"] == 1
    assert layers["pmergesort.lcpmerge.jobs"] > 0
    assert not list(tmp_path.iterdir())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(corpora.WORKLOADS)
