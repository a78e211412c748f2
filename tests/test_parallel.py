import dataclasses
import errno
import functools
import multiprocessing as mp
import os
import queue
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corpus import (
    all_empty_set,
    all_equal_set,
    random_set,
    ref_lcps,
    ref_sorted_strings,
    ref_strings,
    shared_prefix_clusters,
    sorted_runs,
    suffix_set,
)
from strsort import mkqs, parallel, ssss
from strsort import radix as radix_mod
from strsort.counters import SortStats
from strsort.basecase import LEAF_FLUSH, local_classifier, range_rows
from strsort.lcpmerge import MERGE_POLL_INTERVAL, run_merge_job, split_merge_jobs
from strsort.mkqs import mkqs_cached
from strsort.parallel import (
    WorkerFailure,
    WorkPool,
    _ForkedPool,
    _merge_executor,
    _MergeShared,
    _mkqs_shared,
    _phased_executor,
    _radix_shared,
    _s5_shared,
    feed_batches,
    parallel_mkqs,
    parallel_radix,
    parallel_s5,
    partitioned_merge_sort,
    phased_step,
    pool_run,
    shared_array,
)
from strsort.radix import radix16_adaptive
from strsort.ssss import DEFAULT_V, s5_sort, step_tree, tree_capacity
from strsort.strset import (
    LCP_UNDEF,
    WORD_CHARS,
    dist_stats,
    from_strings,
    verify,
)


def _in_worker() -> bool:
    """Whether this runs in a forked worker rather than in the coordinator."""
    return mp.parent_process() is not None


def _exit_worker(*args):
    if _in_worker():
        os._exit(3)  # stands in for a worker killed mid-job


def _fail_or_sleep(fail, job, env):
    """In a worker, job 0 fails by `fail` and job 1 keeps its worker busy far past any bound."""
    if _in_worker():
        if job == 0:
            fail()
        time.sleep(20)


def _run_kind_in(executor, kind, worker=True):
    """`executor`, except that jobs of `kind` go back to the queue until a
    forked worker (worker=True) or the coordinator (worker=False) takes them."""

    def run(ctx, job, env):
        if job[0] == kind and _in_worker() != worker:
            env.enqueue(job)
        else:
            executor(ctx, job, env)

    return run


def _raise():
    raise ValueError("job exploded")


def _sleep(ctx, job, env):
    time.sleep(0.3)


def _touch_executor(shared, job, env):
    kind = job[0]
    if kind == "mark":
        _, idx = job
        shared[idx] += 1
    elif kind == "spawn":
        _, count = job
        for i in range(count):
            env.enqueue(("mark", i))


class _IdleEnv:
    """A scheduler stand-in that always reports one idle worker."""

    def __init__(self, idle=1):
        self.queue = []
        self.replies = queue.SimpleQueue()
        self.stats = SortStats()
        self.idle = idle

    def idle_workers(self):
        return self.idle

    def enqueue(self, job):
        self.queue.append(job)

    def record_share(self):
        self.stats.share_events += 1


class TestWorkPool:
    def test_single_worker_runs_jobs_in_order(self):
        marks = shared_array(10, np.int64)
        order = shared_array(10, np.int64)

        def exec_seq(shared, job, env):
            _, i = job
            arr, pos = shared
            arr[int(pos[0])] = i
            pos[0] += 1

        pos = shared_array(1, np.int64)
        stats = pool_run(1, [("j", i) for i in range(10)], exec_seq, (order, pos))
        assert list(order) == list(range(10))
        assert stats.jobs_executed == 10

    def test_every_job_executes_once(self):
        marks = shared_array(100, np.int64)
        stats = pool_run(4, [("mark", i) for i in range(100)], _touch_executor, marks)
        assert list(marks) == [1] * 100
        assert stats.jobs_executed == 100

    def test_transitive_jobs_counted(self):
        marks = shared_array(50, np.int64)
        stats = pool_run(2, [("spawn", 50)], _touch_executor, marks)
        assert list(marks) == [1] * 50
        assert stats.jobs_executed == 51
        assert stats.jobs_enqueued == 50  # the spawned ones

    def test_worker_error_aborts_with_diagnostic(self):
        def boom(shared, job, env):
            raise ValueError("job exploded")

        with pytest.raises(Exception, match="job exploded"):
            pool_run(2, [("x",)], boom, None)

    def test_dead_worker_raises_promptly(self):
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure, match="exit code 3"):
            pool_run(2, [0, 1, 2], _exit_worker, None)
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()

    @pytest.mark.parametrize("fail", [_raise, lambda: os._exit(3)], ids=["raise", "exit"])
    def test_failure_does_not_wait_for_busy_worker(self, fail):
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure):
            pool_run(2, [1, 0], _fail_or_sleep, fail)
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()

    def test_empty_run_has_no_polling_floor(self):
        # the worker that finishes the last job wakes wait_idle, and the
        # workers leave on their shutdown sentinels without a poll timeout
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            pool_run(2, [("noop",), ("noop",)], _touch_executor, None)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.08

    def test_waiting_coordinator_does_not_spin(self):
        # the coordinator sleeps on the reply and job queues while its one
        # worker runs the job: it neither polls nor retries a lock in a loop
        with WorkPool(2, _run_kind_in(_sleep, "sleep"), None) as pool:
            deadline = time.monotonic() + 5.0
            while pool.idle.value < 1 and time.monotonic() < deadline:
                time.sleep(0.01)  # the worker waits for a job, holding the queue's read lock
            pool.submit(("sleep",))
            wall, cpu = time.monotonic(), time.process_time()
            pool.wait_idle()
            wall, cpu = time.monotonic() - wall, time.process_time() - cpu
        assert wall >= 0.25
        assert cpu < 0.05

    def test_failed_fork_reaps_started_workers(self, monkeypatch):
        process = mp.get_context("fork").Process
        start, calls = process.start, []

        def second_start_fails(proc):
            calls.append(proc)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "fork failed")
            start(proc)

        monkeypatch.setattr(process, "start", second_start_fails)
        with pytest.raises(OSError, match="fork failed"):
            pool_run(2, [("noop",)], _touch_executor, None)
        assert len(calls) == 2
        assert not mp.active_children()

    def test_missing_fork_names_the_requirement(self, monkeypatch):
        def get_context(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(parallel.mp, "get_context", get_context)
        with pytest.raises(RuntimeError, match="'fork' start method"):
            shared_array(4, np.int64)
        with pytest.raises(RuntimeError, match="'fork' start method"):
            parallel_s5(random_set(100), p=2)

    def test_sequential_sorters_import_and_run_without_fork(self):
        script = (
            "import multiprocessing as mp\n"
            "def get_context(method=None):\n"
            "    raise ValueError('no fork here')\n"
            "mp.get_context = get_context\n"
            "from strsort import bench\n"
            "from strsort.strset import from_strings\n"
            "s = from_strings([b'b', b'a'])\n"
            "out = bench.ALGORITHMS['mkqs'](s, 1, 1, None)\n"
            "print(out.strings())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        res = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[b'a', b'b']"

    @pytest.mark.parametrize(
        "buckets, sorter",
        [("radix_buckets", parallel_radix), ("mkqs_buckets", parallel_mkqs)],
    )
    def test_worker_dying_mid_phase_raises_promptly(self, monkeypatch, buckets, sorter):
        # the classify job of the first phased step kills its worker
        monkeypatch.setattr(parallel, buckets, _exit_worker)
        monkeypatch.setattr(parallel, "_phased_executor", _run_kind_in(_phased_executor, "classify"))
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure, match="exit code 3"):
            sorter(random_set(20_000), p=2)
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()


def _phased_shared(kind, s):
    """A phased sorter's shared state over s: "s5", "radix" or "mkqs"."""
    if kind == "s5":
        return _s5_shared(s, want_lcps=False, seed=1)
    return _radix_shared(s) if kind == "radix" else _mkqs_shared(s)


class TestPhasedStep:
    """A phased step leaves [lo, hi) of cur in stable bucket order."""

    @staticmethod
    def _pool_calls(monkeypatch):
        """Record the kind of each submitted job and ("wait_phase", count) for each phase wait."""
        calls = []
        submit, wait_phase = WorkPool.submit, WorkPool.wait_phase

        def recording_wait(pool, count, collect=None):
            calls.append(("wait_phase", count))
            return wait_phase(pool, count, collect)

        monkeypatch.setattr(WorkPool, "submit", lambda pool, job: calls.append(job[0]) or submit(pool, job))
        monkeypatch.setattr(WorkPool, "wait_phase", recording_wait)
        return calls

    def test_radix_step_orders_an_interior_range(self, monkeypatch):
        s = random_set(3000, seed=31, lo=97, hi=105)  # first characters a to h, or none
        sh = _radix_shared(s)
        before = sh.ctx.cur.copy()
        lo, hi = 400, 2700
        buckets = np.array([x[0] if x else 0 for x in ref_strings(s.with_handles(before[lo:hi]))])
        calls = self._pool_calls(monkeypatch)
        with WorkPool(2, _phased_executor, sh) as pool:
            bounds, _ = phased_step(pool, sh, lo, hi, 256, (0, 8))
        # one round trip: two classify jobs, then one wait for their replies
        assert calls == ["classify", "classify", ("wait_phase", 2)]
        assert np.count_nonzero(np.diff(bounds)) > 2
        cur = sh.ctx.cur
        assert np.array_equal(cur[lo:hi], before[lo:hi][np.argsort(buckets, kind="stable")])
        assert np.array_equal(np.diff(bounds), np.bincount(buckets, minlength=256))
        assert np.array_equal(cur[:lo], before[:lo]) and np.array_equal(cur[hi:], before[hi:])

    def test_mkqs_step_moves_the_words(self):
        s = random_set(3000, seed=32)
        sh = _phased_shared("mkqs", s)
        cur, cache = sh.ctx.cur, sh.ctx.cache
        before, words = cur.copy(), cache.copy()
        lo, hi = 250, 2900
        pivot = np.uint64(np.median(words[lo:hi]))
        buckets = (words[lo:hi] >= pivot).astype(int) + (words[lo:hi] > pivot)
        with WorkPool(2, _phased_executor, sh) as pool:
            phased_step(pool, sh, lo, hi, 3, pivot)
        order = np.argsort(buckets, kind="stable")
        assert np.array_equal(cur[lo:hi], before[lo:hi][order])
        assert np.array_equal(cache[lo:hi], words[lo:hi][order])
        assert np.array_equal(cur[:lo], before[:lo]) and np.array_equal(cur[hi:], before[hi:])
        assert np.array_equal(cache[:lo], words[:lo]) and np.array_equal(cache[hi:], words[hi:])

    @pytest.mark.parametrize("kind", ["radix", "mkqs"])
    def test_one_bucket_moves_nothing(self, monkeypatch, kind):
        # cur and the cache are read-only, in the workers too: any write raises
        s = from_strings([b"q%d" % i for i in range(2000)])
        sh = _phased_shared(kind, s)
        before = sh.ctx.cur.copy()
        for arr in (sh.ctx.cur, sh.ctx.cache):
            if arr is not None:
                arr.flags.writeable = False
        k, arg = (256, (0, 8)) if kind == "radix" else (3, np.uint64(2**64 - 1))  # all less
        calls = self._pool_calls(monkeypatch)
        with WorkPool(2, _phased_executor, sh) as pool:
            bounds, _ = phased_step(pool, sh, 100, 1900, k, arg)
        assert calls == ["classify", "classify", ("wait_phase", 2)]
        assert np.count_nonzero(np.diff(bounds)) == 1
        assert np.array_equal(sh.ctx.cur, before)

    @pytest.mark.parametrize("kind", ["s5", "radix", "mkqs"])
    def test_classify_job_writes_only_the_oracle(self, kind):
        # so no worker writes cur, or pmkqs's cache, during a step
        s = random_set(3000, seed=34)
        sh = _phased_shared(kind, s)
        lo, hi = 300, 2500
        if kind == "s5":
            arg = (0, step_tree(sh.ctx, lo, hi, 0))
        elif kind == "radix":
            arg = (0, 8)
        else:
            arg = np.uint64(np.median(sh.ctx.cache[lo:hi]))
        moving = [arr for arr in (sh.ctx.cur, sh.ctx.cache) if arr is not None]
        before = [arr.tobytes() for arr in moving]
        want, summary = sh.buckets(sh.ctx, lo, hi, arg)
        env = _IdleEnv()
        _phased_executor(sh, ("classify", lo, hi, arg), env)
        assert [arr.tobytes() for arr in moving] == before
        assert np.array_equal(sh.oracle[lo:hi], want) and len(np.unique(want)) > 1
        assert env.replies.get_nowait() == ("phase", (lo, summary)) and env.replies.empty()


def _mixed_set():
    """Repeated short strings, distinct ones, and a shared 8-character prefix
    over half the strings, half of them repeated: every kind of bucket."""
    rng = np.random.default_rng(27)
    items = [b"%d" % (i % 40) for i in range(1200)]
    items += [b"%x" % x for x in rng.integers(1 << 32, 1 << 44, size=400)]
    items += [b"sharedpx" + b"%d" % (i % 300) for i in range(1600)]
    items += [b"sharedpx" + b"%x" % x for x in rng.integers(1 << 32, 1 << 44, size=600)]
    rng.shuffle(items)
    return from_strings(items)


class TestOneStepTwoClassifiers:
    """Each sorter module's one step gives the same result with its
    in-process classifier and with phased_step on a pool of p = 2."""

    # case -> (shared state, step, in-process classifier, step context changes)
    CASES = {
        "s5": (lambda s: _s5_shared(s, False, 1), ssss.s5_step,
               lambda ctx: local_classifier(ssss.s5_buckets, ctx), {}),
        "s5_lcps": (lambda s: _s5_shared(s, True, 1), ssss.s5_step,
                    lambda ctx: local_classifier(ssss.s5_buckets, ctx), {}),
        "radix8": (_radix_shared, radix_mod.radix_step,
                   lambda ctx: local_classifier(radix_mod.radix_buckets, ctx), {"wide": False}),
        "radix16": (_radix_shared, radix_mod.radix_step,
                    lambda ctx: local_classifier(radix_mod.radix_buckets, ctx), {}),
        "mkqs": (_mkqs_shared, mkqs.mkqs_step, mkqs.partition_classifier, {"lcps": True}),
    }

    @staticmethod
    def _step(case, s, lo, hi, pool_p):
        """Run one step over [lo, hi) at depth 0: in process (pool_p None) or
        on a pool; return everything it wrote or returned."""
        shared, step, local, changes = TestOneStepTwoClassifiers.CASES[case]
        sh = shared(s)
        if changes.get("lcps"):  # mkqs's boundary LCPs, which pmkqs does not record
            changes = {"lcps": np.full(len(s), LCP_UNDEF, dtype=np.int64)}
        ctx = dataclasses.replace(sh.ctx, stats=SortStats(), **changes)
        if pool_p is None:
            rows = step(ctx, lo, hi, 0, local(ctx))
        else:
            with WorkPool(pool_p, _phased_executor, sh) as pool:
                rows = step(ctx, lo, hi, 0, functools.partial(phased_step, pool, sh))
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        copy = lambda arr: None if arr is None else arr.copy()
        return ctx.cur.copy(), copy(ctx.cache), rows, copy(ctx.lcps), ctx.stats.as_dict()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_step(self, monkeypatch, case):
        monkeypatch.setattr(radix_mod, "RADIX16_THRESHOLD", 1024)  # radix16: a 16-bit step
        s = _mixed_set()
        lo, hi = 150, len(s) - 250
        here = self._step(case, s, lo, hi, None)
        pooled = self._step(case, s, lo, hi, 2)
        cur, cache, rows, lcps, stats = here
        assert len(rows) > 1 and not np.array_equal(cur, s.handles)
        assert np.array_equal(cur[:lo], s.handles[:lo]) and np.array_equal(cur[hi:], s.handles[hi:])
        if lcps is not None:
            assert (lcps[lo + 1 : hi] != LCP_UNDEF).any()
        for a, b in zip(here, pooled):
            if isinstance(a, dict) or a is None:
                assert a == b
            else:
                assert np.array_equal(a, b)


class TestBatchRows:
    """Batch jobs take (lo, hi, depth) rows as the coordinator sends them,
    an (m, 3) int64 array, or as a share hook donates them, 3-tuples."""

    RANGES = [(0, 1500, 0), (1500, 1501, 0), (1600, 4000, 0), (4000, 4000, 0), (4100, 6000, 0)]

    @pytest.mark.parametrize("kind", ["radix", "mkqs", "s5"])
    def test_array_and_tuples_agree(self, monkeypatch, kind):
        monkeypatch.setattr(ssss, "T_MEDIUM", 256)
        s = random_set(6000, seed=33)
        outs = []
        for rows in (np.array(self.RANGES, dtype=np.int64), list(self.RANGES)):
            sh = _phased_shared(kind, s)
            _phased_executor(sh, ("batch", rows), _IdleEnv(idle=0))
            outs.append(sh.ctx.cur.copy())
        assert np.array_equal(outs[0], outs[1])
        for lo, hi, _ in self.RANGES:
            want = sorted(ref_strings(s.with_handles(s.handles[lo:hi])))
            assert ref_strings(s.with_handles(outs[0][lo:hi])) == want
        untouched = np.ones(len(s), dtype=bool)
        for lo, hi, _ in self.RANGES:
            untouched[lo:hi] = False
        assert np.array_equal(outs[0][untouched], s.handles[untouched])

    @pytest.mark.parametrize("m", [0, 3, 10])
    def test_feed_batches_partitions_rows(self, m):
        jobs = []

        class Pool:
            p = 2
            submit = staticmethod(jobs.append)

            def wait_idle(self):
                jobs.append("idle")

        rows = range_rows(np.arange(0, 5 * m, 5), np.arange(5, 5 * m + 5, 5), 3)
        feed_batches(Pool(), rows)
        assert jobs[-1] == "idle"
        batches = jobs[:-1]
        assert len(batches) == min(m, 4) and all(kind == "batch" for kind, _ in batches)
        if m:
            assert np.array_equal(np.concatenate([chunk for _, chunk in batches]), rows)


CORPORA = {
    "random": lambda: random_set(4000, seed=3),
    "all_equal": lambda: all_equal_set(1500, b"equal-string"),
    "all_empty": lambda: all_empty_set(800),
    "clusters": lambda: shared_prefix_clusters(3000, seed=5),
    "suffixes": lambda: suffix_set(2500),
}


class TestParallelS5:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_matches_sequential_content(self, monkeypatch, corpus, p):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = CORPORA[corpus]()
        seq = s5_sort(s)
        par = parallel_s5(s, p=p)
        assert verify(s, par).ok
        assert ref_strings(par) == ref_strings(seq)

    def test_lcp_oracle(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = random_set(5000, seed=8)
        res = parallel_s5(s, p=2, want_lcps=True)
        want = sorted(ref_strings(s))
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)

    def test_lcp_oracle_with_final_equality_buckets(self, monkeypatch):
        # repeated short strings end in final equality buckets at the root;
        # the shared 8-character prefix holds over half the strings, so its
        # bucket takes a second phased step at depth 8, whose repeated tails
        # end in final equality buckets too
        rng = np.random.default_rng(21)
        items = [b"%d" % (i % 40) for i in range(1200)]
        items += [b"%x" % x for x in rng.integers(1 << 32, 1 << 44, size=400)]
        items += [b"sharedpx" + b"%d" % (i % 300) for i in range(1600)]
        items += [b"sharedpx" + b"%x" % x for x in rng.integers(1 << 32, 1 << 44, size=600)]
        rng.shuffle(items)
        s = from_strings(items)
        settled = []  # the depths of the phased steps that settle equal strings
        phased = parallel.phased_step

        def recording(pool, sh, lo, hi, k, arg):
            bounds, ranges = phased(pool, sh, lo, hi, k, arg)
            depth, tree = arg
            final = np.zeros(tree.num_buckets, dtype=bool)
            final[1::2] = tree.eq_final
            if (final & (np.diff(bounds) > 1)).any():
                settled.append(depth)
            return bounds, ranges

        monkeypatch.setattr(parallel, "phased_step", recording)
        monkeypatch.setattr(ssss, "T_MEDIUM", 256)
        res = parallel_s5(s, p=2, want_lcps=True)
        assert 0 in settled and WORD_CHARS in settled
        want = sorted(ref_strings(s))
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)

    def test_full_root_tree_matches_sequential(self, monkeypatch):
        # 5,000 strings give the root step a full tree of DEFAULT_V splitters;
        # every step and leaf is stable, so p = 2 returns s5_sort's handles
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = random_set(5000, seed=9)
        assert tree_capacity(len(s)) == DEFAULT_V
        res = parallel_s5(s, p=2, want_lcps=True)
        assert np.array_equal(res.set.handles, s5_sort(s).handles)
        assert list(res.lcps) == ref_lcps(sorted(ref_strings(s)))

    def test_p1_handle_identical_to_sequential(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = random_set(3000, seed=2)
        seq = s5_sort(s)
        par = parallel_s5(s, p=1)
        assert np.array_equal(par.handles, seq.handles)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_counters_match_sequential(self, monkeypatch, corpus, p):
        # T_MEDIUM is below n/p, so both sorters take the same steps
        monkeypatch.setattr(ssss, "T_MEDIUM", 256)
        s = CORPORA[corpus]()
        seq, par = SortStats(), SortStats()
        s5_sort(s, seed=3, stats=seq)
        parallel_s5(s, p=p, seed=3, stats=par)
        assert seq.word_fetches > len(s)  # the steps charge their sample and keys
        assert (par.word_fetches, par.char_cmps) == (seq.word_fetches, seq.char_cmps)

    def test_sharing_batch_flushes_its_leaves_once(self, monkeypatch):
        # a batch whose share hook always sees an idle worker shares at every
        # stack pop; the leaves it keeps are still sorted by one flush
        monkeypatch.setattr(ssss, "T_MEDIUM", 256)
        s = random_set(20_000, seed=14)
        sh = _s5_shared(s, want_lcps=True, seed=1)
        env = _IdleEnv()
        calls = []
        leaves = mkqs.word_leaves
        monkeypatch.setattr(mkqs, "word_leaves", lambda *args: calls.append(1) or leaves(*args))
        _phased_executor(sh, ("batch", [(0, len(s), 0)]), env)
        assert env.stats.share_events > 100
        assert 1 <= len(calls) <= 1 + len(s) // LEAF_FLUSH
        while env.queue:
            _phased_executor(sh, env.queue.pop(), env)
        want = sorted(ref_strings(s))
        assert ref_strings(s.with_handles(sh.ctx.cur)) == want
        assert list(sh.ctx.lcps) == ref_lcps(want)


class TestParallelRadix:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_verify_and_reference(self, corpus, p):
        s = CORPORA[corpus]()
        out = parallel_radix(s, p=p)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))
        # both sorts are stable, so they return the same permutation
        assert np.array_equal(out.handles, radix16_adaptive(s).handles)

    @staticmethod
    def _coordinator_skips(monkeypatch):
        """Record what the skip_shared calls of this process, the coordinator, return."""
        found = []
        skip = radix_mod.skip_shared
        monkeypatch.setattr(
            radix_mod, "skip_shared", lambda *args: found.append(skip(*args)) or found[-1]
        )
        return found

    def test_equal_child_range_is_finished(self, monkeypatch):
        # 3000 copies of one long string among 2000 others that share only
        # its first character: the root skips to depth 1, the depth-1 step
        # puts the copies in one bucket, and their skip finds them equal
        # and leaves them in that order
        rng = np.random.default_rng(21)
        others = [b"x" + bytes(rng.integers(97, 120, size=6, dtype=np.uint8)) for _ in range(2000)]
        items = [b"x" * 40] * 3000 + others
        s = from_strings([items[i] for i in rng.permutation(len(items))])
        found = self._coordinator_skips(monkeypatch)
        out = parallel_radix(s, p=2)
        assert found == [1, None]  # the root's skip, then the copies, finished at once
        assert np.array_equal(out.handles, radix16_adaptive(s).handles)
        assert ref_strings(out) == sorted(items)

    @pytest.mark.parametrize("threshold", [None, 1024], ids=["8bit", "16bit"])
    def test_coordinator_skips_a_shared_prefix(self, monkeypatch, threshold):
        # every string starts with the same 23 characters
        rng = np.random.default_rng(22)
        items = [b"http://www.example.com/%d" % int(x) for x in rng.integers(0, 9000, size=6000)]
        s = from_strings(items)
        if threshold is not None:  # 16-bit phased steps, as on large inputs
            monkeypatch.setattr(radix_mod, "RADIX16_THRESHOLD", threshold)
        found = self._coordinator_skips(monkeypatch)
        widths = []  # of the classify jobs
        submit = WorkPool.submit

        def recording_submit(pool, job):
            if job[0] == "classify":
                widths.append(job[3][1])
            submit(pool, job)

        monkeypatch.setattr(WorkPool, "submit", recording_submit)
        out = parallel_radix(s, p=2)
        assert found and found[0] >= 23
        assert widths and set(widths) == {8 if threshold is None else 16}
        assert np.array_equal(out.handles, radix16_adaptive(s).handles)
        assert ref_strings(out) == sorted(items)


    def test_donated_ranges_run_radix16s_loop(self, monkeypatch):
        # a batch that always sees an idle worker donates its stack items,
        # (lo, hi, depth) 3-tuples, at every pop; with 16-bit steps on large
        # ranges, draining the queue sorts as radix16_adaptive does
        monkeypatch.setattr(radix_mod, "RADIX16_THRESHOLD", 2048)
        # two-character heads put 3600, 3600, 1800, 1800 and 1200 strings in
        # the root's buckets: they take 16- and 8-bit steps
        rng = np.random.default_rng(16)
        heads = np.repeat([b"ax", b"ay", b"bx", b"by", b"cx"], [3600, 3600, 1800, 1800, 1200])
        rng.shuffle(heads)
        s = from_strings([h + bytes(rng.integers(97, 123, size=5, dtype=np.uint8)) for h in heads])
        sh = _radix_shared(s)
        env = _IdleEnv()
        _phased_executor(sh, ("batch", [(0, len(s), 0)]), env)
        assert env.stats.share_events > 0
        donated = [entry for job in env.queue for entry in job[1]]
        assert donated and all(len(entry) == 3 for entry in donated)
        wide = []  # the ranges of the 16-bit steps
        buckets = radix_mod.radix_buckets

        def spy(ctx, lo, hi, arg):
            if arg[1] == 16:
                wide.append(hi - lo)
            return buckets(ctx, lo, hi, arg)

        monkeypatch.setattr(radix_mod, "radix_buckets", spy)
        while env.queue:
            _phased_executor(sh, env.queue.pop(), env)
        assert wide and min(wide) >= 2048  # the donated 3600-string ranges
        assert np.array_equal(sh.ctx.cur, radix16_adaptive(s).handles)


class TestOneBucketSteps:
    """A phased step whose strings all land in one bucket moves nothing."""

    @staticmethod
    def _steps(monkeypatch):
        """Record, per phased step, whether its oracle fills one bucket; such
        a step's distribute gets read-only views of cur and the cache, so a
        write to either raises."""
        steps = []
        distribute = parallel.distribute

        def recording_distribute(seg, keys, k, *extra):
            one = np.count_nonzero(np.bincount(keys, minlength=k)) == 1
            steps.append(one)
            if one:
                seg, *extra = (arr.view() for arr in (seg, *extra))
                for arr in (seg, *extra):
                    arr.flags.writeable = False
            return distribute(seg, keys, k, *extra)

        monkeypatch.setattr(parallel, "distribute", recording_distribute)
        return steps

    @staticmethod
    def _corpus():
        rng = np.random.default_rng(24)
        items = [b"http://www.example.com/%d" % int(x) for x in rng.integers(0, 9000, size=6000)]
        return from_strings(items)

    def test_pradix(self, monkeypatch):
        # every string starts with "http://www.example.com/": the root's first
        # and last strings share its digit, so it skips that prefix before
        # it classifies, and no step, the root included, has one bucket
        s = self._corpus()
        steps = self._steps(monkeypatch)
        depths = []  # of the classify jobs
        submit = WorkPool.submit

        def recording_submit(pool, job):
            if job[0] == "classify":
                depths.append(job[3][0])
            submit(pool, job)

        monkeypatch.setattr(WorkPool, "submit", recording_submit)
        out = parallel_radix(s, p=2)
        assert steps and not any(steps)
        assert min(depths) == len(b"http://www.example.com/")
        assert np.array_equal(out.handles, radix16_adaptive(s).handles)

    def test_pmkqs(self, monkeypatch):
        s = self._corpus()
        steps = self._steps(monkeypatch)
        stats = SortStats()
        out = parallel_mkqs(s, p=2, stats=stats)
        assert steps.count(True) >= 2  # "http://w" and "ww.examp"
        seq = mkqs_cached(s)
        assert np.array_equal(out.handles, seq.set.handles)
        assert stats.word_fetches == seq.stats.word_fetches


class TestParallelMkqs:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_verify_and_reference(self, corpus, p):
        s = CORPORA[corpus]()
        out = parallel_mkqs(s, p=p)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))
        # both sorts are stable, so the phased steps partition exactly as mkqs_cached
        assert np.array_equal(out.handles, mkqs_cached(s).set.handles)

    def test_donated_ranges_keep_their_words(self):
        # a batch that always sees an idle worker donates at every stack pop;
        # the donated ranges must sort on their cached words, not fetch them again
        s = random_set(3000, seed=12)
        seq = mkqs_cached(s)
        # the coordinator fetches and charges the root's words; batches fetch none
        sh = _mkqs_shared(s)
        env = _IdleEnv()
        env.stats.word_fetches = len(s)
        _phased_executor(sh, ("batch", [(0, len(s), 0)]), env)
        while env.queue:
            _phased_executor(sh, env.queue.pop(), env)
        assert env.stats.share_events > 0
        assert np.array_equal(sh.ctx.cur, seq.set.handles)
        assert env.stats.word_fetches == seq.stats.word_fetches

    def test_sharing_batch_flushes_its_leaves_once(self, monkeypatch):
        s = random_set(20_000, seed=15)
        sh = _mkqs_shared(s)
        env = _IdleEnv()
        calls = []
        leaves = mkqs.word_leaves
        monkeypatch.setattr(mkqs, "word_leaves", lambda *args: calls.append(1) or leaves(*args))
        _phased_executor(sh, ("batch", [(0, len(s), 0)]), env)
        assert env.stats.share_events > 1
        assert 1 <= len(calls) <= 1 + len(s) // LEAF_FLUSH
        while env.queue:
            _phased_executor(sh, env.queue.pop(), env)
        assert ref_strings(s.with_handles(sh.ctx.cur)) == sorted(ref_strings(s))

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_word_fetches_match_mkqs_cached(self, corpus, p):
        # the words ride along with the handles, so no string is fetched twice
        s = CORPORA[corpus]()
        stats = SortStats()
        parallel_mkqs(s, p=p, stats=stats)
        assert stats.word_fetches == mkqs_cached(s).stats.word_fetches

    def test_all_equal_terminates(self):
        s = all_equal_set(6000, b"zzzzzzzzzzzzzzzz")
        out = parallel_mkqs(s, p=2)
        assert verify(s, out).ok


class TestPartitionedMergeSort:
    def test_k1_is_parallel_s5(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = random_set(2000, seed=1)
        out = partitioned_merge_sort(s, K=1, p=2)
        assert verify(s, out).ok

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_k4_random(self, monkeypatch, p):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = random_set(4000, seed=9)
        res = partitioned_merge_sort(s, K=4, p=p, want_lcps=True)
        want = sorted(ref_strings(s))
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_corpora(self, monkeypatch, corpus):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = CORPORA[corpus]()
        res = partitioned_merge_sort(s, K=4, p=2, want_lcps=True)
        assert verify(s, res.set).ok
        want = sorted(ref_strings(s))
        assert list(res.lcps) == ref_lcps(want)

    def test_k_exceeding_n(self):
        s = random_set(3, seed=2)
        res = partitioned_merge_sort(s, K=8, p=2, want_lcps=True)
        assert verify(s, res.set).ok

    def test_merge_job_resplit_when_workers_idle(self, monkeypatch):
        # a job only splits after MERGE_POLL_INTERVAL emitted strings, so the
        # executor runs directly here with a scheduler that always reports an
        # idle worker; every subjob it enqueues runs the same way
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = random_set(4 * 2500, seed=21)
        runs = sorted_runs(s, [2500] * 4, lambda sub: s5_sort(sub, want_lcps=True))
        n = len(s)
        assert n > MERGE_POLL_INTERVAL
        out_h = np.zeros(n, dtype=np.int64)
        out_l = np.zeros(n, dtype=np.int64)
        shared = _MergeShared(runs, out_h, out_l)
        env = _IdleEnv()
        (job,) = split_merge_jobs(runs, 1)
        _merge_executor(shared, ("merge", job, 0), env)
        assert env.queue and env.stats.share_events == 1
        while env.queue:
            _merge_executor(shared, env.queue.pop(0), env)
        # the subjobs write the split's groups and fetch no word again
        unpolled = SortStats()
        for job in split_merge_jobs(runs, 1):
            run_merge_job(runs, job, unpolled, np.empty(job.size, np.int64), np.empty(job.size, np.int64))
        assert env.stats.word_fetches == unpolled.word_fetches
        out_l[0] = LCP_UNDEF
        want = sorted(ref_strings(s))
        assert ref_strings(s.with_handles(out_h)) == want
        assert list(out_l) == ref_lcps(want)

    def test_part_sort_failure_raises(self, monkeypatch):
        def boom(ctx, rows, share):
            raise ValueError("part sort exploded")

        monkeypatch.setattr(parallel, "s5_sort_items", boom)
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure, match="part sort exploded"):
            partitioned_merge_sort(random_set(4000), K=4, p=2)
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()

    def test_disjoint_parts_concat(self):
        # four groups with disjoint leading characters, grouped in buffer order
        items = []
        for c in (b"a", b"g", b"q", b"x"):
            items += [c + bytes([x]) * 2 for x in range(97, 117)]
        s = from_strings(items)
        res = partitioned_merge_sort(s, K=4, p=2, want_lcps=True)
        assert verify(s, res.set).ok
        assert ref_strings(res.set) == sorted(items)


def test_scheduler_share_event_with_single_root(monkeypatch):
    # one sequential root job on a multi-worker pool must trigger sharing
    monkeypatch.setattr(ssss, "T_MEDIUM", 2048)
    s = random_set(60_000, seed=13)
    from strsort.parallel import _s5_shared

    shared = _s5_shared(s, want_lcps=False, seed=1)
    stats = pool_run(4, [("batch", [(0, len(s), 0)])], _phased_executor, shared)
    out = s.with_handles(shared.ctx.cur.copy())
    assert verify(s, out).ok
    assert stats.share_events >= 1
    assert stats.jobs_executed == stats.jobs_enqueued + 1  # root included


# ---------------------------------------------------------------------------
# the coordinator as the p-th participant

SORTERS = {
    "ps5": parallel_s5,
    "pradix": parallel_radix,
    "pmkqs": parallel_mkqs,
    "pmergesort": partitioned_merge_sort,
}
# the job kinds each sorter runs: pmergesort's parts are smaller than n/p
JOB_KINDS = [
    (algo, kind)
    for algo, kinds in {
        "ps5": ("classify", "batch"),
        "pradix": ("classify", "batch"),
        "pmkqs": ("classify", "batch"),
        "pmergesort": ("batch", "merge"),
    }.items()
    for kind in kinds
]


def _injected_raise():
    raise RuntimeError("injected fault")


def _injected_kill():
    os.kill(os.getpid(), signal.SIGKILL)


# fault -> (what the job does, the failure it must raise)
FAULTS = {
    "raise": (_injected_raise, r"worker 0 failed:(?s:.*)RuntimeError: injected fault"),
    "exit": (lambda: os._exit(3), "worker 0 died with exit code 3"),
    "kill": (_injected_kill, "worker 0 died with exit code -9"),
}


def _faulty(executor, kind, fault):
    """`executor`, whose jobs of `kind` call fault() first."""

    def run(ctx, job, env):
        if job[0] == kind:
            fault()
        executor(ctx, job, env)

    return run


def _patch_faulty(monkeypatch, kind, fault, workers_only):
    """Make the executor of `kind`'s jobs faulty for every parallel sorter."""
    target = "_merge_executor" if kind == "merge" else "_phased_executor"
    executor = _faulty(getattr(parallel, target), kind, fault)
    if workers_only:
        executor = _run_kind_in(executor, kind)
    monkeypatch.setattr(parallel, target, executor)


class TestCoordinatorParticipates:
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("algo, kind", JOB_KINDS)
    def test_worker_fault_names_its_cause(self, monkeypatch, algo, kind, fault):
        # the coordinator hands the faulty kind on, so the forked worker runs it
        action, match = FAULTS[fault]
        _patch_faulty(monkeypatch, kind, action, workers_only=True)
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure, match=match):
            SORTERS[algo](random_set(20_000), p=2)
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()

    @pytest.mark.parametrize("algo, kind", JOB_KINDS)
    def test_coordinator_fault_names_the_coordinator(self, monkeypatch, algo, kind):
        # at p = 1 the coordinator is the only participant and runs every job
        _patch_faulty(monkeypatch, kind, _injected_raise, workers_only=False)
        match = r"coordinator failed:(?s:.*)RuntimeError: injected fault"
        with pytest.raises(WorkerFailure, match=match):
            SORTERS[algo](random_set(20_000), p=1)

    def test_coordinator_fault_terminates_a_busy_worker(self):
        # "sleep" runs only in the worker and "boom" only in the coordinator
        def run(ctx, job, env):
            if job[0] == "boom":
                raise ValueError("coordinator job exploded")
            time.sleep(20)

        executor = _run_kind_in(_run_kind_in(run, "boom", worker=False), "sleep")
        t0 = time.monotonic()
        match = r"coordinator failed:(?s:.*)coordinator job exploded"
        with pytest.raises(WorkerFailure, match=match):
            with WorkPool(2, executor, None) as pool:
                pool.submit(("sleep",))
                pool.submit(("boom",))
                pool.wait_idle()
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()

    def test_worker_death_during_a_coordinator_job_raises_promptly(self):
        # "die" runs only in the worker; "long" runs only in the coordinator
        # and polls idle_workers() for 3 s, as share hooks and merge polls do
        def run(ctx, job, env):
            if job[0] == "die":
                os._exit(3)
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                env.idle_workers()
                time.sleep(0.005)

        executor = _run_kind_in(_run_kind_in(run, "long", worker=False), "die")
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure, match="exit code 3"):
            with WorkPool(2, executor, None) as pool:
                pool.submit(("long",))
                pool.submit(("die",))
                pool.wait_idle()
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()

    def test_busy_worker_shares_with_the_idle_coordinator(self, monkeypatch):
        # the worker sorts the one root batch; the waiting coordinator counts
        # as idle, so the worker's share hook donates to it
        monkeypatch.setattr(ssss, "T_MEDIUM", 2048)
        s = random_set(60_000, seed=13)
        shared = _s5_shared(s, want_lcps=False, seed=1)
        ran_here = []  # the coordinator's list: workers append to their own copies

        def run(sh, job, env):
            if job[0] == "root":
                job = ("batch", job[1])
            else:
                ran_here.append(job[0])
            _phased_executor(sh, job, env)

        with WorkPool(2, _run_kind_in(run, "root"), shared) as pool:
            pool.submit(("root", [(0, len(s), 0)]))
            pool.wait_idle()
        assert "batch" in ran_here
        assert pool.stats.share_events >= 1
        assert verify(s, s.with_handles(shared.ctx.cur.copy())).ok

    @pytest.mark.parametrize("p, forks", [(1, 0), (2, 1)])
    @pytest.mark.parametrize("algo", SORTERS)
    def test_forks_p_minus_one_workers(self, monkeypatch, algo, p, forks):
        process = mp.get_context("fork").Process
        start, started = process.start, []
        monkeypatch.setattr(process, "start", lambda proc: started.append(proc) or start(proc))
        s = random_set(5000, seed=41)
        out = SORTERS[algo](s, p=p)
        assert len(started) == forks
        assert ref_strings(out) == ref_sorted_strings(s)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("workload", ["random", "url", "suffix"])
    def test_same_output_and_counters_as_forked_workers(self, monkeypatch, workload, p):
        # the reference pool forks p workers and its coordinator only waits
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import corpora

        s = corpora.make(workload, 1, 30_000)
        results = []
        for pool in (WorkPool, _ForkedPool):
            monkeypatch.setattr(parallel, "WorkPool", pool)
            runs = {}
            for algo, sort in SORTERS.items():
                stats = SortStats()
                lcps = {"want_lcps": True} if algo in ("ps5", "pmergesort") else {}
                out = sort(s, p=p, stats=stats, **lcps)
                runs[algo] = (
                    out.set.handles.tolist() if lcps else out.handles.tolist(),
                    out.lcps.tolist() if lcps else None,
                    (stats.char_cmps, stats.word_fetches, stats.merge_buffer_cmps),
                )
            results.append(runs)
        assert results[0] == results[1]
