import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from corpus import (
    all_empty_set,
    all_equal_set,
    random_set,
    ref_lcps,
    ref_strings,
    shared_prefix_clusters,
    suffix_set,
)
from strsort import mkqs, parallel
from strsort.counters import SortStats
from strsort.basecase import LEAF_FLUSH, fill_dchar
from strsort.lcpmerge import MERGE_POLL_INTERVAL, LcpStream, MergeJob
from strsort.mkqs import mkqs_cached
from strsort.parallel import (
    WorkerFailure,
    WorkPool,
    _merge_executor,
    _MergeShared,
    _mkqs_batch,
    _mkqs_buckets,
    _Phased,
    _phased_executor,
    fill_job_lcps,
    parallel_mkqs,
    parallel_radix,
    parallel_s5,
    partitioned_merge_sort,
    pool_run,
    prefix_offsets,
    scatter,
    shared_array,
)
from strsort.radix import radix16_adaptive
from strsort.ssss import s5_sort
from strsort.strset import dist_stats, extract_keys, from_strings, lcp_array_oracle, verify


def _exit_worker(*args):
    os._exit(3)  # stands in for a worker killed mid-job


def _fail_or_sleep(fail, job, env):
    """Job 0 fails by `fail`; job 1 keeps its worker busy far past any bound."""
    if job == 0:
        fail()
    time.sleep(20)


def _raise():
    raise ValueError("job exploded")


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

    def __init__(self):
        self.queue = []
        self.stats = SortStats()

    def idle_workers(self):
        return 1

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

    @pytest.mark.parametrize(
        "buckets, sorter",
        [("_radix_buckets", parallel_radix), ("_mkqs_buckets", parallel_mkqs)],
    )
    def test_worker_dying_mid_phase_raises_promptly(self, monkeypatch, buckets, sorter):
        # the count job of the first phased step kills its worker
        monkeypatch.setattr(parallel, buckets, _exit_worker)
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure, match="exit code 3"):
            sorter(random_set(20_000), p=2)
        assert time.monotonic() - t0 < 2.0
        assert not mp.active_children()


def test_phased_engine_interleaves_shards():
    # shard 0 holds positions [0, 3), shard 1 [3, 6); regions are bucket-major
    handles = np.arange(6, dtype=np.int64)
    oracle = np.array([2, 0, 2, 1, 0, 2], dtype=np.uint16)
    shards = ((0, 3), (3, 6))
    counts = np.stack([np.bincount(oracle[lo:hi], minlength=3) for lo, hi in shards])
    offsets, bounds = prefix_offsets(counts, 10)
    out = np.full(16, -1, dtype=np.int64)
    for s, (lo, hi) in enumerate(shards):
        scatter(handles[lo:hi], oracle[lo:hi], offsets[s][counts[s] > 0], out)
    assert list(bounds) == [0, 2, 3, 6]
    assert list(out[10:]) == [1, 4, 3, 0, 2, 5]
    assert (out[:10] == -1).all()


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
    def test_matches_sequential_content(self, corpus, p):
        s = CORPORA[corpus]()
        seq = s5_sort(s, t_medium=512)
        par = parallel_s5(s, p=p, t_medium=512)
        assert verify(s, par).ok
        assert ref_strings(par) == ref_strings(seq)

    def test_lcp_oracle(self):
        s = random_set(5000, seed=8)
        res = parallel_s5(s, p=2, want_lcps=True, t_medium=512)
        want = sorted(ref_strings(s))
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)

    def test_p1_handle_identical_to_sequential(self):
        s = random_set(3000, seed=2)
        seq = s5_sort(s, t_medium=512)
        par = parallel_s5(s, p=1, t_medium=512)
        assert np.array_equal(par.handles, seq.handles)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_counters_match_sequential(self, corpus, p):
        # t_medium is below n/p, so both sorters take the same steps
        s = CORPORA[corpus]()
        seq, par = SortStats(), SortStats()
        s5_sort(s, seed=3, stats=seq, t_medium=256)
        parallel_s5(s, p=p, seed=3, stats=par, t_medium=256)
        assert seq.word_fetches > len(s)  # the steps charge their sample and keys
        assert (par.word_fetches, par.char_cmps) == (seq.word_fetches, seq.char_cmps)

    def test_sharing_batch_flushes_its_leaves_once(self, monkeypatch):
        # a batch whose share hook always sees an idle worker shares at every
        # stack pop; the leaves it keeps are still sorted by one flush
        s = random_set(20_000, seed=14)
        sh = parallel._s5_shared(s, 1, want_lcps=True, seed=1, t_medium=256)
        env = _IdleEnv()
        calls = []
        leaves = mkqs.word_leaves
        monkeypatch.setattr(mkqs, "word_leaves", lambda *args: calls.append(1) or leaves(*args))
        _phased_executor(sh, ("batch", [(0, len(s), 0, True)]), env)
        assert env.stats.share_events > 100
        assert 1 <= len(calls) <= 1 + len(s) // LEAF_FLUSH
        while env.queue:
            _phased_executor(sh, env.queue.pop(), env)
        want = sorted(ref_strings(s))
        assert ref_strings(s.with_handles(sh.cur)) == want
        assert list(sh.s5.lcps) == ref_lcps(want)


class TestParallelRadix:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_verify_and_reference(self, corpus, p):
        s = CORPORA[corpus]()
        out = parallel_radix(s, p=p)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))

    def test_p1_matches_sequential_adaptive(self):
        s = random_set(3000, seed=4)
        par = parallel_radix(s, p=1)
        seq = radix16_adaptive(s)
        assert ref_strings(par) == ref_strings(seq)


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
        sh = _Phased.create(s, 1, 3, _mkqs_buckets, _mkqs_batch)
        # the coordinator fetches and charges the root's words; batches fetch none
        sh.cache = extract_keys(s, s.handles, 0)
        env = _IdleEnv()
        env.stats.word_fetches = len(s)
        _phased_executor(sh, ("batch", [(0, len(s), 0, True)]), env)
        while env.queue:
            _phased_executor(sh, env.queue.pop(), env)
        assert env.stats.share_events > 0
        assert np.array_equal(sh.cur, seq.set.handles)
        assert env.stats.word_fetches == seq.stats.word_fetches

    def test_sharing_batch_flushes_its_leaves_once(self, monkeypatch):
        s = random_set(20_000, seed=15)
        sh = _Phased.create(s, 1, 3, _mkqs_buckets, _mkqs_batch)
        sh.cache = extract_keys(s, s.handles, 0)
        env = _IdleEnv()
        calls = []
        leaves = mkqs.word_leaves
        monkeypatch.setattr(mkqs, "word_leaves", lambda *args: calls.append(1) or leaves(*args))
        _phased_executor(sh, ("batch", [(0, len(s), 0, True)]), env)
        assert env.stats.share_events > 1
        assert 1 <= len(calls) <= 1 + len(s) // LEAF_FLUSH
        while env.queue:
            _phased_executor(sh, env.queue.pop(), env)
        assert ref_strings(s.with_handles(sh.cur)) == sorted(ref_strings(s))

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
    def test_k1_is_parallel_s5(self):
        s = random_set(2000, seed=1)
        out = partitioned_merge_sort(s, K=1, p=2, t_medium=512)
        assert verify(s, out).ok

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_k4_random(self, p):
        s = random_set(4000, seed=9)
        res = partitioned_merge_sort(s, K=4, p=p, want_lcps=True, t_medium=512)
        want = sorted(ref_strings(s))
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_corpora(self, corpus):
        s = CORPORA[corpus]()
        res = partitioned_merge_sort(s, K=4, p=2, want_lcps=True, t_medium=512)
        assert verify(s, res.set).ok
        want = sorted(ref_strings(s))
        assert list(res.lcps) == ref_lcps(want)

    def test_k_exceeding_n(self):
        s = random_set(3, seed=2)
        res = partitioned_merge_sort(s, K=8, p=2, want_lcps=True)
        assert verify(s, res.set).ok

    def test_cached_fewer_merge_reads(self):
        s = random_set(6000, seed=11)
        m_cached = SortStats()
        m_plain = SortStats()
        a = partitioned_merge_sort(
            s, K=4, p=2, use_cache=True, want_lcps=True,
            stats=m_cached, t_medium=512,
        )
        b = partitioned_merge_sort(
            s, K=4, p=2, use_cache=False, want_lcps=True,
            stats=m_plain, t_medium=512,
        )
        assert ref_strings(a.set) == ref_strings(b.set)
        assert list(a.lcps) == list(b.lcps)
        assert m_cached.merge_buffer_cmps < m_plain.merge_buffer_cmps

    def test_merge_job_resplit_when_workers_idle(self):
        # a job only splits after MERGE_POLL_INTERVAL emitted strings, so the
        # executor runs directly here with a scheduler that always reports an
        # idle worker; every subjob it enqueues runs the same way
        s = random_set(4 * 2500, seed=21)
        streams = []
        for k in range(4):
            sub = s.with_handles(s.handles[k * 2500 : (k + 1) * 2500])
            res = s5_sort(sub, want_lcps=True, t_medium=512)
            streams.append(LcpStream(s, res.set.handles, res.lcps, fill_dchar(res.set, res.lcps)))
        n = len(s)
        assert n > MERGE_POLL_INTERVAL
        out_h = np.zeros(n, dtype=np.int64)
        out_l = np.zeros(n, dtype=np.int64)
        shared = _MergeShared(streams, out_h, out_l, True)
        env = _IdleEnv()
        _merge_executor(shared, ("merge", MergeJob([(k, 0, 2500) for k in range(4)], 0), 0), env)
        assert env.queue and env.stats.share_events == 1
        while env.queue:
            _merge_executor(shared, env.queue.pop(0), env)
        fill_job_lcps(s, out_h, out_l)
        want = sorted(ref_strings(s))
        assert ref_strings(s.with_handles(out_h)) == want
        assert list(out_l) == ref_lcps(want)

    def test_part_sort_failure_raises(self, monkeypatch):
        def boom(shared, entries, env):
            raise ValueError("part sort exploded")

        monkeypatch.setattr(parallel, "_s5_batch", boom)
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


def test_scheduler_share_event_with_single_root():
    # one sequential root job on a multi-worker pool must trigger sharing
    s = random_set(60_000, seed=13)
    from strsort.parallel import _s5_shared

    shared = _s5_shared(s, 4, want_lcps=False, seed=1, t_medium=2048)
    stats = pool_run(4, [("batch", [(0, len(s), 0, True)])], _phased_executor, shared)
    out = s.with_handles(shared.cur.copy())
    assert verify(s, out).ok
    assert stats.share_events >= 1
    assert stats.jobs_executed == stats.jobs_enqueued + 1  # root included
