"""Process-based work pool with voluntary work sharing, and parallel sorters.

Workers are forked processes sharing the character buffer (copy-on-write)
and the handle/scratch arrays (anonymous shared memory), so jobs write
directly into disjoint ranges of the final arrays.  Scheduling follows one
idea: a central queue holds coarse jobs, workers keep recursion on local
stacks, and an unsynchronized idle counter tells busy workers when to
donate their largest pending subproblems back to the queue.

Parallel sample sort, radix sort and caching multikey quicksort share one
phased distribution engine.  A step over src[lo:hi] cuts the range into p
shards; each shard job computes one bucket per string with the sorter's
bucket function (classified word keys, radix digits, or the word's side of
a pivot word), stores it in a shared uint16 oracle and its bucket counts in
a shared (p, buckets) table, and replies.  The coordinator takes one
interleaved, bucket-major prefix sum over the shard counts, then each shard
job stably scatters its strings into dst.  The coordinator runs such steps
on every subproblem of at least n/p strings and feeds the smaller ones to
the pool as batch jobs, which sort sequentially and share when workers
idle.

The partitioned merge sort runs on one pool too.  Its K byte-balanced parts
are the roots of one sample sort over the whole set, so a part of at least
n/p strings takes phased steps on all p workers and smaller parts run as
batch jobs; the K-way LCP merge then runs as merge jobs on the same pool.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing as mp
import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .basecase import INSERTION_THRESHOLD, SortedWithLcp, fill_dchar
from .counters import SortStats
from .lcpmerge import LcpStream, MergeJob, run_merge_job, split_merge_jobs
from .mkqs import _median3, mkqs_cached_items
from .radix import RADIX16_THRESHOLD, _digits8, _digits16, radix8_items
from .ssss import (
    DEFAULT_V,
    S5Context,
    T_MEDIUM,
    bucket_word_range,
    classify_keys,
    draw_sample,
    finish_buckets,
    s5_sort_items,
    select_splitters,
    tree_capacity,
    write_boundary_lcps,
)
from .strset import LCP_UNDEF, WORD_CHARS, StringSet, extract_keys, first_zero_byte, lcp

_CTX = mp.get_context("fork")

POLL_S = 0.1  # longest wait for a reply before the workers' exit codes are checked
SHUTDOWN_S = 5.0  # longest wait for the workers' final stats


def shared_array(n: int, dtype) -> np.ndarray:
    """Anonymous shared-memory array, visible to forked workers."""
    itemsize = np.dtype(dtype).itemsize
    raw = _CTX.RawArray("b", max(n, 1) * itemsize)
    return np.frombuffer(raw, dtype=dtype, count=max(n, 1))[:n]


def default_workers() -> int:
    return os.cpu_count() or 1


class WorkerFailure(RuntimeError):
    pass


@dataclass
class _Env:
    """Per-worker handles to the pool's shared state."""

    jobs: object
    replies: object
    outstanding: object
    idle: object
    share_events: object
    stop: object
    fail: object
    stats: SortStats

    def enqueue(self, job) -> None:
        with self.outstanding.get_lock():
            self.outstanding.value += 1
        self.stats.jobs_enqueued += 1
        self.jobs.put(job)

    def idle_workers(self) -> int:
        return self.idle.value

    def record_share(self) -> None:
        with self.share_events.get_lock():
            self.share_events.value += 1
        self.stats.share_events += 1


def _worker_main(executor, ctx, env: _Env, worker_id: int) -> None:
    was_idle = False
    try:
        while True:
            try:
                job = env.jobs.get(timeout=0.05)
            except queue_mod.Empty:
                if not was_idle:
                    with env.idle.get_lock():
                        env.idle.value += 1
                    was_idle = True
                if env.stop.is_set():
                    break
                continue
            if was_idle:
                with env.idle.get_lock():
                    env.idle.value -= 1
                was_idle = False
            try:
                executor(ctx, job, env)
                env.stats.jobs_executed += 1
            except Exception:
                # the flag must precede the counter decrement, or the main
                # process could observe quiescence before the diagnostic
                env.fail.set()
                env.replies.put(("error", worker_id, traceback.format_exc()))
            finally:
                with env.outstanding.get_lock():
                    env.outstanding.value -= 1
    except Exception:
        env.fail.set()
        env.replies.put(("error", worker_id, traceback.format_exc()))
    finally:
        env.replies.put(("stats", worker_id, env.stats.as_dict()))


class WorkPool:
    """p forked workers around one job queue.

    Every enqueued job executes exactly once; the pool is quiescent when
    the outstanding-job counter returns to zero.  Worker exceptions abort
    the run with the worker's traceback, and a worker that dies aborts it
    with the worker's exit code.
    """

    def __init__(self, p: int, executor, ctx):
        self.p = p
        self.jobs = _CTX.Queue()
        self.replies = _CTX.Queue()
        self.outstanding = _CTX.Value("q", 0)
        self.idle = _CTX.Value("i", 0)
        self.share_events = _CTX.Value("q", 0)
        self.stop = _CTX.Event()
        self.fail = _CTX.Event()
        self.stats = SortStats()
        self._stats_seen = 0
        self._closed = False
        self._aborting = False
        self.workers = []
        for i in range(p):
            env = _Env(
                self.jobs, self.replies, self.outstanding, self.idle,
                self.share_events, self.stop, self.fail, SortStats(),
            )
            w = _CTX.Process(
                target=_worker_main, args=(executor, ctx, env, i), daemon=True
            )
            w.start()
            self.workers.append(w)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # a failing run, KeyboardInterrupt included, must not wait for busy workers
        self._aborting = exc_type is not None
        self.shutdown()

    def submit(self, job) -> None:
        with self.outstanding.get_lock():
            self.outstanding.value += 1
        self.jobs.put(job)

    def _reply(self, closing: bool = False):
        """The next reply, or None when none arrived within POLL_S.

        Workers exit only when the pool closes, so before that an exited
        worker has died and its job will never finish: raise WorkerFailure.
        """
        try:
            return self.replies.get(timeout=POLL_S)
        except queue_mod.Empty:
            pass
        if not closing:
            for i, w in enumerate(self.workers):
                if w.exitcode is not None:
                    self.stop.set()
                    raise WorkerFailure(f"worker {i} died with exit code {w.exitcode}")
        return None

    def _handle(self, msg) -> None:
        if msg[0] == "error":
            self.stop.set()
            raise WorkerFailure(f"worker {msg[1]} failed:\n{msg[2]}")
        if msg[0] == "stats":
            self.stats.add(SortStats.from_dict(msg[2]))
            self._stats_seen += 1

    def wait_phase(self, count: int, collect=None) -> list:
        """Wait for `count` phase replies, returning their payloads."""
        out = []
        while len(out) < count:
            msg = self._reply()
            if msg is None:
                continue
            if msg[0] == "phase":
                out.append(msg[1])
                if collect is not None:
                    collect(msg[1])
            else:
                self._handle(msg)
        return out

    def wait_idle(self) -> None:
        """Block until all submitted jobs (and their descendants) finished."""
        # a failing worker sets `fail` before its job leaves the counter, so
        # its diagnostic is awaited even when the counter already reads zero
        while self.fail.is_set() or self.outstanding.value:
            msg = self._reply()
            if msg is not None:
                self._handle(msg)

    def shutdown(self) -> None:
        """Stop the workers and collect their stats; when aborting, terminate
        them at once instead."""
        if self._closed:
            return
        self._closed = True
        self.stop.set()
        if not self._aborting:
            deadline = time.monotonic() + SHUTDOWN_S
            # a worker that died abnormally never sends its stats
            while (
                self._stats_seen < sum(w.exitcode in (None, 0) for w in self.workers)
                and time.monotonic() < deadline
            ):
                msg = self._reply(closing=True)
                if msg is not None and msg[0] == "stats":
                    self._handle(msg)
            for w in self.workers:
                w.join(timeout=5.0)
        for w in self.workers:
            if w.is_alive():
                w.terminate()
                w.join()
        # jobs no worker took may still sit in the feeder's buffer
        self.jobs.cancel_join_thread()
        self.jobs.close()
        self.replies.close()


def pool_run(p: int, root_jobs: list, executor, ctx) -> SortStats:
    """Run root jobs (and everything they spawn) to quiescence; return stats."""
    with WorkPool(p, executor, ctx) as pool:
        for job in root_jobs:
            pool.submit(job)
        pool.wait_idle()
    return pool.stats


def make_share_hook(env: _Env, job_of_entry=lambda entries: ("batch", entries)):
    """Donate the largest pending stack entries when workers sit idle.

    `job_of_entry` wraps a list of stack entries into a queue job.  One
    donation per trigger counts as one share event.
    """

    def share(stack: list) -> None:
        idle = env.idle_workers()
        if idle <= 0 or len(stack) <= 1:
            return
        take = min(idle, len(stack) - 1)
        largest = heapq.nlargest(
            take, range(len(stack)), key=lambda i: stack[i][1] - stack[i][0]
        )
        donated = [stack[i] for i in largest]
        for i in sorted(largest, reverse=True):
            del stack[i]
        env.enqueue(job_of_entry(donated))
        env.record_share()

    return share


def feed_batches(pool: WorkPool, entries: list) -> None:
    """Submit entries as at most 2p batch jobs, then wait until the pool idles."""
    if entries:
        for chunk in np.array_split(np.arange(len(entries)), min(len(entries), 2 * pool.p)):
            pool.submit(("batch", [entries[i] for i in chunk]))
    pool.wait_idle()


# ---------------------------------------------------------------------------
# phased distribution engine: count -> prefix sum -> scatter


@dataclass
class _Phased:
    """State of one phased sorter, shared with its forked workers."""

    sset: StringSet
    cur: np.ndarray  # handles; every finished range ends up here
    other: np.ndarray  # target of the steps that start in cur
    oracle: np.ndarray  # uint16 bucket of every position, from count to scatter
    counts: np.ndarray  # (p, max buckets): the bucket counts of each shard's count job
    buckets: object  # (shared, src, lo, hi, arg) -> (bucket per string, summary)
    batch: object  # (shared, entries, env): sort (lo, hi, depth, in_cur) entries
    s5: S5Context | None = None
    # pmkqs: each position's word at its range's depth, paired with cur and with other
    cache: np.ndarray | None = None
    other_cache: np.ndarray | None = None

    def words(self, in_cur: bool) -> tuple[np.ndarray, np.ndarray]:
        """The (src, dst) word arrays of a step whose data starts in cur when in_cur."""
        return (self.cache, self.other_cache) if in_cur else (self.other_cache, self.cache)

    @classmethod
    def create(cls, sset: StringSet, p: int, max_k: int, buckets, batch) -> "_Phased":
        n = len(sset)
        cur = shared_array(n, np.int64)
        cur[:] = sset.handles
        other = shared_array(n, np.int64)
        counts = shared_array(p * max_k, np.int64).reshape(p, max_k)
        return cls(sset, cur, other, shared_array(n, np.uint16), counts, buckets, batch)


def prefix_offsets(counts: np.ndarray, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved prefix sum over (shards, buckets) counts.

    Bucket-major, shard-minor: bucket b of shard s starts at offsets[s, b],
    after every smaller bucket and after bucket b of the earlier shards.
    Bucket b of the whole step occupies [lo + bounds[b], lo + bounds[b + 1]).
    """
    flat = counts.T.reshape(-1)
    offsets = (lo + np.cumsum(flat) - flat).reshape(counts.shape[1], counts.shape[0]).T
    bounds = np.zeros(counts.shape[1] + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=bounds[1:])
    return offsets, bounds


def scatter(items: np.ndarray, oracle: np.ndarray, offsets: np.ndarray, dst: np.ndarray) -> None:
    """Stable counting scatter: the items of the j-th nonempty bucket go,
    in input order, to dst[offsets[j]:]."""
    order = np.argsort(oracle, kind="stable")
    sizes = np.bincount(oracle)
    sizes = sizes[sizes > 0]
    pos = np.repeat(offsets - (np.cumsum(sizes) - sizes), sizes) + np.arange(len(oracle))
    dst[pos] = items[order]


def _phased_executor(sh: _Phased, job, env: _Env) -> None:
    kind = job[0]
    if kind == "batch":
        sh.batch(sh, job[1], env)
        return
    _, lo, hi, in_cur = job[:4]
    src, dst = (sh.cur, sh.other) if in_cur else (sh.other, sh.cur)
    if kind == "count":
        row, k, arg = job[4:]
        buckets, summary = sh.buckets(sh, src, lo, hi, arg)
        sh.oracle[lo:hi] = buckets
        sh.counts[row, :k] = np.bincount(buckets, minlength=k)
        env.replies.put(("phase", (lo, summary)))
    elif kind == "scatter":
        scatter(src[lo:hi], sh.oracle[lo:hi], job[4], dst)
        if sh.cache is not None:  # pmkqs: the words move with their handles
            src_words, dst_words = sh.words(in_cur)
            scatter(src_words[lo:hi], sh.oracle[lo:hi], job[4], dst_words)
        env.replies.put(("phase", None))
    else:
        raise ValueError(f"unknown phased job kind: {kind}")


def phased_step(pool: WorkPool, sh: _Phased, lo: int, hi: int, in_cur: bool, k: int, arg):
    """Distribute src[lo:hi] into k buckets of dst on the pool's p shards.

    `arg` goes to the bucket function.  Returns (bounds, summaries): bucket
    b occupies [lo + bounds[b], lo + bounds[b + 1]) of dst, and summaries
    holds the bucket function's second result per shard, in shard order.
    """
    cuts = np.linspace(lo, hi, pool.p + 1).astype(np.int64)
    shards = [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]
    for row, (slo, shi) in enumerate(shards):
        pool.submit(("count", slo, shi, in_cur, row, k, arg))
    parts = sorted(pool.wait_phase(len(shards)), key=lambda part: part[0])
    counts = sh.counts[: len(shards), :k]
    offsets, bounds = prefix_offsets(counts, lo)
    for (slo, shi), shard_counts, shard_offsets in zip(shards, counts, offsets):
        pool.submit(("scatter", slo, shi, in_cur, shard_offsets[shard_counts > 0]))
    pool.wait_phase(len(shards))
    return bounds, [part[1] for part in parts]


def phased_sort(pool: WorkPool, roots: list, step) -> None:
    """Sort the (lo, hi, depth, in_cur) roots: phased steps on subproblems
    of at least total/p strings, then the smaller ones as batch jobs.

    step(lo, hi, depth, in_cur) runs one phased step, settles finished
    buckets in cur and returns the others as (lo, hi, depth, in_cur).
    """
    total = sum(hi - lo for lo, hi, _, _ in roots)
    threshold = max(-(-total // pool.p), 2 * INSERTION_THRESHOLD)
    pending = list(roots)
    small: list[tuple[int, int, int, bool]] = []
    while pending:
        item = pending.pop()
        if item[1] - item[0] < threshold:
            small.append(item)
            continue
        for child in step(*item):
            (pending if child[1] - child[0] >= threshold else small).append(child)
    feed_batches(pool, small)


# ---------------------------------------------------------------------------
# parallel super scalar string sample sort


def _s5_buckets(sh: _Phased, src, lo: int, hi: int, arg):
    depth, tree = arg
    keys = extract_keys(sh.sset, src[lo:hi], depth)
    oracle = classify_keys(keys, tree)
    if sh.s5.lcps is None:
        return oracle, None
    return oracle, bucket_word_range(oracle, keys, tree.num_buckets)


def _s5_batch(sh: _Phased, entries, env: _Env) -> None:
    ctx = dataclasses.replace(sh.s5, stats=env.stats)
    s5_sort_items(ctx, entries, share=make_share_hook(env))


def _s5_shared(sset: StringSet, p: int, want_lcps: bool, seed: int, t_medium: int) -> _Phased:
    sh = _Phased.create(sset, p, 2 * DEFAULT_V + 1, _s5_buckets, _s5_batch)
    n = len(sset)
    lcps = None
    if want_lcps:
        lcps = shared_array(n, np.int64)
        lcps.fill(LCP_UNDEF)
    sh.s5 = S5Context(
        sset, sh.cur, sh.other, shared_array(n, np.uint64), lcps, SortStats(),
        seed, "unroll", t_medium,
    )
    return sh


def _s5_step(pool: WorkPool, sh: _Phased, lo: int, hi: int, depth: int, in_cur: bool) -> list:
    """One phased sample-sort step; returns the buckets left to sort."""
    ctx = sh.s5
    src = ctx.cur if in_cur else ctx.other
    v = tree_capacity(hi - lo)
    rng = np.random.default_rng((ctx.seed, lo, hi, depth))
    sample = draw_sample(ctx.sset, src[lo:hi], depth, v, rng)
    tree = select_splitters(sample, v)
    pool.stats.word_fetches += len(sample) + hi - lo  # the count jobs fetch hi - lo keys
    # count jobs pickle only what classify_keys(..., "unroll") reads
    search = dataclasses.replace(
        tree, node_to_inorder=None, slcp=None, eq_final=None, eq_leftmost=None, term_pos=None
    )
    bounds, ranges = phased_step(pool, sh, lo, hi, in_cur, tree.num_buckets, (depth, search))
    if ctx.lcps is not None:
        mins = np.min([r[0] for r in ranges], axis=0)
        maxs = np.max([r[1] for r in ranges], axis=0)
        write_boundary_lcps(ctx.lcps, lo, depth, bounds, mins, maxs)
    return finish_buckets(ctx, tree, bounds, lo, depth, in_cur)


def parallel_s5(
    sset: StringSet,
    p: int | None = None,
    want_lcps: bool = False,
    seed: int = 1,
    stats: SortStats | None = None,
    t_medium: int = T_MEDIUM,
) -> StringSet | SortedWithLcp:
    """Sample sort on p workers; content order matches the sequential sorter."""
    p = default_workers() if p is None else max(1, p)
    sh = _s5_shared(sset, p, want_lcps, seed, t_medium)
    with WorkPool(p, _phased_executor, sh) as pool:
        phased_sort(pool, [(0, len(sset), 0, True)], lambda *item: _s5_step(pool, sh, *item))
    if stats is not None:
        stats.add(pool.stats)
    out = sset.with_handles(sh.cur.copy())
    if not want_lcps:
        return out
    return SortedWithLcp(out, sh.s5.lcps.copy(), None, pool.stats)  # entry 0 is never written


# ---------------------------------------------------------------------------
# parallel radix sort


def _radix_buckets(sh: _Phased, src, lo: int, hi: int, arg):
    depth, width = arg
    if width == 16:
        return _digits16(sh.sset, src[lo:hi], depth), None
    return _digits8(sh.sset, src, lo, hi, depth), None


def _radix_batch(sh: _Phased, entries, env: _Env) -> None:
    items = []
    for lo, hi, depth, in_cur in entries:
        if not in_cur:
            sh.cur[lo:hi] = sh.other[lo:hi]
        if hi - lo > 1:
            items.append((lo, hi, depth))
    share = make_share_hook(env, lambda d: ("batch", [(a, b, c, True) for a, b, c in d]))
    radix8_items(sh.sset, sh.cur, items, sh.oracle, share)


def parallel_radix(
    sset: StringSet,
    p: int | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """MSD radix sort with fully parallel counting/redistribution steps.

    Large subproblems run phased 16- or 8-bit steps on the pool; smaller
    ones flow into the queue as batched in-place 8-bit jobs with voluntary
    sharing.  Terminator buckets are final and never recursed.
    """
    p = default_workers() if p is None else max(1, p)
    if len(sset) == 0:
        return sset.with_handles(sset.handles.copy())
    sh = _Phased.create(sset, p, 1 << 16, _radix_buckets, _radix_batch)

    def step(lo: int, hi: int, depth: int, in_cur: bool) -> list:
        width = 16 if hi - lo >= RADIX16_THRESHOLD else 8
        bounds, _ = phased_step(pool, sh, lo, hi, in_cur, 1 << width, (depth, width))
        children = []
        for b in np.flatnonzero(np.diff(bounds)):
            clo, chi = lo + int(bounds[b]), lo + int(bounds[b + 1])
            if b & 0xFF and chi - clo > 1:  # a zero low byte ends the strings
                children.append((clo, chi, depth + width // 8, not in_cur))
            elif in_cur:
                sh.cur[clo:chi] = sh.other[clo:chi]
        return children

    with WorkPool(p, _phased_executor, sh) as pool:
        phased_sort(pool, [(0, len(sset), 0, True)], step)
    if stats is not None:
        stats.add(pool.stats)
    return sset.with_handles(sh.cur.copy())


# ---------------------------------------------------------------------------
# parallel caching multikey quicksort


def _mkqs_buckets(sh: _Phased, src, lo: int, hi: int, arg):
    keys = sh.words(src is sh.cur)[0][lo:hi]
    pv = np.uint64(arg)
    return (keys >= pv).astype(np.uint16) + (keys > pv), None  # 0 less, 1 equal, 2 greater


def _mkqs_batch(sh: _Phased, entries, env: _Env) -> None:
    """Caching mkqs of the entries, whose words the steps left in the caches.

    Entries from the coordinator are (lo, hi, depth, in_cur); ranges a
    worker donated are mkqs stack items (lo, hi, depth), already in cur.
    """
    items = []
    for entry in entries:
        lo, hi, depth = entry[:3]
        if len(entry) == 4:
            if not entry[3]:
                sh.cur[lo:hi] = sh.other[lo:hi]
                sh.cache[lo:hi] = sh.other_cache[lo:hi]
            if hi - lo < 2:
                continue
        items.append((lo, hi, depth))
    mkqs_cached_items(sh.sset, sh.cur, sh.cache, items, None, env.stats, make_share_hook(env))


def parallel_mkqs(
    sset: StringSet,
    p: int | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """Caching multikey quicksort with fully parallel ternary partitioning steps.

    Every string's word at the current depth rides along with its handle:
    the coordinator fetches the words once, a phased step puts each string
    into the less, equal or greater bucket of the median-of-3 pivot word and
    scatters the words with the handles.  The equal bucket is settled when
    the pivot word holds the terminator and otherwise recurses a word
    deeper, after the coordinator fetches its next words.  Smaller
    subproblems run as batched caching-mkqs jobs with voluntary sharing.
    Handles and word fetches match mkqs_cached.
    """
    p = default_workers() if p is None else max(1, p)
    n = len(sset)
    sh = _Phased.create(sset, p, 3, _mkqs_buckets, _mkqs_batch)
    sh.cache = shared_array(n, np.uint64)
    sh.other_cache = shared_array(n, np.uint64)
    sh.cache[:] = extract_keys(sset, sset.handles, 0)

    def step(lo: int, hi: int, depth: int, in_cur: bool) -> list:
        src_words, dst_words = sh.words(in_cur)
        pivot = _median3(src_words[lo], src_words[lo + (hi - lo) // 2], src_words[hi - 1])
        bounds, _ = phased_step(pool, sh, lo, hi, in_cur, 3, pivot)
        equal_done = first_zero_byte(np.uint64(pivot)) < WORD_CHARS  # equal strings end within the word
        dst = sh.other if in_cur else sh.cur
        children = []
        for b in np.flatnonzero(np.diff(bounds)):
            clo, chi = lo + int(bounds[b]), lo + int(bounds[b + 1])
            if chi - clo > 1 and not (b == 1 and equal_done):
                child_depth = depth
                if b == 1:
                    child_depth += WORD_CHARS
                    dst_words[clo:chi] = extract_keys(sset, dst[clo:chi], child_depth)
                    pool.stats.word_fetches += chi - clo
                children.append((clo, chi, child_depth, not in_cur))
            elif in_cur:
                sh.cur[clo:chi] = sh.other[clo:chi]
        return children

    with WorkPool(p, _phased_executor, sh) as pool:
        pool.stats.word_fetches += n
        phased_sort(pool, [(0, n, 0, True)], step)
    if stats is not None:
        stats.add(pool.stats)
    return sset.with_handles(sh.cur.copy())


# ---------------------------------------------------------------------------
# partitioned top-level sort: part sorts, then K-way LCP merge, on one pool


@dataclass
class _MergeShared:
    streams: list
    out_h: np.ndarray
    out_l: np.ndarray
    use_cache: bool


def _merge_executor(shared: _MergeShared, job, env: _Env) -> None:
    _, mjob, offset = job
    size = mjob.size
    out_h = shared.out_h[offset : offset + size]
    out_l = shared.out_l[offset : offset + size]

    def poll(emitted: int) -> bool:
        return env.idle_workers() > 0

    _, _, emitted, leftover = run_merge_job(
        shared.streams, mjob, env.stats, shared.use_cache, out_h, out_l, poll
    )
    out_l[:1] = LCP_UNDEF  # the LCP to the previous job's last string is not known here
    if leftover:
        subjobs = split_merge_jobs(
            [shared.streams[k].slice(s, l) for k, s, l in leftover],
            max(2, env.idle_workers() + 1),
            mjob.shared_prefix,
        )
        pos = offset + emitted
        for sub in subjobs:
            ranges = [(leftover[i][0], leftover[i][1] + s, l) for i, s, l in sub.ranges]
            env.enqueue(("merge", MergeJob(ranges, sub.shared_prefix), pos))
            pos += sub.size
        env.record_share()


def _pmerge_executor(ctx, job, env: _Env) -> None:
    """Merge jobs go to the merge state, the part sorts' jobs to the S5 state."""
    phased, merge = ctx
    if job[0] == "merge":
        _merge_executor(merge, job, env)
    else:
        _phased_executor(phased, job, env)


def fill_job_lcps(sset: StringSet, handles: np.ndarray, lcps: np.ndarray) -> None:
    """Compute the LCPs that merge jobs left LCP_UNDEF at their first slot."""
    for pos in np.flatnonzero(lcps[1:] == LCP_UNDEF) + 1:
        lcps[pos] = lcp(sset, int(handles[pos - 1]), int(handles[pos]))


def partitioned_merge_sort(
    sset: StringSet,
    K: int = 4,
    p: int | None = None,
    use_cache: bool = True,
    want_lcps: bool = False,
    seed: int = 1,
    stats: SortStats | None = None,
    t_medium: int = T_MEDIUM,
) -> StringSet | SortedWithLcp:
    """Sort K byte-balanced parts, then merge them with LCPs, on one pool.

    The parts are the roots of one parallel sample sort that records LCPs:
    a part of at least n/p strings takes phased steps on all p workers and
    smaller parts run as batch jobs.  The coordinator then derives the
    distinguishing characters (when use_cache is set) and merges the parts
    by independent jobs on the same pool, re-split when workers go idle.
    Cached distinguishing characters answer the first comparison of every
    game, so merge-phase buffer reads shrink to the LCP-sum growth of the
    merge.
    """
    p = default_workers() if p is None else max(1, p)
    n = len(sset)
    if n == 0 or K <= 1:
        return parallel_s5(sset, p, want_lcps=want_lcps, seed=seed, stats=stats,
                           t_medium=t_medium)
    # split characters into K contiguous, byte-balanced parts (whole strings)
    lens = sset.ends() - sset.handles + 1
    cum = np.cumsum(lens)
    total = int(cum[-1])
    cuts = [0]
    for k in range(1, K):
        cuts.append(int(np.searchsorted(cum, total * k / K)))
    cuts.append(n)
    parts = [(cuts[k], cuts[k + 1]) for k in range(K) if cuts[k] < cuts[k + 1]]
    # everything the merge jobs read is allocated before the pool forks
    sh = _s5_shared(sset, p, True, seed, t_medium)
    lcps = sh.s5.lcps
    dchar = shared_array(n, np.uint8) if use_cache else None
    streams = [
        LcpStream(sset, sh.cur[lo:hi], lcps[lo:hi], None if dchar is None else dchar[lo:hi])
        for lo, hi in parts
    ]
    merge = _MergeShared(streams, shared_array(n, np.int64), shared_array(n, np.int64), use_cache)
    with WorkPool(p, _pmerge_executor, (sh, merge)) as pool:
        roots = [(lo, hi, 0, True) for lo, hi in parts]
        phased_sort(pool, roots, lambda *item: _s5_step(pool, sh, *item))
        if dchar is not None:
            dchar[:] = fill_dchar(sset.with_handles(sh.cur), lcps)
        offset = 0
        for job in split_merge_jobs(streams, 8 * p):
            pool.submit(("merge", job, offset))
            offset += job.size
        pool.wait_idle()
    if stats is not None:
        stats.add(pool.stats)
    out = sset.with_handles(merge.out_h.copy())
    if not want_lcps:
        return out
    out_l = merge.out_l.copy()
    fill_job_lcps(sset, merge.out_h, out_l)
    return SortedWithLcp(out, out_l, None, pool.stats)
