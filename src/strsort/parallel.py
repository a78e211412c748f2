"""Process-based work pool with voluntary work sharing, and parallel sorters.

Workers are forked processes sharing the character buffer (copy-on-write)
and the handle/scratch arrays (anonymous shared memory), so jobs write
directly into disjoint ranges of the final arrays.  Scheduling follows one
idea: a central queue holds coarse jobs, workers keep recursion on local
stacks, and an unsynchronized idle counter tells busy workers when to
donate their largest pending subproblems back to the queue.  Nothing polls
for progress: the worker that finishes the last outstanding job sends a
"quiet" reply, the coordinator reads every reply in one loop, and shutdown
puts one None sentinel per worker on the job queue.

Parallel sample sort, radix sort and caching multikey quicksort share one
phased distribution engine.  A step over cur[lo:hi] cuts the range into p
shards, and each shard's classify job computes one bucket per string with
the sorter's bucket function (classified word keys, radix digits, or the
word's side of a pivot word), stores it in a shared uint16 oracle and
replies.  That is the step's one pool round trip: the coordinator then
stably sorts cur[lo:hi] by the oracle with basecase.distribute, the
in-place radix argsort of the sequential steps, and moves pmkqs's cached
words with their handles; a step whose strings all land in one bucket
moves nothing.  So every step ends with its range in cur, and its
subproblems go on as one (m, 3) int64 array of (lo, hi, depth) rows.  The
coordinator runs such steps on every subproblem of at least n/p strings
and feeds the smaller ones to the pool as batch jobs, which sort
sequentially and share when workers idle.  Steps and batch sorts are all
stable, so equal strings keep their input order.

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

from . import basecase
from .basecase import SortedWithLcp, distribute, range_rows
from .counters import SortStats
from .lcpmerge import LcpRuns, pack_merge_jobs, run_merge_job, split_merge_jobs
from .mkqs import _median3, mkqs_cached_items
from .radix import bucket_spans, digit_width, radix8_items, skip_shared, step_digits
from .ssss import (
    S5Context,
    bucket_word_range,
    classify_keys,
    finish_buckets,
    s5_sort_items,
    step_tree,
    write_boundary_lcps,
)
from .strset import LCP_UNDEF, WORD_CHARS, StringSet, extract_keys, first_zero_byte

POLL_S = 0.1  # how often a wait with no reply checks the workers' exit codes
SHUTDOWN_S = 5.0  # longest wait for the workers' final stats


def _fork_context():
    """The fork start method: workers inherit the buffer and shared arrays."""
    try:
        return mp.get_context("fork")
    except ValueError as exc:
        raise RuntimeError("the parallel sorters need the 'fork' start method") from exc


def shared_array(n: int, dtype) -> np.ndarray:
    """Anonymous shared-memory array, visible to forked workers."""
    itemsize = np.dtype(dtype).itemsize
    raw = _fork_context().RawArray("b", max(n, 1) * itemsize)
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
        self.stats.share_events += 1


def _worker_main(executor, ctx, env: _Env, worker_id: int) -> None:
    wait = 0.0  # a fresh worker that finds no job is idle at once
    try:
        while True:
            try:
                job = env.jobs.get(timeout=wait)
            except queue_mod.Empty:
                with env.idle.get_lock():
                    env.idle.value += 1
                job = env.jobs.get()  # idle until a job or the shutdown sentinel
                with env.idle.get_lock():
                    env.idle.value -= 1
            if job is None:
                break
            wait = 0.05
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
                    quiet = env.outstanding.value == 0
                if quiet:
                    env.replies.put(("quiet",))  # wakes wait_idle
    except Exception:
        env.fail.set()
        env.replies.put(("error", worker_id, traceback.format_exc()))
    finally:
        env.replies.put(("stats", worker_id, env.stats.as_dict()))


class WorkPool:
    """p forked workers around one job queue.

    Every enqueued job executes exactly once; the pool is quiescent when
    the outstanding-job counter returns to zero, and the worker that brings
    it there says so on the reply queue.  One loop, _wait, reads every
    reply.  Worker exceptions abort the run with the worker's traceback,
    and a worker that dies aborts it with the worker's exit code.  On
    shutdown each worker takes one None sentinel from the job queue, sends
    its stats and exits.
    """

    def __init__(self, p: int, executor, ctx):
        fork = _fork_context()
        self.p = p
        self.jobs = fork.Queue()
        self.replies = fork.Queue()
        self.outstanding = fork.Value("q", 0)
        self.idle = fork.Value("i", 0)
        self.fail = fork.Event()
        self.stats = SortStats()
        self._stats_seen = 0
        self._closed = False
        self._aborting = False
        self.workers = []
        try:
            for i in range(p):
                env = _Env(self.jobs, self.replies, self.outstanding, self.idle, self.fail,
                           SortStats())
                w = fork.Process(target=_worker_main, args=(executor, ctx, env, i), daemon=True)
                w.start()
                self.workers.append(w)
        except BaseException:
            # a failed fork must not leave the workers already started running
            self._aborting = True
            self.shutdown()
            raise

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

    def _wait(self, done) -> list:
        """Read replies until done(phase payloads so far) holds; return those payloads.

        Collects the workers' stats, raises WorkerFailure on a worker's
        error, and every POLL_S without a reply checks the workers' exit
        codes: workers exit only after the pool closes, so before that an
        exited worker has died and its job will never finish.
        """
        phases = []
        while not done(phases):
            try:
                msg = self.replies.get(timeout=POLL_S)
            except queue_mod.Empty:
                for i, w in enumerate(self.workers):
                    if w.exitcode is not None and not self._closed:
                        raise WorkerFailure(f"worker {i} died with exit code {w.exitcode}")
                continue
            if msg[0] == "error":
                raise WorkerFailure(f"worker {msg[1]} failed:\n{msg[2]}")
            if msg[0] == "phase":
                phases.append(msg[1])
            elif msg[0] == "stats":
                self.stats.add(SortStats.from_dict(msg[2]))
                self._stats_seen += 1
        return phases

    def wait_phase(self, count: int, collect=None) -> list:
        """Wait for `count` phase replies, returning their payloads."""
        out = self._wait(lambda phases: len(phases) >= count)
        if collect is not None:
            for part in out:
                collect(part)
        return out

    def wait_idle(self) -> None:
        """Block until all submitted jobs (and their descendants) finished."""
        # a failing worker sets `fail` before its job leaves the counter, so
        # its diagnostic is awaited even when the counter already reads zero
        self._wait(lambda _: not (self.fail.is_set() or self.outstanding.value))

    def shutdown(self) -> None:
        """Send each worker a sentinel and collect their stats; when aborting,
        terminate them at once instead."""
        if self._closed:
            return
        self._closed = True
        try:
            if not self._aborting:
                for _ in self.workers:
                    self.jobs.put(None)  # not submitted: no job to count or trace
                deadline = time.monotonic() + SHUTDOWN_S
                # a worker that died abnormally never sends its stats
                self._wait(lambda _: time.monotonic() >= deadline
                           or self._stats_seen >= sum(w.exitcode in (None, 0) for w in self.workers))
                for w in self.workers:
                    w.join(timeout=SHUTDOWN_S)
        finally:
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


def make_share_hook(env: _Env):
    """Donate the largest pending stack entries when workers sit idle.

    The donated entries go to the queue as one ("batch", entries) job, so
    a sorter's batch function takes its own stack entries.  One donation
    per trigger counts as one share event.
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
        env.enqueue(("batch", donated))
        env.record_share()

    return share


def feed_batches(pool: WorkPool, rows: np.ndarray) -> None:
    """Submit the (m, 3) rows as at most 2p batch jobs, then wait until the pool idles."""
    if len(rows):
        for chunk in np.array_split(rows, min(len(rows), 2 * pool.p)):
            pool.submit(("batch", chunk))
    pool.wait_idle()


# ---------------------------------------------------------------------------
# phased distribution engine: classify on the pool -> distribute on the coordinator


@dataclass
class _Phased:
    """State of one phased sorter, shared with its forked workers."""

    sset: StringSet
    cur: np.ndarray  # handles; every step and batch leaves its range here
    oracle: np.ndarray  # uint16 bucket of every position: classify jobs write, distribute reads
    buckets: object  # (shared, lo, hi, arg) -> (bucket per string of cur[lo:hi], summary)
    batch: object  # (shared, rows, env): sort (lo, hi, depth) rows of cur
    s5: S5Context | None = None
    cache: np.ndarray | None = None  # pmkqs: each position's word at its range's depth

    @classmethod
    def create(cls, sset: StringSet, buckets, batch) -> "_Phased":
        cur = shared_array(len(sset), np.int64)
        cur[:] = sset.handles
        return cls(sset, cur, shared_array(len(sset), np.uint16), buckets, batch)


def _phased_executor(sh: _Phased, job, env: _Env) -> None:
    kind = job[0]
    if kind == "batch":
        sh.batch(sh, job[1], env)
    elif kind == "classify":
        _, lo, hi, arg = job
        buckets, summary = sh.buckets(sh, lo, hi, arg)
        sh.oracle[lo:hi] = buckets
        env.replies.put(("phase", (lo, summary)))
    else:
        raise ValueError(f"unknown phased job kind: {kind}")


def phased_step(pool: WorkPool, sh: _Phased, lo: int, hi: int, k: int, arg):
    """Stably distribute cur[lo:hi] into k buckets, classified on the pool's p shards.

    `arg` goes to the bucket function.  Returns (bounds, summaries): bucket
    b then occupies cur[lo + bounds[b]:lo + bounds[b + 1]], and summaries
    holds the bucket function's second result per shard, in shard order.
    """
    cuts = np.linspace(lo, hi, pool.p + 1).astype(np.int64)
    shards = [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]
    for slo, shi in shards:
        pool.submit(("classify", slo, shi, arg))
    parts = sorted(pool.wait_phase(len(shards)), key=lambda part: part[0])
    extra = () if sh.cache is None else (sh.cache[lo:hi],)
    bounds = distribute(sh.cur[lo:hi], sh.oracle[lo:hi], k, *extra)
    return bounds, [part[1] for part in parts]


def phased_sort(pool: WorkPool, roots, step) -> None:
    """Sort the (lo, hi, depth) roots of cur: phased steps on subproblems
    of at least total/p strings, then the smaller ones as batch jobs.

    step(lo, hi, depth) runs one phased step, settles its finished buckets
    and returns the others as (m, 3) rows.
    """
    roots = np.asarray(roots, dtype=np.int64).reshape(-1, 3)
    threshold = max(-(-int((roots[:, 1] - roots[:, 0]).sum()) // pool.p), basecase.LEAF_THRESHOLD)
    pending, small = [roots], []
    while pending:
        rows = pending.pop()
        big = rows[:, 1] - rows[:, 0] >= threshold
        small.append(rows[~big])
        pending += [step(*row) for row in rows[big].tolist()]
    feed_batches(pool, np.concatenate(small))


# ---------------------------------------------------------------------------
# parallel super scalar string sample sort


def _s5_buckets(sh: _Phased, lo: int, hi: int, arg):
    depth, tree = arg
    keys = extract_keys(sh.sset, sh.cur[lo:hi], depth)
    oracle = classify_keys(keys, tree)
    if sh.s5.lcps is None:
        return oracle, None
    return oracle, bucket_word_range(oracle, keys, tree.num_buckets)


def _s5_batch(sh: _Phased, rows, env: _Env) -> None:
    ctx = dataclasses.replace(sh.s5, stats=env.stats)
    s5_sort_items(ctx, rows, share=make_share_hook(env))


def _s5_shared(sset: StringSet, want_lcps: bool, seed: int) -> _Phased:
    n = len(sset)
    sh = _Phased.create(sset, _s5_buckets, _s5_batch)
    lcps = None
    if want_lcps:
        lcps = shared_array(n, np.int64)
        lcps.fill(LCP_UNDEF)
    sh.s5 = S5Context(sset, sh.cur, shared_array(n, np.uint64), lcps, SortStats(), seed, "unroll")
    return sh


def _s5_step(pool: WorkPool, sh: _Phased, lo: int, hi: int, depth: int) -> np.ndarray:
    """One phased sample-sort step; returns the buckets left to sort as (m, 3) rows."""
    ctx = sh.s5
    tree = step_tree(ctx, lo, hi, depth, pool.stats)  # charges the classify jobs' keys too
    # classify jobs pickle only what classify_keys(..., "unroll") reads
    search = dataclasses.replace(
        tree, node_to_inorder=None, slcp=None, eq_final=None, eq_leftmost=None, term_pos=None
    )
    bounds, ranges = phased_step(pool, sh, lo, hi, tree.num_buckets, (depth, search))
    if ctx.lcps is not None:
        mins = np.min([r[0] for r in ranges], axis=0)
        maxs = np.max([r[1] for r in ranges], axis=0)
        write_boundary_lcps(ctx.lcps, lo, depth, bounds, mins, maxs)
    return finish_buckets(ctx, tree, bounds, lo, depth)


def parallel_s5(
    sset: StringSet,
    p: int | None = None,
    want_lcps: bool = False,
    seed: int = 1,
    stats: SortStats | None = None,
) -> StringSet | SortedWithLcp:
    """Sample sort on p workers; content order matches the sequential sorter."""
    p = default_workers() if p is None else max(1, p)
    sh = _s5_shared(sset, want_lcps, seed)
    with WorkPool(p, _phased_executor, sh) as pool:
        phased_sort(pool, [(0, len(sset), 0)], lambda *item: _s5_step(pool, sh, *item))
    if stats is not None:
        stats.add(pool.stats)
    out = sset.with_handles(sh.cur.copy())
    if not want_lcps:
        return out
    return SortedWithLcp(out, sh.s5.lcps.copy(), pool.stats)  # entry 0 is never written


# ---------------------------------------------------------------------------
# parallel radix sort


def _radix_buckets(sh: _Phased, lo: int, hi: int, arg):
    depth, width = arg
    return step_digits(sh.sset, sh.cur, lo, hi, depth, width), None


def _radix_batch(sh: _Phased, rows, env: _Env) -> None:
    """radix16_adaptive's loop over the (lo, hi, depth) rows: an (m, 3)
    array from the coordinator or the stack items a worker donated."""
    radix8_items(sh.sset, sh.cur, rows, make_share_hook(env), wide=True)


def parallel_radix(
    sset: StringSet,
    p: int | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """MSD radix sort whose large steps read their digits on the pool.

    Large subproblems run phased 16- or 8-bit steps: classify jobs read
    the digits on the pool and the coordinator distributes the strings by
    them.  Smaller ones flow into the queue as batch jobs of
    radix16_adaptive's in-place loop, radix8_items with wide=True, with
    voluntary sharing.  bucket_spans decides which buckets recurse.  Every step is stable, so
    the handles equal radix16_adaptive's.  A range whose first and last
    strings share the step's digit first lets skip_shared move it past its
    shared prefix or finish equal strings, so no step has one bucket.
    """
    p = default_workers() if p is None else max(1, p)
    if len(sset) == 0:
        return sset.with_handles(sset.handles.copy())
    sh = _Phased.create(sset, _radix_buckets, _radix_batch)

    def step(lo: int, hi: int, depth: int) -> np.ndarray:
        width = digit_width(hi - lo)
        first, last = step_digits(sset, sh.cur[[lo, hi - 1]], 0, 2, depth, width)
        if first == last and (depth := skip_shared(sset, sh.cur[lo:hi], depth)) is None:
            return np.empty((0, 3), dtype=np.int64)  # equal strings, in input order
        bounds, _ = phased_step(pool, sh, lo, hi, 1 << width, (depth, width))
        starts, ends, recurse = bucket_spans(bounds, lo)
        return range_rows(starts[recurse], ends[recurse], depth + width // 8)

    with WorkPool(p, _phased_executor, sh) as pool:
        phased_sort(pool, [(0, len(sset), 0)], step)
    if stats is not None:
        stats.add(pool.stats)
    return sset.with_handles(sh.cur.copy())


# ---------------------------------------------------------------------------
# parallel caching multikey quicksort


def _mkqs_buckets(sh: _Phased, lo: int, hi: int, arg):
    keys = sh.cache[lo:hi]
    pv = np.uint64(arg)
    return (keys >= pv).astype(np.uint16) + (keys > pv), None  # 0 less, 1 equal, 2 greater


def _mkqs_batch(sh: _Phased, rows, env: _Env) -> None:
    """Caching mkqs of the (lo, hi, depth) rows, whose words the steps left
    in the cache: an (m, 3) array from the coordinator or the stack items a
    worker donated."""
    mkqs_cached_items(sh.sset, sh.cur, sh.cache, rows, None, env.stats, make_share_hook(env))


def parallel_mkqs(
    sset: StringSet,
    p: int | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """Caching multikey quicksort whose large ternary steps classify on the pool.

    Every string's word at the current depth rides along with its handle:
    the coordinator fetches the words once; a phased step's classify jobs
    put each string into the less, equal or greater bucket of the
    median-of-3 pivot word, and the coordinator's distribute moves the
    words with the handles.  The equal bucket is settled when the pivot
    word holds the terminator and otherwise recurses a word deeper, after
    the coordinator fetches its next words.  Smaller subproblems run as
    batched caching-mkqs jobs with voluntary sharing.  Handles and word
    fetches match mkqs_cached.
    """
    p = default_workers() if p is None else max(1, p)
    n = len(sset)
    sh = _Phased.create(sset, _mkqs_buckets, _mkqs_batch)
    sh.cache = shared_array(n, np.uint64)
    sh.cache[:] = extract_keys(sset, sset.handles, 0)

    def step(lo: int, hi: int, depth: int) -> np.ndarray:
        words = sh.cache
        pivot = _median3(words[lo], words[lo + (hi - lo) // 2], words[hi - 1])
        bounds, _ = phased_step(pool, sh, lo, hi, 3, pivot)
        equal_done = first_zero_byte(np.uint64(pivot)) < WORD_CHARS  # equal strings end within the word
        children = []
        for b in np.flatnonzero(np.diff(bounds)):
            clo, chi = lo + int(bounds[b]), lo + int(bounds[b + 1])
            if chi - clo > 1 and not (b == 1 and equal_done):
                child_depth = depth
                if b == 1:
                    child_depth += WORD_CHARS
                    words[clo:chi] = extract_keys(sset, sh.cur[clo:chi], child_depth)
                    pool.stats.word_fetches += chi - clo
                children.append((clo, chi, child_depth))
        return np.array(children, dtype=np.int64).reshape(-1, 3)

    with WorkPool(p, _phased_executor, sh) as pool:
        pool.stats.word_fetches += n
        phased_sort(pool, [(0, n, 0)], step)
    if stats is not None:
        stats.add(pool.stats)
    return sset.with_handles(sh.cur.copy())


# ---------------------------------------------------------------------------
# partitioned top-level sort: part sorts, then K-way LCP merge, on one pool


@dataclass
class _MergeShared:
    runs: LcpRuns
    out_h: np.ndarray
    out_l: np.ndarray


def _merge_executor(shared: _MergeShared, job, env: _Env) -> None:
    """Run one merge job; when a poll finds a worker idle, the job stops at
    a group boundary and its rest, already split to the end, goes back to
    the queue as new jobs."""
    _, mjob, offset = job
    size = mjob.size
    out_h = shared.out_h[offset : offset + size]
    out_l = shared.out_l[offset : offset + size]

    def poll(emitted: int) -> bool:
        return env.idle_workers() > 0

    emitted, rest = run_merge_job(shared.runs, mjob, env.stats, out_h, out_l, poll)
    if rest is not None:
        pos = offset + emitted
        for sub in pack_merge_jobs(rest, max(2, env.idle_workers() + 1)):
            env.enqueue(("merge", sub, pos))
            pos += sub.size
        env.record_share()


def _pmerge_executor(ctx, job, env: _Env) -> None:
    """Merge jobs go to the merge state, the part sorts' jobs to the S5 state."""
    phased, merge = ctx
    if job[0] == "merge":
        _merge_executor(merge, job, env)
    else:
        _phased_executor(phased, job, env)


def partitioned_merge_sort(
    sset: StringSet,
    K: int = 4,
    p: int | None = None,
    want_lcps: bool = False,
    seed: int = 1,
    stats: SortStats | None = None,
) -> StringSet | SortedWithLcp:
    """Sort K byte-balanced parts, then merge them with LCPs, on one pool.

    The parts are the roots of one parallel sample sort that records LCPs:
    a part of at least n/p strings takes phased steps on all p workers and
    smaller parts run as batch jobs.  Each part ends sorted in its range of
    cur, with its LCPs in the same range of the S5 LCP array, so one
    LcpRuns over those two arrays and the part bounds holds the merge's
    runs.  The coordinator then splits them into about 8p jobs with
    split_merge_jobs (sampled splitters, each found in every part by
    binary search: O(K * p * log n) string reads and no word fetch) and
    merges them on the same pool.  Each merge job splits its strings from
    their splitters' LCP on until each group comes from one part or holds
    equal strings, and copies them; when workers go idle, it hands the
    groups it has not written back to the queue as new jobs.  A job's
    first block holds its LCP to the string before it, so every LCP of the
    output is written by its job.
    """
    p = default_workers() if p is None else max(1, p)
    n = len(sset)
    if n == 0 or K <= 1:
        return parallel_s5(sset, p, want_lcps=want_lcps, seed=seed, stats=stats)
    # split characters into K contiguous, byte-balanced parts (whole strings)
    lens = sset.ends() - sset.handles + 1
    cum = np.cumsum(lens)
    total = int(cum[-1])
    cuts = np.concatenate(([0], np.searchsorted(cum, total * np.arange(1, K) / K), [n]))
    # everything the merge jobs read is allocated before the pool forks
    sh = _s5_shared(sset, True, seed)
    runs = LcpRuns(sset, sh.cur, sh.s5.lcps, cuts)
    merge = _MergeShared(runs, shared_array(n, np.int64), shared_array(n, np.int64))
    with WorkPool(p, _pmerge_executor, (sh, merge)) as pool:
        roots = [(lo, hi, 0) for lo, hi in zip(cuts.tolist(), cuts[1:].tolist()) if lo < hi]
        phased_sort(pool, roots, lambda *item: _s5_step(pool, sh, *item))
        offset = 0
        for job in split_merge_jobs(runs, 8 * p):
            pool.submit(("merge", job, offset))
            offset += job.size
        pool.wait_idle()
    merge.out_l[:1] = LCP_UNDEF
    if stats is not None:
        stats.add(pool.stats)
    out = sset.with_handles(merge.out_h.copy())
    if not want_lcps:
        return out
    return SortedWithLcp(out, merge.out_l.copy(), pool.stats)
