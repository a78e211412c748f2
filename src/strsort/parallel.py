"""Process-based work pool with voluntary work sharing, and parallel sorters.

A pool has p participants: the coordinator and p - 1 forked workers.  The
workers share the character buffer (copy-on-write) and the handle/scratch
arrays (anonymous shared memory), so jobs write directly into disjoint
ranges of the final arrays, whoever runs them.  Scheduling follows one
idea: a central queue holds coarse jobs, participants keep recursion on
local stacks, and an unsynchronized idle counter tells busy participants
when to donate their largest pending subproblems back to the queue.  The
coordinator submits jobs and, while it waits for them, runs queued jobs
itself and counts itself idle when it finds none.  Nothing polls for
progress: the coordinator sleeps until a reply or a job arrives, the worker
that finishes the last outstanding job sends a "quiet" reply, and shutdown
puts one None sentinel per worker on the job queue.

Parallel sample sort, radix sort and caching multikey quicksort run the
sequential sorters' own steps on one phased distribution engine; this
module holds no step.  A step's classify is phased_step, which cuts
cur[lo:hi] into p shards.  Each shard's classify job computes one bucket
per string with the sorter module's bucket function (classified word keys,
radix digits, or the word's side of a pivot word), stores it in a shared
uint16 oracle and replies.  That is the step's one pool round trip: the
coordinator then stably sorts cur[lo:hi] by the oracle with
basecase.distribute and moves pmkqs's cached words with their handles; a
step whose strings all land in one bucket moves nothing.  So every step
ends with its range in cur, and its subproblems go on as (lo, hi, depth)
rows.  The coordinator runs such steps on every subproblem of at least n/p
strings and feeds the smaller ones to the pool as batch jobs, which sort
sequentially and share when a participant idles.  Steps and batch sorts
are all stable, so equal strings keep their input order.

The partitioned merge sort runs on one pool too.  Its K byte-balanced parts
are the roots of one sample sort over the whole set, so a part of at least
n/p strings takes phased steps on all p participants and smaller parts run
as batch jobs; the K-way LCP merge then runs as merge jobs on the same
pool.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import multiprocessing as mp
import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait

import numpy as np

from . import basecase
from .basecase import SortContext, SortedWithLcp, distribute
from .counters import SortStats
from .lcpmerge import LcpRuns, pack_merge_jobs, run_merge_job, split_merge_jobs
from .mkqs import mkqs_buckets, mkqs_cached_items, mkqs_step
from .radix import RadixContext, radix8_items, radix_buckets, radix_step
from .ssss import S5Context, s5_buckets, s5_sort_items, s5_step
from .strset import LCP_UNDEF, StringSet, extract_keys

POLL_S = 0.1  # how often a wait with no reply, or a coordinator's job, checks the workers' exit codes
LOCK_WAIT_S = 0.001  # longest wait for the job queue's read lock when a job is ready
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
    """One participant's handles to the pool's shared state."""

    jobs: object
    replies: object
    outstanding: object
    idle: object
    fail: object
    stats: SortStats
    check: object = None  # the coordinator's: raises WorkerFailure once a worker died
    checked: float = 0.0  # when check last ran

    def enqueue(self, job) -> None:
        with self.outstanding.get_lock():
            self.outstanding.value += 1
        self.stats.jobs_enqueued += 1
        self.jobs.put(job)

    def idle_workers(self) -> int:
        """The idle participants; in the coordinator's job, also at most one
        check of the workers' exit codes per POLL_S, so a long job does not
        hide a dead worker."""
        if self.check is not None and time.monotonic() - self.checked >= POLL_S:
            self.checked = time.monotonic()
            self.check()
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
    """p participants around one job queue: the coordinator and p - 1 forked workers.

    Every enqueued job executes exactly once; the pool is quiescent when
    the outstanding-job counter returns to zero.  One loop, _wait, reads
    every reply, and while it waits the coordinator runs queued jobs with
    the pool's executor, shared state and stats, and counts itself idle
    when it finds none, so busy workers donate work to it.  A job that
    raises aborts the run with its traceback, naming the worker or the
    coordinator that ran it, and a worker that dies aborts it with its exit
    code.  On shutdown each worker takes one None sentinel from the job
    queue, sends its stats and exits.  With no forked worker (p = 1) the
    jobs stay in an in-process queue.
    """

    _coordinator_works = True

    def __init__(self, p: int, executor, ctx):
        fork = _fork_context()
        self.p = p
        self.executor = executor
        self.ctx = ctx
        forks = p - 1 if self._coordinator_works else p
        self.jobs = fork.Queue() if forks else queue_mod.SimpleQueue()
        self.replies = fork.Queue()
        self.outstanding = fork.Value("q", 0)
        self.idle = fork.Value("i", 0)
        self.fail = fork.Event()
        self.stats = SortStats()
        # the coordinator's own jobs reply in process and charge the pool's stats
        self._env = _Env(self.jobs, queue_mod.SimpleQueue(), self.outstanding, self.idle, self.fail,
                         self.stats, self._check_workers)
        self._stats_seen = 0
        self._closed = False
        self._aborting = False
        self.workers = []
        try:
            for i in range(forks):
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

        Collects the workers' stats and raises WorkerFailure on a job's
        error.  Until the pool closes, a working coordinator takes queued
        jobs and counts itself idle while it finds none.  It sleeps until a
        reply or a job arrives, and checks the workers' exit codes after
        every job it runs and every wait that reads no reply; a job it runs
        checks them through idle_workers().
        """
        phases = []
        working = self._coordinator_works and not self._closed
        job_reader = self.jobs._reader if working and self.workers else None
        readers = [self.replies._reader] + ([job_reader] if job_reader else [])
        contended = idle = False
        try:
            while not done(phases):
                if working:
                    job = self._take(contended)
                    if job is not None:
                        idle = self._mark_idle(idle, False)
                        self._run(job, phases)
                        self._check_workers()  # a stream of jobs must not hide a dead worker
                        continue
                    if not self.workers:
                        raise RuntimeError("the pool waits with no job queued and no worker")
                    idle = self._mark_idle(idle, True)
                ready = mp_wait(readers, POLL_S)
                # an idle worker holds the job queue's read lock while it takes a job
                contended = job_reader in ready
                if self.replies._reader in ready:
                    self._read(self.replies.get(), phases)
                else:
                    self._check_workers()
        finally:
            self._mark_idle(idle, False)
        return phases

    def _check_workers(self) -> None:
        """Workers exit only after the pool closes, so before that an exited
        worker has died and its job will never finish."""
        for i, w in enumerate(self.workers):
            if w.exitcode is not None and not self._closed:
                raise WorkerFailure(f"worker {i} died with exit code {w.exitcode}")

    def _take(self, contended: bool):
        """A queued job, or None; waits briefly for the read lock when contended."""
        try:
            return self.jobs.get(timeout=LOCK_WAIT_S) if contended else self.jobs.get_nowait()
        except queue_mod.Empty:
            return None

    def _mark_idle(self, was: bool, now: bool) -> bool:
        """Count the coordinator in `idle` when now is true; return now."""
        if now != was:
            with self.idle.get_lock():
                self.idle.value += 1 if now else -1
        return now

    def _run(self, job, phases: list) -> None:
        """Run a queued job in the coordinator."""
        try:
            self.executor(self.ctx, job, self._env)
        except WorkerFailure:
            raise  # a dead worker, found while the job polled
        except Exception:
            raise WorkerFailure(f"coordinator failed:\n{traceback.format_exc()}") from None
        self.stats.jobs_executed += 1
        with self.outstanding.get_lock():
            self.outstanding.value -= 1
        while not self._env.replies.empty():
            self._read(self._env.replies.get(), phases)

    def _read(self, msg, phases: list) -> None:
        if msg[0] == "error":
            raise WorkerFailure(f"worker {msg[1]} failed:\n{msg[2]}")
        if msg[0] == "phase":
            phases.append(msg[1])
        elif msg[0] == "stats":
            self.stats.add(SortStats.from_dict(msg[2]))
            self._stats_seen += 1

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
            if not isinstance(self.jobs, queue_mod.SimpleQueue):
                # jobs no worker took may still sit in the feeder's buffer
                self.jobs.cancel_join_thread()
                self.jobs.close()
            self.replies.close()


class _ForkedPool(WorkPool):
    """p forked workers and a coordinator that only waits, for pool_run,
    whose jobs may end the process that runs them."""

    _coordinator_works = False


def pool_run(p: int, root_jobs: list, executor, ctx) -> SortStats:
    """Run root jobs (and everything they spawn) on p forked workers to
    quiescence; return stats."""
    with _ForkedPool(p, executor, ctx) as pool:
        for job in root_jobs:
            pool.submit(job)
        pool.wait_idle()
    return pool.stats


def make_share_hook(env: _Env):
    """Donate the largest pending stack entries when participants sit idle.

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
    """Submit the (m, 3) rows as at most 2p batch jobs for the p participants,
    the coordinator and p - 1 forked workers, then run and wait for them
    until the pool idles."""
    if len(rows):
        for chunk in np.array_split(rows, min(len(rows), 2 * pool.p)):
            pool.submit(("batch", chunk))
    pool.wait_idle()


# ---------------------------------------------------------------------------
# phased distribution engine: classify on the pool -> distribute on the coordinator


@dataclass
class _Phased:
    """State of one phased sorter, shared with its forked workers."""

    ctx: SortContext  # the sorter's context over shared arrays: steps and batches sort cur
    oracle: np.ndarray  # uint16 bucket of every position: classify jobs write, distribute reads
    buckets: object  # the sorter's bucket function: (ctx, lo, hi, arg) -> (buckets, summary)
    batch: object  # (ctx, rows, share): the sorter's driver over (lo, hi, depth) rows of cur
    extra: tuple = ()  # arrays that a step moves with cur: pmkqs's cache

    @classmethod
    def create(cls, ctx: SortContext, buckets, batch, extra=()) -> "_Phased":
        return cls(ctx, shared_array(len(ctx.cur), np.uint16), buckets, batch, extra)


def _shared_copy(arr: np.ndarray) -> np.ndarray:
    out = shared_array(len(arr), arr.dtype)
    out[:] = arr
    return out


def _phased_executor(sh: _Phased, job, env: _Env) -> None:
    kind = job[0]
    if kind == "batch":
        sh.batch(dataclasses.replace(sh.ctx, stats=env.stats), job[1], make_share_hook(env))
    elif kind == "classify":
        _, lo, hi, arg = job
        buckets, summary = sh.buckets(sh.ctx, lo, hi, arg)
        sh.oracle[lo:hi] = buckets
        env.replies.put(("phase", (lo, summary)))
    else:
        raise ValueError(f"unknown phased job kind: {kind}")


def phased_step(pool: WorkPool, sh: _Phased, lo: int, hi: int, k: int, arg):
    """Stably distribute cur[lo:hi] into k buckets, classified on the pool's p shards.

    `arg` goes to the bucket function.  Returns (bounds, summaries): bucket
    b then occupies cur[lo + bounds[b]:lo + bounds[b + 1]], and summaries
    holds the bucket function's second result per shard, in shard order.
    Bound to a pool and a sorter, this is the classify of the sorter's step.
    """
    cuts = np.linspace(lo, hi, pool.p + 1).astype(np.int64)
    shards = [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]
    for slo, shi in shards:
        pool.submit(("classify", slo, shi, arg))
    parts = sorted(pool.wait_phase(len(shards)), key=lambda part: part[0])
    bounds = distribute(sh.ctx.cur[lo:hi], sh.oracle[lo:hi], k, *(a[lo:hi] for a in sh.extra))
    return bounds, [part[1] for part in parts]


def phased_sort(pool: WorkPool, sh: _Phased, step, roots) -> None:
    """Sort the (lo, hi, depth) roots of cur on the pool's p participants,
    the coordinator and p - 1 forked workers: the sorter module's
    step(ctx, lo, hi, depth, classify), with phased_step as classify and
    the pool's stats, on subproblems of at least total/p strings, then the
    smaller ones as batch jobs."""
    ctx = dataclasses.replace(sh.ctx, stats=pool.stats)
    classify = functools.partial(phased_step, pool, sh)
    roots = np.asarray(roots, dtype=np.int64).reshape(-1, 3)
    threshold = max(-(-int((roots[:, 1] - roots[:, 0]).sum()) // pool.p), basecase.LEAF_THRESHOLD)
    pending, small = [roots], []
    while pending:
        rows = pending.pop()
        big = rows[:, 1] - rows[:, 0] >= threshold
        small.append(rows[~big])
        pending += [
            np.asarray(step(ctx, *row, classify), dtype=np.int64).reshape(-1, 3)
            for row in rows[big].tolist()
        ]
    feed_batches(pool, np.concatenate(small))


# ---------------------------------------------------------------------------
# the parallel sorters: each module's step and bucket function, on shared arrays


def _s5_shared(sset: StringSet, want_lcps: bool, seed: int) -> _Phased:
    n = len(sset)
    lcps = None
    if want_lcps:
        lcps = shared_array(n, np.int64)
        lcps.fill(LCP_UNDEF)
    cur, cache = _shared_copy(sset.handles), shared_array(n, np.uint64)
    return _Phased.create(S5Context(sset, cur, cache, lcps, SortStats(), seed), s5_buckets, s5_sort_items)


def parallel_s5(
    sset: StringSet,
    p: int | None = None,
    want_lcps: bool = False,
    seed: int = 1,
    stats: SortStats | None = None,
) -> StringSet | SortedWithLcp:
    """Sample sort on p participants, the coordinator and p - 1 forked
    workers; content order matches the sequential sorter."""
    p = default_workers() if p is None else max(1, p)
    sh = _s5_shared(sset, want_lcps, seed)
    with WorkPool(p, _phased_executor, sh) as pool:
        phased_sort(pool, sh, s5_step, [(0, len(sset), 0)])
    if stats is not None:
        stats.add(pool.stats)
    out = sset.with_handles(sh.ctx.cur.copy())
    if not want_lcps:
        return out
    return SortedWithLcp(out, sh.ctx.lcps.copy(), pool.stats)  # entry 0 is never written


def _radix_batch(ctx: RadixContext, rows, share) -> None:
    """radix16_adaptive's loop over (lo, hi, depth) rows."""
    radix8_items(ctx.sset, ctx.cur, rows, share, wide=True)


def _radix_shared(sset: StringSet) -> _Phased:
    return _Phased.create(RadixContext(sset, _shared_copy(sset.handles), wide=True), radix_buckets, _radix_batch)


def parallel_radix(
    sset: StringSet,
    p: int | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """MSD radix sort whose large 16- or 8-bit steps read their digits on
    the pool.  Smaller subproblems run as batch jobs of radix16_adaptive's
    loop with voluntary sharing.  Every step is stable, so the handles
    equal radix16_adaptive's."""
    p = default_workers() if p is None else max(1, p)
    sh = _radix_shared(sset)
    with WorkPool(p, _phased_executor, sh) as pool:
        phased_sort(pool, sh, radix_step, [(0, len(sset), 0)])
    if stats is not None:
        stats.add(pool.stats)
    return sset.with_handles(sh.ctx.cur.copy())


def _mkqs_batch(ctx: SortContext, rows, share) -> None:
    """Caching mkqs of (lo, hi, depth) rows on the words the steps left in the cache."""
    mkqs_cached_items(ctx.sset, ctx.cur, ctx.cache, rows, ctx.lcps, ctx.stats, share)


def _mkqs_shared(sset: StringSet) -> _Phased:
    """Each string's word at depth 0 rides along with its handle."""
    cache = _shared_copy(extract_keys(sset, sset.handles, 0))
    ctx = SortContext(sset, _shared_copy(sset.handles), cache)
    return _Phased.create(ctx, mkqs_buckets, _mkqs_batch, (cache,))


def parallel_mkqs(
    sset: StringSet,
    p: int | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """Caching multikey quicksort whose large ternary steps classify on the pool.

    Each string's word at its range's depth rides along with its handle,
    so handles and word fetches match mkqs_cached.  Smaller subproblems run
    as batched caching-mkqs jobs with voluntary sharing.
    """
    p = default_workers() if p is None else max(1, p)
    n = len(sset)
    sh = _mkqs_shared(sset)
    with WorkPool(p, _phased_executor, sh) as pool:
        pool.stats.word_fetches += n
        phased_sort(pool, sh, mkqs_step, [(0, n, 0)])
    if stats is not None:
        stats.add(pool.stats)
    return sset.with_handles(sh.ctx.cur.copy())


# ---------------------------------------------------------------------------
# partitioned top-level sort: part sorts, then K-way LCP merge, on one pool


@dataclass
class _MergeShared:
    runs: LcpRuns
    out_h: np.ndarray
    out_l: np.ndarray


def _merge_executor(shared: _MergeShared, job, env: _Env) -> None:
    """Run one merge job; when a poll finds a participant idle, the job stops
    at a group boundary and its rest, already split to the end, goes back
    to the queue as new jobs."""
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

    The pool has p participants, the coordinator and p - 1 forked workers.
    The parts are the roots of one parallel sample sort that records LCPs:
    a part of at least n/p strings takes phased steps on all of them and
    smaller parts run as batch jobs.  Each part ends sorted in its range of
    cur, with its LCPs in the same range of the S5 LCP array, so one
    LcpRuns over those two arrays and the part bounds holds the merge's
    runs.  The coordinator then splits them into about 8p jobs with
    split_merge_jobs (sampled splitters, each found in every part by
    binary search: O(K * p * log n) string reads and no word fetch) and
    merges them on the same pool.  Each merge job splits its strings from
    their splitters' LCP on until each group comes from one part or holds
    equal strings, and copies them; when participants go idle, it hands the
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
    runs = LcpRuns(sset, sh.ctx.cur, sh.ctx.lcps, cuts)
    merge = _MergeShared(runs, shared_array(n, np.int64), shared_array(n, np.int64))
    with WorkPool(p, _pmerge_executor, (sh, merge)) as pool:
        roots = [(lo, hi, 0) for lo, hi in zip(cuts.tolist(), cuts[1:].tolist()) if lo < hi]
        phased_sort(pool, sh, s5_step, roots)
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
