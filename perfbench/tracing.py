"""Layer timing for strsort, patched in from outside the library.

A Tracer replaces each traced function, in every strsort module that binds
it, by a wrapper that times the call; ``stop()`` puts the originals back.
Spans are not stored.  Each wrapper adds its call count, total time, self
time (total minus the traced calls it made) and an item count to per-name
accumulators, so per-string calls such as ``_BlockReader``'s one-handle
``extract_keys`` stay cheap.  Every thread keeps its own span stack, because
``pmergesort`` coordinates its part sorts from threads.

Pool workers are forked while the patches are in place, so they run the
wrappers too.  A fork hook clears the state a child inherits, the wrapped
job executor appends the child's accumulators to a file in the trace
directory after every job, and ``stop()`` merges those files.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from multiprocessing.reduction import ForkingPickler

import strsort.bench  # noqa: F401  (imports every strsort module)
from strsort import basecase, lcpmerge, mkqs, parallel, radix, ssss, strset

def _handle_count(args) -> int:
    return len(args[1])


def _range_size(args) -> int:
    return args[4] - args[3]


# (module, function, items of one call); the span is named module.function
TRACED_FUNCTIONS = (
    (strset, "extract_keys", _handle_count),
    (basecase, "lcp_insertion_core", _handle_count),
    (mkqs, "_cached_insertion", _range_size),  # mkqs's copy of the LCP insertion sort
    (mkqs, "mkqs", None),
    (mkqs, "mkqs_range", None),
    (mkqs, "mkqs_cached", None),
    (mkqs, "mkqs_cached_range", None),
    (mkqs, "mkqs_cached_items", None),
    (radix, "radix8_inplace", None),
    (radix, "radix8_range", None),
    (radix, "radix8_items", None),
    (radix, "radix16_adaptive", None),
    (radix, "_digits8", None),  # pradix's phased steps call these two
    (radix, "_digits16", None),
    (ssss, "draw_sample", None),
    (ssss, "select_splitters", None),
    (ssss, "classify_keys", None),
    (ssss, "s5_step", None),
    (ssss, "s5_sort_items", None),
    (ssss, "s5_sort", None),
    (lcpmerge, "split_merge_jobs", None),
    (lcpmerge, "run_merge_job", None),
    (parallel, "parallel_s5", None),
    (parallel, "parallel_radix", None),
    (parallel, "parallel_mkqs", None),
    (parallel, "partitioned_merge_sort", None),
)

_ZERO = (0, 0.0, 0.0, 0)  # calls, total_s, self_s, items


def _binding_sites(fn) -> list:
    """Every (strsort module, attribute) that holds `fn`."""
    return [
        (mod, name)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "strsort" or mod_name.startswith("strsort.")
        for name, value in vars(mod).items()
        if value is fn
    ]


class Tracer:
    """Patches strsort's layers while active and accumulates their spans."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._acc: dict[str, list] = {}
        self._pools: dict[int, tuple[float, int]] = {}
        self._patches = []  # (owner, attribute, original, wrapper)
        for mod, name, count in TRACED_FUNCTIONS:
            fn = getattr(mod, name)
            wrapper = self._timed(fn, f"{mod.__name__.rsplit('.', 1)[1]}.{name}", count)
            self._patches += [(owner, attr, fn, wrapper) for owner, attr in _binding_sites(fn)]
        pool, env = parallel.WorkPool, parallel._Env
        for owner, attr, make in (
            (pool, "__init__", self._wrap_pool_init),
            (pool, "wait_phase", self._wrap_wait_phase),
            (pool, "wait_idle", lambda f: self._timed(f, "parallel.WorkPool.wait_idle")),
            (pool, "shutdown", self._wrap_shutdown),
            (pool, "submit", self._wrap_sender),
            (env, "enqueue", self._wrap_sender),
        ):
            fn = vars(owner)[attr]
            self._patches.append((owner, attr, fn, make(fn)))
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- patching -----------------------------------------------------------

    def start(self) -> None:
        self.check_unpatched()
        self._acc = {}
        self._pools = {}
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def stop(self) -> dict[str, tuple]:
        """Restore the originals; return name -> (calls, total_s, self_s, items)."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False
        for entry in os.listdir(self.trace_dir):
            path = os.path.join(self.trace_dir, entry)
            with open(path) as f:
                for line in f:
                    try:
                        self._merge(json.loads(line))
                    except ValueError:
                        continue  # a worker killed mid-write
            os.remove(path)
        return {name: tuple(rec) for name, rec in self._acc.items()}

    def check_unpatched(self) -> None:
        """Raise unless every traced site holds its original object."""
        for owner, attr, original, _ in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is still patched")

    # -- spans --------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span called `name`."""
        return self._span(name, fn, args, kwargs, None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, args, kwargs, count):
        stack = self._stack()
        frame = [0.0]  # time spent in traced callees
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += total
            self._add(name, 1, total, total - frame[0], count(args) if count else 0)

    def _timed(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, count)

        traced.__wrapped__ = fn
        return traced

    def _add(self, name, calls, total, self_s, items) -> None:
        with self._lock:
            rec = self._acc.get(name)
            if rec is None:
                rec = self._acc[name] = [0, 0.0, 0.0, 0]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
            rec[3] += items

    def _merge(self, acc: dict) -> None:
        for name, (calls, total, self_s, items) in acc.items():
            self._add(name, calls, total, self_s, items)

    def _untimed(self, fn):
        """Run harness bookkeeping outside every layer's self time."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            spent = time.perf_counter() - t0
            stack = self._stack()
            if stack:
                stack[-1][0] += spent

    def _count_bytes(self, obj) -> None:
        size = self._untimed(lambda: len(ForkingPickler.dumps(obj)))
        self._add("parallel.queue_bytes", 1, 0.0, 0.0, size)

    # -- pool hooks ---------------------------------------------------------

    def _wrap_pool_init(self, init):
        def __init__(pool, p, executor, ctx):
            self._pools[id(pool)] = (time.perf_counter(), p)
            init(pool, p, self._traced_executor(executor), ctx)

        return self._timed(__init__, "parallel.WorkPool.__init__")

    def _wrap_wait_phase(self, wait_phase):
        timed = self._timed(wait_phase, "parallel.WorkPool.wait_phase")

        def traced(pool, count, collect=None):
            out = timed(pool, count, collect)
            self._count_bytes(out)  # the phase replies the workers sent
            return out

        return traced

    def _wrap_shutdown(self, shutdown):
        def traced(pool):
            try:
                return shutdown(pool)
            finally:
                born = self._pools.pop(id(pool), None)
                if born is not None:
                    life = time.perf_counter() - born[0]
                    self._add("parallel.pool_capacity", 1, life * born[1], 0.0, 0)

        return self._timed(traced, "parallel.WorkPool.shutdown")

    def _wrap_sender(self, send):
        def traced(owner, job):
            self._count_bytes(job)
            return send(owner, job)

        return traced

    def _traced_executor(self, executor):
        def run_job(ctx, job, env):
            try:
                self._span(f"job.{job[0]}", executor, (ctx, job, env), {}, None)
            finally:
                self._flush_to_file()

        return run_job

    def _after_fork_in_child(self) -> None:
        if self.active:
            self._lock = threading.Lock()
            self._local = threading.local()
            self._acc = {}
            self._pools = {}

    def _flush_to_file(self) -> None:
        with self._lock:
            acc, self._acc = self._acc, {}
        if acc:
            path = os.path.join(self.trace_dir, f"{os.getpid()}.jsonl")
            with open(path, "a") as f:
                f.write(json.dumps(acc) + "\n")


def total(acc: dict, *names: str) -> float:
    return sum(acc.get(n, _ZERO)[1] for n in names)


def self_time(acc: dict, *names: str) -> float:
    return sum(acc.get(n, _ZERO)[2] for n in names)


def calls(acc: dict, *names: str) -> int:
    return sum(acc.get(n, _ZERO)[0] for n in names)


def items(acc: dict, *names: str) -> int:
    return sum(acc.get(n, _ZERO)[3] for n in names)
