"""Closed-loop timing of strsort's sorters on one corpus, plus the traced run.

One caller sorts one corpus at a time from this process.  Each sort calls the
public registry entry ``strsort.bench.ALGORITHMS[id](sset, threads, seed,
stats)`` on a fresh handle array, so pool start-up is timed as the CLI times
it.  Every output is checked against ``corpora.Reference`` outside the timed
region.  A sort fails when it raises, misses its deadline or returns wrong
output; after a failure every child process left behind is reaped.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing as mp
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from strsort.bench import ALGORITHMS
from strsort.counters import SortStats

import corpora
import tracing

WORKERS = 2
# (short name, registry id, workers); the end-to-end metric is <short name>_s
SORTERS = (
    ("s5", "s5-unroll", 1),
    ("radix16", "radix16", 1),
    ("ps5", "ps5", WORKERS),
    ("pradix", "pradix", WORKERS),
    ("pmkqs", "pmkqs", WORKERS),
    ("pmergesort", "pmergesort", WORKERS),
)
BUILTIN = "builtin"
DEADLINE_S = 60.0  # one sort; the slowest, s5 on suffix traced, takes about 6 s
OVERRUN_S = 90.0  # after --seconds plus this, no new sort starts
TURN_S = 0.5  # a sorter repeats within its turn until this has passed
SETUP_PROBES = 10
TRIM = 0.1  # share of samples dropped at each end before an end-to-end time is averaged

END_TO_END = (
    ("setup_s", "s"),
    *((f"{name}_s", "s") for name in (BUILTIN, *(s[0] for s in SORTERS))),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
)

_STRSET = ("strset.keys", "strset.extract_keys_calls", "strset.extract_keys_s")
_BASECASE = ("basecase.strings", "basecase.s")
_SSSS = ("ssss.sample_s", "ssss.classify_s", "ssss.driver_s")
_PARALLEL = (
    "parallel.coord_s", "parallel.pools", "parallel.pool_start_s", "parallel.phase_wait_s",
    "parallel.idle_wait_s", "parallel.shutdown_s", "parallel.busy_s", "parallel.busy_frac",
    "parallel.queue_bytes", "parallel.leaked_procs",
)
_BENCH = ("bench.traced_wall_s", "bench.unattributed_s", "bench.trace_overhead_frac", "bench.verify_s")
# the layers each sorter enters on every workload, and the counters it increments
LAYERS = {
    "s5": _STRSET + _BASECASE + ("mkqs.self_s", "ssss.driver_s")
    + ("counters.char_cmps", "counters.word_fetches"),
    "radix16": _BASECASE + ("radix.self_s",),
    "ps5": _STRSET + _BASECASE + ("mkqs.self_s",) + _SSSS + _PARALLEL
    + ("counters.char_cmps", "counters.word_fetches", "counters.share_events"),
    "pradix": _BASECASE + ("radix.self_s",) + _PARALLEL + ("counters.share_events",),
    "pmkqs": _STRSET + _BASECASE + ("mkqs.self_s",) + _PARALLEL
    + ("counters.char_cmps", "counters.word_fetches", "counters.share_events"),
    "pmergesort": _STRSET + _BASECASE + _SSSS
    + ("lcpmerge.split_s", "lcpmerge.merge_s", "lcpmerge.jobs") + _PARALLEL
    + ("counters.char_cmps", "counters.word_fetches", "counters.merge_buffer_cmps",
       "counters.share_events"),
}


def layer_unit(quantity: str) -> str:
    if quantity.endswith("frac"):
        return "1"
    if quantity.endswith("_bytes"):
        return "B"
    if quantity.endswith("_s") or quantity == "basecase.s":
        return "s"
    return "count"


PER_LAYER = tuple(
    (f"{sorter}.{q}", layer_unit(q))
    for sorter, _, _ in SORTERS
    for q in LAYERS[sorter] + _BENCH
)


def layer_quantities(acc: dict) -> dict[str, float]:
    """Per-layer quantities of one traced sort from the tracer's accumulators."""
    t = tracing
    par = "parallel.WorkPool."
    jobs = [n for n in acc if n.startswith("job.")]
    base = ("basecase.lcp_insertion_core", "mkqs._cached_insertion")
    busy = t.total(acc, *jobs)
    capacity = t.total(acc, "parallel.pool_capacity")
    return {
        "strset.keys": t.items(acc, "strset.extract_keys"),
        "strset.extract_keys_calls": t.calls(acc, "strset.extract_keys"),
        "strset.extract_keys_s": t.self_time(acc, "strset.extract_keys"),
        "basecase.strings": t.items(acc, *base),
        "basecase.s": t.self_time(acc, *base),
        "mkqs.self_s": t.self_time(acc, *(n for n in acc if n.startswith("mkqs.") and n not in base)),
        "radix.self_s": t.self_time(acc, *(n for n in acc if n.startswith("radix."))),
        "ssss.sample_s": t.self_time(acc, "ssss.draw_sample", "ssss.select_splitters"),
        "ssss.classify_s": t.self_time(acc, "ssss.classify_keys"),
        "ssss.driver_s": t.self_time(acc, "ssss.s5_sort_items", "ssss.s5_sort", "ssss.s5_step"),
        "lcpmerge.split_s": t.self_time(acc, "lcpmerge.split_merge_jobs"),
        "lcpmerge.merge_s": t.self_time(acc, "lcpmerge.run_merge_job"),
        "lcpmerge.jobs": t.calls(acc, "lcpmerge.run_merge_job"),
        "parallel.coord_s": t.self_time(
            acc, "parallel.parallel_s5", "parallel.parallel_radix",
            "parallel.parallel_mkqs", "parallel.partitioned_merge_sort",
        ),
        "parallel.pools": t.calls(acc, par + "__init__"),
        "parallel.pool_start_s": t.self_time(acc, par + "__init__"),
        "parallel.phase_wait_s": t.self_time(acc, par + "wait_phase"),
        "parallel.idle_wait_s": t.self_time(acc, par + "wait_idle"),
        "parallel.shutdown_s": t.self_time(acc, par + "shutdown"),
        "parallel.busy_s": busy,
        "parallel.busy_frac": busy / capacity if capacity else 0.0,
        "parallel.queue_bytes": t.items(acc, "parallel.queue_bytes"),
        "bench.unattributed_s": t.self_time(acc, "bench.sort"),
    }


class SortDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise SortDeadline


def run_with_deadline(fn, seconds: float):
    """fn() in the main thread, interrupted by SortDeadline after `seconds`."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def reap_children() -> int:
    """Terminate and join every child process still alive; return how many."""
    kids = mp.active_children()
    for p in kids:
        p.terminate()
    for p in kids:
        p.join(2.0)
        if p.is_alive():
            p.kill()
            p.join()
    return len(kids)


def measure_setup(workload: str, seed: int, n: int) -> list[float]:
    """Set-up seconds, each from a fresh interpreter: import strsort, build the corpus."""
    probe = Path(__file__).with_name("setup_probe.py")
    return [
        float(subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(n)],
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout)
        for _ in range(SETUP_PROBES)
    ]


def trimmed_mean(values, default=0.0):
    """Mean of `values` without the TRIM share of lowest and of highest ones.

    The reference machine switches between speeds about 40% apart every few
    seconds.  The median of such samples jumps from one speed to the other as
    the share of slow samples crosses one half; a trimmed mean moves in
    proportion to that share, and still ignores a rare outlier.
    """
    if not values:
        return default
    v = sorted(values)
    k = int(len(v) * TRIM)
    return statistics.fmean(v[k : len(v) - k])


def _median(values, default=0.0):
    return statistics.median(values) if values else default


class Bench:
    """Sorts of one seeded corpus; every attempt is counted and checked."""

    def __init__(self, workload: str, corpus, seed: int, tracer=None):
        self.corpus = corpus
        self.ref = corpora.Reference(workload, corpus)
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}
        self.traced_times: dict[str, list[float]] = {}
        self.verify_times: dict[str, list[float]] = {}
        self.counters: dict[str, list[dict]] = {}
        self.layers: dict[str, list[dict]] = {}
        self.leaked: dict[str, int] = {}

    def _attempt(self, sorter: str, deadline: float, traced: bool = False) -> None:
        """One sort of a fresh handle array; the sort alone is timed."""
        self.attempted += 1
        if sorter == BUILTIN:
            sset = self.corpus
            call, check = lambda: self.ref.builtin(sset), self.ref.check_builtin
        else:
            algo, workers = next((a, w) for s, a, w in SORTERS if s == sorter)
            sset = corpora.fresh(self.corpus)
            stats = SortStats()
            fn = ALGORITHMS[algo]
            call = lambda: fn(sset, workers, self.seed, stats)  # noqa: E731
            check = lambda out: self.ref.check(out.handles)  # noqa: E731
        if traced:
            self.tracer.start()
            call_untraced = call
            call = lambda: self.tracer.call("bench.sort", call_untraced)  # noqa: E731
        elif self.tracer is not None:
            self.tracer.check_unpatched()
        ok = False
        gc.collect()  # garbage of earlier checks is not this sort's cost
        t0 = time.perf_counter()
        try:
            out = run_with_deadline(call, deadline)
            elapsed = time.perf_counter() - t0
            ok = True
        except Exception as e:  # the sort under test failed; count it, keep measuring
            print(f"# {sorter}: sort failed: {type(e).__name__}: {e}", file=sys.stderr)
        finally:
            acc = self.tracer.stop() if traced else None
            leaked = reap_children()
        if ok:
            t1 = time.perf_counter()
            try:
                ok = bool(check(out))
            except Exception as e:  # malformed output is a wrong result
                print(f"# {sorter}: output unreadable: {type(e).__name__}: {e}", file=sys.stderr)
                ok = False
            self.verify_times.setdefault(sorter, []).append(time.perf_counter() - t1)
            if not ok:
                print(f"# {sorter}: wrong output", file=sys.stderr)
        self.leaked[sorter] = self.leaked.get(sorter, 0) + leaked
        if not ok:
            self.failed += 1
            return
        (self.traced_times if traced else self.times).setdefault(sorter, []).append(elapsed)
        if sorter != BUILTIN:
            self.counters.setdefault(sorter, []).append(stats.as_dict())
        if traced:
            self.layers.setdefault(sorter, []).append(layer_quantities(acc))

    def loop(self, sorters, seconds: float, traced: bool = False) -> None:
        """Cycle through `sorters` while their next turn fits in `seconds`.

        Every sorter gets at least one turn.  A turn repeats one sorter until
        TURN_S of it has passed, so short sorts collect more samples; with
        traced=True a turn is one untraced and one traced sort.
        """
        start = time.perf_counter()
        stop = start + seconds + OVERRUN_S
        plan = (False, True) if traced else (False,)
        last_turn = {}
        for turn in itertools.count():
            sorter = sorters[turn % len(sorters)]
            turn_start = time.perf_counter()
            if turn >= len(sorters) and turn_start + last_turn[sorter] > start + seconds:
                return
            while True:
                for with_trace in plan:
                    now = time.perf_counter()
                    if now >= stop:
                        return
                    self._attempt(sorter, min(DEADLINE_S, stop - now), with_trace)
                if traced or time.perf_counter() - turn_start >= TURN_S:
                    break
            last_turn[sorter] = time.perf_counter() - turn_start

    def end_to_end(self, setup_times: list[float], peak_rss_mb: float) -> dict[str, float]:
        out = {"setup_s": trimmed_mean(setup_times)}
        for sorter in (BUILTIN, *(s[0] for s in SORTERS)):
            out[f"{sorter}_s"] = trimmed_mean(self.times.get(sorter), DEADLINE_S)
        out["ok_ratio"] = (self.attempted - self.failed) / self.attempted
        out["peak_rss_mb"] = peak_rss_mb
        return out

    def per_layer(self) -> dict[str, float]:
        out = {}
        for sorter, _, _ in SORTERS:
            runs = self.layers.get(sorter, [])
            counters = self.counters.get(sorter, [{}])[0]
            untraced = _median(self.times.get(sorter))
            traced = _median(self.traced_times.get(sorter))
            harness = {
                "parallel.leaked_procs": self.leaked.get(sorter, 0),
                "bench.traced_wall_s": traced,
                "bench.trace_overhead_frac": traced / untraced - 1 if untraced else 0.0,
                "bench.verify_s": _median(self.verify_times.get(sorter)),
            }
            for q in LAYERS[sorter] + _BENCH:
                if q in harness:
                    value = harness[q]
                elif q.startswith("counters."):
                    value = counters.get(q.split(".", 1)[1], 0)
                else:
                    value = _median([r[q] for r in runs])
                out[f"{sorter}.{q}"] = value
        return out

    def exact_counters(self) -> dict[str, list[str]]:
        """Per sorter, the reported counters that repeated exactly across its sorts."""
        out = {}
        for sorter, runs in self.counters.items():
            names = [q.split(".", 1)[1] for q in LAYERS[sorter] if q.startswith("counters.")]
            out[sorter] = [c for c in names if len({r[c] for r in runs}) == 1]
        return out
