"""Corpus generation, algorithm registry, and the timing harness.

A run loads or generates one corpus, rebuilds the handle array before every
repetition (so the sorter always starts from a freshly scanned pointer
array), times only the sort itself, optionally verifies the output against
the input, and reports per-repetition wall times plus the instrumentation
counters.  Results serialize to a human table or CSV with one row per
repetition and a final median row.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .basecase import insertion_sort, lcp_insertion_sort
from .counters import SortStats
from .lcpmerge import LcpStream, binary_lcp_mergesort, kway_lcp_merge
from .mkqs import mkqs, mkqs_cached
from .parallel import parallel_mkqs, parallel_radix, parallel_s5, partitioned_merge_sort
from .radix import radix8_inplace, radix16_adaptive
from .ssss import s5_sort
from .strset import StringSet, dist_stats, load_delimited, verify


def gen_random(n: int, seed: int = 0) -> StringSet:
    """n strings, lengths uniform in [0,20), characters uniform in [33,127)."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 20, size=n, dtype=np.int64)
    total = int(lens.sum())
    chars = rng.integers(33, 127, size=total, dtype=np.uint8).astype(np.uint8)
    buf = np.zeros(total + n, dtype=np.uint8)
    offsets = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(lens[:-1] + 1, out=offsets[1:])
    starts_in_chars = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(lens[:-1], out=starts_in_chars[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(starts_in_chars, lens)
    buf[np.repeat(offsets, lens) + within] = chars
    return StringSet(buf.tobytes(), offsets)


def gen_suffixes(text: bytes, n: int | None = None) -> StringSet:
    """Handles of the first n suffixes of a zero-terminated text."""
    if len(text) == 0:
        raise ValueError("suffix corpus needs a nonempty text")
    if 0 in text:
        raise ValueError("text contains byte 0, which conflicts with termination")
    count = len(text) if n is None else min(n, len(text))
    return StringSet(text + b"\0", np.arange(count, dtype=np.int64))


def _algo_insertion(sset, threads, seed, stats):
    return insertion_sort(sset)


def _algo_lcp_insertion(sset, threads, seed, stats):
    return lcp_insertion_sort(sset, stats=stats).set


def _algo_mkqs(sset, threads, seed, stats):
    return mkqs(sset)


def _algo_mkqs_cached(sset, threads, seed, stats):
    return mkqs_cached(sset, stats=stats).set


def _algo_radix8(sset, threads, seed, stats):
    return radix8_inplace(sset)


def _algo_radix16(sset, threads, seed, stats):
    return radix16_adaptive(sset, stats=stats)


def _algo_s5_unroll(sset, threads, seed, stats):
    return s5_sort(sset, variant="unroll", seed=seed, stats=stats)


def _algo_s5_equal(sset, threads, seed, stats):
    return s5_sort(sset, variant="equal", seed=seed, stats=stats)


def _algo_lcp_mergesort(sset, threads, seed, stats):
    out, _, _ = binary_lcp_mergesort(sset, stats=stats)
    return out


def _algo_kway_merge(sset, threads, seed, stats, shards: int = 4):
    """Presort contiguous shards, then tournament-merge them."""
    n = len(sset)
    cuts = np.linspace(0, n, shards + 1).astype(np.int64)
    streams = []
    for i in range(shards):
        sub = sset.with_handles(sset.handles[cuts[i] : cuts[i + 1]])
        res = s5_sort(sub, want_lcps=True, seed=seed + i, stats=stats)
        streams.append(LcpStream(sset, res.set.handles, res.lcps))
    out_h, _ = kway_lcp_merge(streams, stats=stats)
    return sset.with_handles(out_h)


def _algo_ps5(sset, threads, seed, stats):
    return parallel_s5(sset, p=threads, seed=seed, stats=stats)


def _algo_pmkqs(sset, threads, seed, stats):
    return parallel_mkqs(sset, p=threads, stats=stats)


def _algo_pradix(sset, threads, seed, stats):
    return parallel_radix(sset, p=threads, stats=stats)


def _algo_pmergesort(sset, threads, seed, stats):
    return partitioned_merge_sort(sset, K=4, p=threads, seed=seed, stats=stats)


ALGORITHMS = {
    "insertion": _algo_insertion,
    "lcp-insertion": _algo_lcp_insertion,
    "mkqs": _algo_mkqs,
    "mkqs-cached": _algo_mkqs_cached,
    "radix8": _algo_radix8,
    "radix16": _algo_radix16,
    "s5-unroll": _algo_s5_unroll,
    "s5-equal": _algo_s5_equal,
    "lcp-mergesort": _algo_lcp_mergesort,
    "kway-merge": _algo_kway_merge,
    "ps5": _algo_ps5,
    "pmkqs": _algo_pmkqs,
    "pradix": _algo_pradix,
    "pmergesort": _algo_pmergesort,
}


def register_algorithm(name: str, fn) -> None:
    ALGORITHMS[name] = fn


@dataclass
class RunConfig:
    algorithm: str
    input_path: str | None = None
    generator: str | None = None  # "random" | "suffix"
    n: int | None = None
    byte_limit: int | None = None
    threads: int = 1
    reps: int = 1
    seed: int = 1
    verify: bool = False
    fmt: str = "table"
    counters: bool = False


@dataclass
class RunResult:
    algorithm: str
    n: int
    total_bytes: int
    threads: int
    seed: int
    times: list[float]
    median: float
    counters: dict[str, int]
    verify_ok: bool | None
    D: int | None
    L: int | None

    CSV_COLUMNS = [
        "algo", "n", "N", "threads", "seed", "rep", "seconds", "verify",
        "char_cmps", "word_fetches", "merge_buffer_cmps", "scratch_words",
        "jobs_enqueued", "jobs_executed", "share_events", "D", "L",
    ]

    def _row(self, rep, seconds) -> dict:
        return {
            "algo": self.algorithm,
            "n": self.n,
            "N": self.total_bytes,
            "threads": self.threads,
            "seed": self.seed,
            "rep": rep,
            "seconds": f"{seconds:.6f}",
            "verify": {True: "pass", False: "fail", None: ""}[self.verify_ok],
            **{k: self.counters.get(k, 0) for k in (
                "char_cmps", "word_fetches", "merge_buffer_cmps", "scratch_words",
                "jobs_enqueued", "jobs_executed", "share_events",
            )},
            "D": "" if self.D is None else self.D,
            "L": "" if self.L is None else self.L,
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.DictWriter(out, fieldnames=self.CSV_COLUMNS)
        w.writeheader()
        for i, t in enumerate(self.times):
            w.writerow(self._row(i, t))
        w.writerow(self._row("median", self.median))
        return out.getvalue()

    def to_table(self) -> str:
        lines = [
            f"algorithm : {self.algorithm}",
            f"strings   : {self.n}",
            f"bytes     : {self.total_bytes}",
            f"threads   : {self.threads}",
            f"seed      : {self.seed}",
        ]
        for i, t in enumerate(self.times):
            lines.append(f"rep {i:<3}   : {t:.6f} s")
        lines.append(f"median    : {self.median:.6f} s")
        if self.verify_ok is not None:
            lines.append(f"verify    : {'pass' if self.verify_ok else 'FAIL'}")
        if self.D is not None:
            lines.append(f"D         : {self.D}")
            lines.append(f"L         : {self.L}")
        if self.counters:
            for k, v in sorted(self.counters.items()):
                if v:
                    lines.append(f"{k:<18}: {v}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_csv(text: str) -> list[dict]:
        return list(csv.DictReader(io.StringIO(text)))


class Corpus:
    """A loaded corpus that can re-derive a cold handle array per repetition."""

    def __init__(self, buffer: bytes, make_handles):
        self.buffer = buffer
        self._make = make_handles

    def fresh_set(self) -> StringSet:
        return StringSet(self.buffer, self._make())


def _scanned_corpus(buf: bytes) -> Corpus:
    """A corpus whose handles are re-derived by scanning the buffer for terminators."""
    arr = np.frombuffer(buf, dtype=np.uint8)

    def scan():
        zeros = np.flatnonzero(arr == 0)
        starts = np.zeros(len(zeros), dtype=np.int64)
        starts[1:] = zeros[:-1] + 1
        return starts

    return Corpus(buf, scan)


def _load_corpus(cfg: RunConfig) -> Corpus:
    if cfg.generator == "random":
        n = cfg.n if cfg.n is not None else 100_000
        return _scanned_corpus(gen_random(n, cfg.seed).buffer)
    if cfg.generator == "suffix":
        if cfg.input_path:
            text = _read_file(cfg.input_path, cfg.byte_limit)
            text = text.replace(b"\0", b"\1")
        else:
            size = cfg.byte_limit if cfg.byte_limit else 100_000
            rng = np.random.default_rng(cfg.seed)
            text = bytes(rng.integers(97, 123, size=size, dtype=np.uint8))
        count = cfg.n if cfg.n is not None else len(text)
        base = gen_suffixes(text, count)
        return Corpus(base.buffer, lambda: np.arange(len(base), dtype=np.int64))
    if cfg.input_path:
        raw = _read_file(cfg.input_path, cfg.byte_limit)
        delim = 0 if 0 in raw else ord("\n")
        base = load_delimited(raw, delim)
        if cfg.n is not None:
            base = base.with_handles(base.handles[: cfg.n])
            handles = base.handles.copy()
            return Corpus(base.buffer, lambda: handles.copy())
        return _scanned_corpus(base.buffer)
    raise ValueError("no input: pass an input path or a generator")


def _read_file(path: str, limit: int | None) -> bytes:
    with open(path, "rb") as f:
        data = f.read() if limit is None else f.read(limit)
    return data


class VerificationError(RuntimeError):
    pass


def run(cfg: RunConfig) -> RunResult:
    """Execute one benchmark configuration."""
    if cfg.algorithm not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {cfg.algorithm!r}; known: {', '.join(sorted(ALGORITHMS))}"
        )
    if cfg.reps < 1:
        raise ValueError("repetitions must be >= 1")
    fn = ALGORITHMS[cfg.algorithm]
    corpus = _load_corpus(cfg)
    times = []
    stats = SortStats()
    verify_ok = None
    output = None
    sset = None
    for _ in range(cfg.reps):
        sset = corpus.fresh_set()
        t0 = time.perf_counter()
        output = fn(sset, cfg.threads, cfg.seed, stats)
        times.append(time.perf_counter() - t0)
    if cfg.verify:
        rep = verify(sset, output)
        verify_ok = bool(rep.ok)
    D = L = None
    if cfg.counters:
        d = dist_stats(sset)
        D, L = d.D, d.L
    result = RunResult(
        algorithm=cfg.algorithm,
        n=len(sset),
        total_bytes=len(corpus.buffer),
        threads=cfg.threads,
        seed=cfg.seed,
        times=times,
        median=statistics.median(times),
        counters=stats.as_dict(),
        verify_ok=verify_ok,
        D=D,
        L=L,
    )
    if cfg.verify and not verify_ok:
        raise VerificationError(
            f"verification failed for {cfg.algorithm}\n{result.to_table()}"
        )
    return result
