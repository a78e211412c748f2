"""Seeded benchmark corpora, their instance statistics, and an output check.

The three workloads differ in D/n, the distinguishing-prefix length per
string, which is what separates the sorters in the source paper:

* ``random``: ``bench.gen_random``, short strings over 94 characters.  The
  first word nearly always decides the order, so base cases and pool
  overhead dominate.
* ``url``: URL-like strings with a few hosts and sections and numeric page
  ids.  Long shared prefixes force word refetches at depth 8, 16, 24 and
  deep recursion; the 7 MB buffer does not fit in cache.
* ``suffix``: every suffix of a random 4-letter text.  Strings are long but
  distinct after about log4(n) characters, and the 16-bit radix digits use
  only 16 of 65,536 buckets.

The check here shares no code with the sorters: random and url outputs are
compared to ``sorted()`` over the split buffer, and suffix outputs by a
vectorized adjacent-pair comparison that never builds a suffix as bytes.
"""

from __future__ import annotations

import numpy as np

from strsort.bench import gen_random, gen_suffixes
from strsort.strset import StringSet

N = 150_000
WORKLOADS = ("random", "url", "suffix")

_HOSTS = (
    b"https://www.example.com/",
    b"https://shop.example.org/",
    b"http://news.example.net/",
    b"https://wiki.example.edu/",
)
_SECTIONS = (
    b"articles/2014/03/",
    b"products/catalog/item/",
    b"wiki/Special/page/",
    b"user/profile/view/",
    b"forum/thread/",
    b"docs/api/v2/ref/",
)
_PAGE_IDS = 50_000
_DNA = np.frombuffer(b"acgt", dtype=np.uint8)
_COLS = np.arange(8, dtype=np.int64)


def gen_urls(n: int, seed: int) -> StringSet:
    """n URLs: host, section, then a page id drawn from [0, 50000)."""
    rng = np.random.default_rng(seed)
    prefixes = [h + s for h in _HOSTS for s in _SECTIONS]
    which = rng.integers(0, len(prefixes), size=n).tolist()
    pages = rng.integers(0, _PAGE_IDS, size=n).tolist()
    strings = [prefixes[w] + b"%d" % p for w, p in zip(which, pages)]
    starts = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum([len(s) + 1 for s in strings[:-1]], out=starts[1:])
    return StringSet(b"\0".join(strings) + b"\0", starts)


def make(workload: str, seed: int, n: int = N) -> StringSet:
    """The corpus of one workload; the same seed gives the same corpus."""
    if workload == "random":
        return gen_random(n, seed)
    if workload == "url":
        return gen_urls(n, seed)
    if workload == "suffix":
        rng = np.random.default_rng(seed)
        return gen_suffixes(rng.choice(_DNA, size=n).tobytes())
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def fresh(corpus: StringSet) -> StringSet:
    """A new handle array over the corpus buffer, as the CLI gives each repetition."""
    return corpus.with_handles(corpus.handles.copy())


def split_sorted(buffer: bytes) -> list[bytes]:
    """Stdlib reference: sorted() over the zero-split buffer."""
    parts = buffer.split(b"\0")
    parts.pop()
    return sorted(parts)


def prefix_sorted(buffer: bytes, n: int) -> list[int]:
    """Stdlib reference for suffixes: sorted() over each suffix's first w bytes.

    Building every suffix would take about n^2/2 bytes.  A w-byte prefix
    (terminator included when the suffix is shorter) orders two distinct
    suffixes exactly when their LCP is below w, so w doubles until no two
    adjacent keys are equal.
    """
    w = 32
    while True:
        keys = [buffer[i : i + w] for i in range(n)]
        order = sorted(range(n), key=keys.__getitem__)
        if all(keys[a] != keys[b] for a, b in zip(order, order[1:])):
            return order
        w *= 2


def compare_adjacent(padded: np.ndarray, a: np.ndarray, b: np.ndarray):
    """LCP of each string pair (a[i], b[i]) and whether a[i] <= b[i].

    `padded` is the character buffer followed by at least 8 zero bytes.  All
    pairs advance one 8-character word at a time; a pair leaves the loop at
    its first differing character or terminator.
    """
    m = len(a)
    lcp = np.zeros(m, dtype=np.int64)
    ordered = np.ones(m, dtype=bool)
    active = np.arange(m)
    depth = 0
    while active.size:
        ca = padded[(a[active] + depth)[:, None] + _COLS]
        cb = padded[(b[active] + depth)[:, None] + _COLS]
        stop = (ca != cb) | (ca == 0)
        hit = stop.any(axis=1)
        rows = np.flatnonzero(hit)
        col = stop[rows].argmax(axis=1)
        done = active[rows]
        lcp[done] = depth + col
        ordered[done] = ca[rows, col] <= cb[rows, col]
        active = active[~hit]
        depth += 8
    return lcp, ordered


class Reference:
    """What a correct sort of one corpus returns, derived without strsort's sorters."""

    def __init__(self, workload: str, corpus: StringSet):
        buf = corpus.buffer
        arr = np.frombuffer(buf, dtype=np.uint8)
        self.padded = np.concatenate([arr, np.zeros(8, dtype=np.uint8)])
        self.handles = np.sort(corpus.handles)
        zeros = np.flatnonzero(arr == 0)
        self.lengths = zeros[np.searchsorted(zeros, self.handles)] - self.handles
        if workload == "suffix":
            self.strings = None
            order = np.asarray(prefix_sorted(buf, len(corpus)), dtype=np.int64)
        else:
            parts = buf.split(b"\0")
            parts.pop()
            order = np.asarray(sorted(range(len(parts)), key=parts.__getitem__), dtype=np.int64)
            self.parts = parts
            self.strings = [parts[i] for i in order.tolist()]
        self.sorted_handles = self.handles[order]

    def builtin(self, corpus: StringSet):
        """The timed stdlib sort of this workload."""
        if self.strings is None:
            return prefix_sorted(corpus.buffer, len(corpus))
        return split_sorted(corpus.buffer)

    def check_builtin(self, result) -> bool:
        if self.strings is None:
            return self.check(np.asarray(result, dtype=np.int64))
        return result == self.strings

    def check(self, handles) -> bool:
        """True when `handles` is a permutation of the corpus in string order."""
        h = np.asarray(handles)
        if h.shape != self.handles.shape or not np.array_equal(np.sort(h), self.handles):
            return False
        if self.strings is not None:
            idx = np.searchsorted(self.handles, h).tolist()
            return [self.parts[i] for i in idx] == self.strings
        _, ordered = compare_adjacent(self.padded, h[:-1], h[1:])
        return bool(ordered.all())

    def stats(self) -> dict:
        """n, bytes, mean length, distinct share, and D and L per string."""
        h = self.sorted_handles
        n = len(h)
        lens = self.lengths[np.searchsorted(self.handles, h)]
        lcp, _ = compare_adjacent(self.padded, h[:-1], h[1:])
        equal = (lcp == lens[:-1]) & (lcp == lens[1:])
        edge = np.zeros(n + 1, dtype=np.int64)
        edge[1:n] = lcp
        neighbor = np.maximum(edge[:n], edge[1:])
        d = int(np.minimum(lens + 1, neighbor + 1).sum())
        return {
            "n": n,
            "bytes": len(self.padded) - 8,
            "avg_len": float(lens.mean()),
            "distinct": float(1 - equal.sum() / n),
            "D/n": d / n,
            "L/n": float(lcp.sum()) / n,
        }
