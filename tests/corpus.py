"""Shared corpus builders for the test suite.

Every builder returns a StringSet, except `sorted_runs`, which builds the
sorted runs of a K-way merge.  `ref_sorted_strings` re-derives string
contents by scanning the raw buffer, independent of the library's handle
arithmetic, and is the ground truth every sorter is compared against.
"""

from __future__ import annotations

import numpy as np

from strsort.basecase import lcp_insertion_sort
from strsort.lcpmerge import LcpRuns
from strsort.strset import StringSet, from_strings


def ref_strings(sset: StringSet) -> list[bytes]:
    """String contents recovered by splitting the raw buffer at zeros."""
    out = []
    buf = sset.buffer
    for h in sset.handles:
        h = int(h)
        end = buf.index(b"\0", h)
        out.append(buf[h:end])
    return out


def ref_sorted_strings(sset: StringSet) -> list[bytes]:
    return sorted(ref_strings(sset))


def ref_lcps(strings: list[bytes]) -> list[int]:
    """Character-by-character LCPs of a sorted content list (index 0 = -1)."""
    out = [-1] * len(strings)
    for i in range(1, len(strings)):
        a, b = strings[i - 1], strings[i]
        k = 0
        while k < len(a) and k < len(b) and a[k] == b[k]:
            k += 1
        out[i] = k
    return out


def random_set(n: int, seed: int = 0, max_len: int = 20, lo: int = 33, hi: int = 127) -> StringSet:
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        length = int(rng.integers(0, max_len))
        items.append(bytes(rng.integers(lo, hi, size=length, dtype=np.uint8)))
    return from_strings(items)


def all_equal_set(n: int, s: bytes = b"aaa") -> StringSet:
    return from_strings([s] * n)


def all_empty_set(n: int) -> StringSet:
    return from_strings([b""] * n)


def shared_prefix_clusters(n: int, seed: int = 0, prefix_len: int = 8, clusters: int = 4) -> StringSet:
    """Strings grouped into clusters sharing an exact prefix_len-char prefix."""
    rng = np.random.default_rng(seed)
    prefixes = [
        bytes(rng.integers(97, 123, size=prefix_len, dtype=np.uint8))
        for _ in range(clusters)
    ]
    items = []
    for _ in range(n):
        p = prefixes[int(rng.integers(0, clusters))]
        tail = bytes(rng.integers(33, 127, size=int(rng.integers(1, 8)), dtype=np.uint8))
        items.append(p + tail)
    return from_strings(items)


def suffix_set(text_len: int = 1000, seed: int = 3, limit: int | None = None) -> StringSet:
    rng = np.random.default_rng(seed)
    text = bytes(rng.integers(97, 105, size=text_len, dtype=np.uint8))
    buf = text + b"\0"
    n = text_len if limit is None else min(limit, text_len)
    return StringSet(buf, np.arange(n, dtype=np.int64))


def url_like_set(n: int, seed: int = 7) -> StringSet:
    """Synthetic URLs: long shared prefixes, moderate alphabet."""
    rng = np.random.default_rng(seed)
    hosts = [b"www.example.com", b"www.example.org", b"data.example.com", b"example.net"]
    sections = [b"news", b"archive", b"static/img", b"a/b/c", b"index"]
    items = []
    for _ in range(n):
        h = hosts[int(rng.integers(0, len(hosts)))]
        s = sections[int(rng.integers(0, len(sections)))]
        page = str(int(rng.integers(0, 500))).encode()
        items.append(b"http://" + h + b"/" + s + b"/page" + page + b".html")
    return from_strings(items)


def sorted_runs(sset: StringSet, sizes, sort=lcp_insertion_sort) -> LcpRuns:
    """The runs of a K-way merge: sset's handles cut into consecutive
    slices of the given sizes, each sorted with its LCPs by `sort`, and
    laid end to end in run order."""
    starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    handles = np.empty(starts[-1], dtype=np.int64)
    lcps = np.empty(starts[-1], dtype=np.int64)
    for lo, hi in zip(starts.tolist(), starts[1:].tolist()):
        res = sort(sset.with_handles(sset.handles[lo:hi]))
        handles[lo:hi] = res.set.handles
        lcps[lo:hi] = res.lcps
    return LcpRuns(sset, handles, lcps, starts)
