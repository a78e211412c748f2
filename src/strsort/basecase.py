"""Insertion sorts used as recursion base cases.

Two variants: a plain one treating strings as atomic suffixes, and an
LCP-aware one that maintains the LCP array while inserting and uses it to
skip regions whose recorded LCP already proves a mismatch.  The LCP-aware
variant charges one ternary character comparison per character position it
examines; its total stays within L + n(n-1)/2 where L is the LCP sum of the
sorted output.

lcp_insertion_core is the one LCP insertion loop: every small subproblem of
radix sort, both multikey quicksorts and sample sort ends in
insertion_range, which sorts a slice of a handle array in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import SortStats
from .strset import LCP_UNDEF, StringSet

INSERTION_THRESHOLD = 64  # below this many strings, recursive sorters insertion-sort


@dataclass
class SortedWithLcp:
    """A sorted set with its LCP array and optional distinguishing characters.

    dchar[i] is the character of string i at offset lcps[i]: the first
    position where it differs from its predecessor (terminator byte if the
    string ends there).  Entry 0 of lcps is the LCP_UNDEF sentinel.
    """

    set: StringSet
    lcps: np.ndarray
    dchar: np.ndarray | None = None
    stats: SortStats | None = None


def fill_dchar(sset: StringSet, lcps: np.ndarray) -> np.ndarray:
    """Distinguishing characters derived from handles and LCP values."""
    if len(sset) == 0:
        return np.zeros(0, dtype=np.uint8)
    arr = sset.char_array()
    offs = np.where(lcps < 0, 0, lcps)
    return arr[sset.handles + offs]


def insertion_sort(sset: StringSet, depth: int = 0) -> StringSet:
    """Plain insertion sort; comparisons start at character position depth."""
    n = len(sset)
    if n <= 1:
        return sset.with_handles(sset.handles.copy())
    buf = sset.buffer
    ends = sset.ends()
    handles = [int(h) for h in sset.handles]
    keys = [buf[h + depth : e] for h, e in zip(handles, ends)]
    for j in range(1, n):
        x = handles[j]
        kx = keys[j]
        i = j - 1
        while i >= 0 and keys[i] > kx:
            handles[i + 1] = handles[i]
            keys[i + 1] = keys[i]
            i -= 1
        handles[i + 1] = x
        keys[i + 1] = kx
    return sset.with_handles(np.asarray(handles, dtype=np.int64))


def lcp_insertion_core(
    buf: bytes,
    handles: list[int],
    depth: int,
    stats: SortStats,
) -> tuple[list[int], list[int]]:
    """Sort handles sharing a `depth`-character prefix; return (handles, lcps).

    lcps[k] = lcp(out[k-1], out[k]) measured from the string starts;
    lcps[0] is LCP_UNDEF.  Scanning right-to-left, a stored LCP below the
    candidate's current prefix proves the insertion point (case 1), an equal
    one requires comparing characters (case 2), and a larger one lets the
    scan skip the slot without touching any character (case 3).
    """
    n = len(handles)
    if n == 0:
        return [], []
    s = list(handles)
    h = [depth] * (n + 1)
    for j in range(1, n):
        i = j
        x = s[j]
        hp = depth
        while i > 0:
            hi = h[i]
            if hi < hp:
                break  # case 1: mismatch is above this slot's LCP
            if hi == hp:
                p = hp
                while True:
                    cx = buf[x + hp]
                    cy = buf[s[i - 1] + hp]
                    stats.char_cmps += 1
                    if cx != 0 and cx == cy:
                        hp += 1
                        continue
                    break
                if cx >= cy:
                    h[i] = hp
                    hp = p
                    break
            # case 3 (or failed case 2): shift the slot up and keep scanning
            s[i] = s[i - 1]
            h[i + 1] = h[i]
            i -= 1
        s[i] = x
        h[i + 1] = hp
    lcps = h[:n]
    lcps[0] = LCP_UNDEF
    return s, lcps


def insertion_range(
    sset: StringSet,
    work: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
    lcps: np.ndarray | None = None,
    stats: SortStats | None = None,
) -> list[int]:
    """LCP insertion sort of work[lo:hi] in place; the strings share `depth` chars.

    Returns the leaf's LCPs (entry 0 is LCP_UNDEF) and writes the interior
    ones into lcps[lo+1:hi] when given; the entry at lo, the boundary to the
    preceding range, is left to the caller.
    """
    handles, leaf = lcp_insertion_core(
        sset.buffer, [int(v) for v in work[lo:hi]], depth,
        stats if stats is not None else SortStats(),
    )
    work[lo:hi] = handles
    if lcps is not None and hi - lo > 1:
        lcps[lo + 1 : hi] = leaf[1:]
    return leaf


def lcp_insertion_sort(
    sset: StringSet,
    depth: int = 0,
    want_dchar: bool = False,
    stats: SortStats | None = None,
) -> SortedWithLcp:
    """LCP-aware insertion sort of a set with common prefix length `depth`."""
    stats = stats if stats is not None else SortStats()
    handles, lcps = lcp_insertion_core(
        sset.buffer, [int(v) for v in sset.handles], depth, stats
    )
    out = sset.with_handles(np.asarray(handles, dtype=np.int64))
    lcp_arr = np.asarray(lcps, dtype=np.int64) if handles else np.zeros(0, np.int64)
    dchar = fill_dchar(out, lcp_arr) if want_dchar else None
    return SortedWithLcp(out, lcp_arr, dchar, stats)
