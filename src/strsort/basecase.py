"""Recursion base cases: insertion sorts and the batched word-cached leaf.

Two insertion sorts: a plain one treating strings as atomic suffixes, and
an LCP-aware one that maintains the LCP array while inserting and uses it to
skip regions whose recorded LCP already proves a mismatch.  The LCP-aware
variant charges one ternary character comparison per character position it
examines; its total stays within L + n(n-1)/2 where L is the LCP sum of the
sorted output.  Its loop, lcp_insertion_core, ends the small subproblems of
radix sort and plain multikey quicksort through insertion_range.

The word-caching sorters (caching multikey quicksort, and through it sample
sort) instead collect their small ranges and hand them to word_leaves,
which sorts all of them together, one 8-character word per string and
level, in numpy passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import SortStats
from .strset import LCP_UNDEF, WORD_CHARS, StringSet, extract_keys, shared_chars

INSERTION_THRESHOLD = 64  # below this many strings, radix and plain mkqs insertion-sort
LEAF_THRESHOLD = 1024  # below this many strings, a word-cached range is a word_leaves leaf
LEAF_FLUSH = 1 << 16  # collected leaf strings that make a driver sort them before going on


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


def range_positions(items: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions of (lo, hi, depth) ranges, concatenated in item order,
    with each position's depth and range index."""
    lo, hi, depth = (np.array(col, dtype=np.int64) for col in zip(*items))
    sizes = hi - lo
    pos = np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
    return pos, np.repeat(depth, sizes), np.repeat(np.arange(len(items)), sizes)


def word_leaves(
    sset: StringSet,
    work: np.ndarray,
    cache: np.ndarray,
    items: list[tuple[int, int, int]],
    lcps: np.ndarray | None,
    stats: SortStats,
) -> None:
    """Sort every (lo, hi, depth) range of work in place, all ranges at once.

    The strings of a range share `depth` characters and cache[i] holds the
    word at that depth of the string work[i].  Each level stably sorts every
    live string by (range, word) in one lexsort, so equal strings keep
    their order.  An adjacent pair of one range is settled at the first
    byte where its words differ or, for equal words, at their terminator;
    its LCP goes into lcps (the entry at lo is left to the caller) and
    LCP - depth + 1 into char_cmps.  Runs of equal words without a
    terminator become the ranges of the next level, one word deeper, and
    fetch that word: one word fetch per string and tied level.  cache is
    not reordered: no caller reads the words of a finished leaf.
    """
    items = [item for item in items if item[1] - item[0] > 1]
    if not items:
        return
    slot, base, group = range_positions(items)
    handles = work[slot]
    words = cache[slot]
    level = 0
    while len(slot):
        # groups are contiguous and their slots ascend, so sorted entry i lands in slot[i]
        order = np.lexsort((words, group))
        handles = handles[order]
        words = words[order]
        work[slot] = handles
        shared = shared_chars(words[:-1], words[1:])
        same = group[1:] == group[:-1]
        tied = same & (shared == WORD_CHARS)
        done = same & ~tied
        past_depth = level + shared[done]  # each settled pair's LCP minus its leaf depth
        if lcps is not None:
            lcps[slot[1:][done]] = base[1:][done] + past_depth
        stats.char_cmps += int((past_depth + 1).sum())
        live = np.zeros(len(slot), dtype=bool)
        live[:-1] = tied
        live[1:] |= tied
        first = live.copy()
        first[1:] &= ~tied
        group = np.cumsum(first)[live]
        slot, handles, base = slot[live], handles[live], base[live]
        level += WORD_CHARS
        words = extract_keys(sset, handles, base + level)
        stats.word_fetches += len(handles)


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
