"""Multikey quicksort, plain and with word caching.

The plain variant partitions on one character per level.  The caching
variant keeps the next word of every string alongside its handle and
partitions on whole words, so each string's characters are fetched from the
buffer at most once per word: total random accesses stay within
floor(D / WORD_CHARS) + n for distinguishing-prefix total D.
"""

from __future__ import annotations

import numpy as np

from .basecase import INSERTION_THRESHOLD, SortedWithLcp, fill_dchar, insertion_range
from .counters import SortStats
from .strset import (
    LCP_UNDEF,
    WORD_CHARS,
    StringSet,
    extract_keys,
    shared_chars,
    word_has_terminator,
    word_terminator_pos,
)


def _median3(a: int, b: int, c: int) -> int:
    return sorted((int(a), int(b), int(c)))[1]


def mkqs_range(
    sset: StringSet,
    work: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
    share=None,
) -> None:
    """Sort work[lo:hi] in place; all strings share a `depth` prefix."""
    arr = sset.char_array()
    stack = [(lo, hi, depth)]
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                return
        lo, hi, d = stack.pop()
        n = hi - lo
        if n < INSERTION_THRESHOLD:
            if n > 1:
                insertion_range(sset, work, lo, hi, d)
            continue
        seg = work[lo:hi]
        chars = arr[seg + d]
        piv = _median3(chars[0], chars[n // 2], chars[n - 1])
        lt = np.flatnonzero(chars < piv)
        eq = np.flatnonzero(chars == piv)
        gt = np.flatnonzero(chars > piv)
        work[lo:hi] = seg[np.concatenate([lt, eq, gt])]
        b1 = lo + len(lt)
        b2 = b1 + len(eq)
        if len(gt) > 1:
            stack.append((b2, hi, d))
        if piv != 0 and len(eq) > 1:
            stack.append((b1, b2, d + 1))
        if len(lt) > 1:
            stack.append((lo, b1, d))


def mkqs(sset: StringSet, depth: int = 0) -> StringSet:
    """Plain multikey quicksort (character splitter, ternary partition)."""
    work = sset.handles.copy()
    mkqs_range(sset, work, 0, len(work), depth)
    return sset.with_handles(work)


class _BlockReader:
    """Character access for one string through counted word fetches.

    Reads are served from whole-word blocks anchored at the base depth; the
    block covering the base depth is seeded from the partitioning cache, so
    the base-case sorter never re-fetches characters the partitioner
    already paid for.
    """

    __slots__ = ("sset", "handle", "base", "blocks", "stats")

    def __init__(self, sset: StringSet, handle: int, base: int, word: int, stats: SortStats):
        self.sset = sset
        self.handle = handle
        self.base = base
        self.blocks = {0: int(word)}
        self.stats = stats

    def char_at(self, pos: int) -> int:
        off = pos - self.base
        blk, rel = divmod(off, WORD_CHARS)
        word = self.blocks.get(blk)
        if word is None:
            word = int(
                extract_keys(
                    self.sset,
                    np.asarray([self.handle], dtype=np.int64),
                    self.base + blk * WORD_CHARS,
                )[0]
            )
            self.stats.word_fetches += 1
            self.blocks[blk] = word
        return (word >> (8 * (WORD_CHARS - 1 - rel))) & 0xFF


def _cached_insertion(
    sset: StringSet,
    work_h: np.ndarray,
    work_c: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
    lcps: np.ndarray | None,
    stats: SortStats,
) -> None:
    """Insertion sort of cached entries; character reads go through blocks."""
    n = hi - lo
    readers = [
        _BlockReader(sset, int(work_h[lo + k]), depth, int(work_c[lo + k]), stats)
        for k in range(n)
    ]
    order = list(range(n))
    h = [depth] * (n + 1)
    for j in range(1, n):
        i = j
        x = order[j]
        rx = readers[x]
        hp = depth
        while i > 0:
            hi_ = h[i]
            if hi_ < hp:
                break
            if hi_ == hp:
                p = hp
                ry = readers[order[i - 1]]
                while True:
                    cx = rx.char_at(hp)
                    cy = ry.char_at(hp)
                    stats.char_cmps += 1
                    if cx != 0 and cx == cy:
                        hp += 1
                        continue
                    break
                if cx >= cy:
                    h[i] = hp
                    hp = p
                    break
            order[i] = order[i - 1]
            h[i + 1] = h[i]
            i -= 1
        order[i] = x
        h[i + 1] = hp
    idx = np.asarray(order, dtype=np.int64)
    work_h[lo:hi] = work_h[lo:hi][idx]
    work_c[lo:hi] = work_c[lo:hi][idx]
    if lcps is not None and n > 1:
        lcps[lo + 1 : hi] = np.asarray(h[1:n], dtype=np.int64)


def mkqs_cached_range(
    sset: StringSet,
    work_h: np.ndarray,
    work_c: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
    lcps: np.ndarray | None,
    stats: SortStats,
    share=None,
) -> None:
    """Caching multikey quicksort over (handle, word) entry arrays.

    Sorts work_h[lo:hi] in place.  work_c must hold each entry's word at
    `depth`.  Interior LCP values are written into lcps when given; the
    entry at position lo (the boundary to the preceding range) is left to
    the caller.
    """
    mkqs_cached_items(sset, work_h, work_c, [(lo, hi, depth)], lcps, stats, share)


def mkqs_cached_items(
    sset: StringSet,
    work_h: np.ndarray,
    work_c: np.ndarray,
    items: list[tuple[int, int, int]],
    lcps: np.ndarray | None,
    stats: SortStats,
    share=None,
) -> None:
    """mkqs_cached_range seeded with several independent (lo, hi, depth) ranges."""
    stack = list(items)
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                return
        lo, hi, d = stack.pop()
        n = hi - lo
        if n <= 1:
            continue
        if n < INSERTION_THRESHOLD:
            _cached_insertion(sset, work_h, work_c, lo, hi, d, lcps, stats)
            continue
        seg_h = work_h[lo:hi]
        seg_c = work_c[lo:hi]
        piv = _median3(seg_c[0], seg_c[n // 2], seg_c[n - 1])
        pv = np.uint64(piv)
        lt = np.flatnonzero(seg_c < pv)
        eq = np.flatnonzero(seg_c == pv)
        gt = np.flatnonzero(seg_c > pv)
        order = np.concatenate([lt, eq, gt])
        work_h[lo:hi] = seg_h[order]
        work_c[lo:hi] = seg_c[order]
        b1 = lo + len(lt)
        b2 = b1 + len(eq)
        if lcps is not None:
            # boundary LCPs from the words alone: the last sorted string of a
            # partition carries its max word, the first its min word
            if len(lt):
                left_max = int(work_c[lo:b1].max())
                lcps[b1] = d + shared_chars(left_max, piv)
            if len(gt):
                right_min = int(work_c[b2:hi].min())
                lcps[b2] = d + shared_chars(piv, right_min)
        if len(gt) > 1:
            stack.append((b2, hi, d))
        if len(eq) > 1:
            if word_has_terminator(piv):
                # equal through the terminator: the whole group is one string value
                if lcps is not None:
                    lcps[b1 + 1 : b2] = d + word_terminator_pos(piv)
            else:
                nd = d + WORD_CHARS
                work_c[b1:b2] = extract_keys(sset, work_h[b1:b2], nd)
                stats.word_fetches += len(eq)
                stack.append((b1, b2, nd))
        if len(lt) > 1:
            stack.append((lo, b1, d))


def mkqs_cached(
    sset: StringSet,
    depth: int = 0,
    want_dchar: bool = False,
    stats: SortStats | None = None,
) -> SortedWithLcp:
    """Caching multikey quicksort of a whole set, with LCP output."""
    stats = stats if stats is not None else SortStats()
    n = len(sset)
    work_h = sset.handles.copy()
    work_c = extract_keys(sset, work_h, depth)
    stats.word_fetches += n
    lcps = np.full(n, LCP_UNDEF, dtype=np.int64)
    mkqs_cached_range(sset, work_h, work_c, 0, n, depth, lcps, stats)
    out = sset.with_handles(work_h)
    dchar = fill_dchar(out, lcps) if want_dchar else None
    return SortedWithLcp(out, lcps, dchar, stats)
