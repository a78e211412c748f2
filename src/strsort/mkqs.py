"""Multikey quicksort, plain and with word caching.

The plain variant partitions on one character per level.  The caching
variant keeps the next word of every string alongside its handle and
partitions on whole words, so each string's characters are fetched from the
buffer at most once per word: total random accesses stay within
floor(D / WORD_CHARS) + n for distinguishing-prefix total D.  Both finish
small ranges with basecase.insertion_range; the caching variant charges a
leaf one word fetch per word its comparisons read past the cached one.
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
    """The LCP insertion sort as a caching-mkqs leaf; charges its word fetches.

    Each string's word at `depth` is cached, so a string costs one fetch per
    further word its comparisons read.  No comparison reads a string past
    its LCP with the other string, and every such LCP is at most the
    string's larger LCP to a neighbour in the sorted leaf (its reach), so
    (reach - depth) // WORD_CHARS words per string bound the fetches.
    work_c is not reordered: no caller reads the words of a finished leaf.
    """
    inner = insertion_range(sset, work_h, lo, hi, depth, lcps, stats)[1:]
    stats.word_fetches += sum(
        (max(left, right) - depth) // WORD_CHARS
        for left, right in zip([depth] + inner, inner + [depth])
    )


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
