"""Multikey quicksort, plain and with word caching.

The plain variant partitions on one character per level.  The caching
variant keeps the next word of every string alongside its handle and
partitions on whole words, so each string's characters are fetched from the
buffer at most once per word: total random accesses stay within
floor(D / WORD_CHARS) + n for distinguishing-prefix total D.  Its one step,
mkqs_step, partitions with partition_classifier in mkqs_cached_items and
on the pool in parallel.phased_sort.  Both variants collect their small
ranges and sort them together with basecase.word_leaves.  The caching
variant also takes a range of up to LEAF_FLUSH strings as a leaf when a
sample of its cached words holds no two equal: word_leaves sorts it one
packed-key sort per word level, while each mkqs_step would cost a
Python-level partition.
"""

from __future__ import annotations

import functools

import numpy as np

from .basecase import LeafCollector, SortContext, SortedWithLcp, word_leaves
from .counters import SortStats
from .strset import LCP_UNDEF, WORD_CHARS, StringSet, extract_keys, first_zero_byte, shared_chars

LEAF_SAMPLE = 64  # cached words distinct_words samples from a range


def _median3(a: int, b: int, c: int) -> int:
    return sorted((int(a), int(b), int(c)))[1]


def mkqs_range(
    sset: StringSet,
    work: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
) -> None:
    """Sort work[lo:hi] in place; all strings share a `depth` prefix."""
    arr = sset.char_array()
    leaves = LeafCollector(sset, work, None, None, SortStats(), word_leaves)
    stack = [(lo, hi, depth)]
    while stack:
        lo, hi, d = stack.pop()
        if leaves.take(lo, hi, d):
            continue
        n = hi - lo
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
    leaves.flush()


def mkqs(sset: StringSet) -> StringSet:
    """Plain multikey quicksort (character splitter, ternary partition)."""
    work = sset.handles.copy()
    mkqs_range(sset, work, 0, len(work), 0)
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
    """One word-cached leaf; perfbench/tracing.py still looks this name up."""
    word_leaves(sset, work_h, work_c, [(lo, hi, depth)], lcps, stats)


def mkqs_cached_range(
    sset: StringSet,
    work_h: np.ndarray,
    work_c: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
    lcps: np.ndarray | None,
    stats: SortStats,
) -> None:
    """Caching multikey quicksort over (handle, word) entry arrays.

    Sorts work_h[lo:hi] in place.  work_c must hold each entry's word at
    `depth`.  Interior LCP values are written into lcps when given; the
    entry at position lo (the boundary to the preceding range) is left to
    the caller.
    """
    mkqs_cached_items(sset, work_h, work_c, [(lo, hi, depth)], lcps, stats)


def mkqs_buckets(ctx: SortContext, lo: int, hi: int, pivot):
    """The bucket function of a step: 0, 1 or 2 as the cached word of each
    string of ctx.cur[lo:hi] is less than, equal to or greater than the
    np.uint64 pivot."""
    keys = ctx.cache[lo:hi]
    return (keys >= pivot).astype(np.uint16) + (keys > pivot), None


def partition_classifier(ctx: SortContext):
    """A step's in-process classify(lo, hi, 3, pivot): three flatnonzero passes
    over the cached words, which move with their handles; no bucket array."""

    def classify(lo: int, hi: int, k: int, pivot):
        seg_c = ctx.cache[lo:hi]
        lt = np.flatnonzero(seg_c < pivot)
        eq = np.flatnonzero(seg_c == pivot)
        gt = np.flatnonzero(seg_c > pivot)
        order = np.concatenate([lt, eq, gt])
        ctx.cur[lo:hi] = ctx.cur[lo:hi][order]
        ctx.cache[lo:hi] = seg_c[order]
        return (0, len(lt), len(lt) + len(eq), hi - lo), [None]

    return classify


def mkqs_step(ctx: SortContext, lo: int, hi: int, depth: int, classify) -> list:
    """One ternary step over ctx.cur[lo:hi], whose cached words are at depth,
    around the median-of-3 pivot word; returns the parts left to sort as
    (lo, hi, depth) tuples, greater first.  The equal part ends when the
    pivot holds the terminator and otherwise recurses a word deeper.  With
    ctx.lcps set, the LCPs the step settles are written too."""
    words = ctx.cache
    pv = np.uint64(_median3(words[lo], words[lo + (hi - lo) // 2], words[hi - 1]))
    bounds, _ = classify(lo, hi, 3, pv)
    b1, b2 = lo + int(bounds[1]), lo + int(bounds[2])
    if ctx.lcps is not None:
        # boundary LCPs from the words alone: the last sorted string of a
        # part carries its max word, the first its min word
        if b1 > lo:
            ctx.lcps[b1] = depth + shared_chars(words[lo:b1].max(), pv)
        if b2 < hi:
            ctx.lcps[b2] = depth + shared_chars(pv, words[b2:hi].min())
    rows = [(b2, hi, depth)] if hi - b2 > 1 else []
    if b2 - b1 > 1:
        term = int(first_zero_byte(pv))
        if term < WORD_CHARS:
            # equal through the terminator: the whole part is one string value
            if ctx.lcps is not None:
                ctx.lcps[b1 + 1 : b2] = depth + term
        else:
            words[b1:b2] = extract_keys(ctx.sset, ctx.cur[b1:b2], depth + WORD_CHARS)
            ctx.stats.word_fetches += b2 - b1
            rows.append((b1, b2, depth + WORD_CHARS))
    if b1 - lo > 1:
        rows.append((lo, b1, depth))
    return rows


def distinct_words(words: np.ndarray, lo: int, hi: int) -> bool:
    """Whether min(hi - lo, LEAF_SAMPLE) evenly spaced, distinct positions
    of words[lo:hi] hold pairwise different words."""
    n = hi - lo
    k = min(n, LEAF_SAMPLE)
    sample = np.sort(words[lo + np.arange(k) * n // k])
    return bool((sample[1:] != sample[:-1]).all())


def mkqs_cached_items(
    sset: StringSet,
    work_h: np.ndarray,
    work_c: np.ndarray,
    items,
    lcps: np.ndarray | None,
    stats: SortStats,
    share=None,
) -> None:
    """mkqs_cached_range seeded with several independent (lo, hi, depth)
    ranges, an (m, 3) array or a list of 3-tuples.

    Ranges below LEAF_THRESHOLD, and ranges of up to LEAF_FLUSH strings
    whose sampled words distinct_words finds distinct, are collected and
    sorted with word_leaves as LEAF_FLUSH strings gather and when the loop
    ends, also when the share hook empties the stack: donated ranges never
    overlap the collected leaves.  The others take mkqs_step.
    """
    ctx = SortContext(sset, work_h, work_c, lcps, stats)
    classify = partition_classifier(ctx)
    leaves = LeafCollector(sset, work_h, work_c, lcps, stats, word_leaves)
    distinct = functools.partial(distinct_words, work_c)
    stack = np.asarray(items, dtype=np.int64).reshape(-1, 3).tolist()
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                break
        lo, hi, d = stack.pop()
        if not leaves.take(lo, hi, d, distinct):
            stack += mkqs_step(ctx, lo, hi, d, classify)
    leaves.flush()


def mkqs_cached(sset: StringSet, stats: SortStats | None = None) -> SortedWithLcp:
    """Caching multikey quicksort of a whole set, with LCP output."""
    stats = stats if stats is not None else SortStats()
    n = len(sset)
    work_h = sset.handles.copy()
    work_c = extract_keys(sset, work_h, 0)
    stats.word_fetches += n
    lcps = np.full(n, LCP_UNDEF, dtype=np.int64)
    mkqs_cached_range(sset, work_h, work_c, 0, n, 0, lcps, stats)
    out = sset.with_handles(work_h)
    return SortedWithLcp(out, lcps, stats)
