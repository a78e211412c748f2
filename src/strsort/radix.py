"""MSD radix sorts: 8-bit in-place and adaptive 16/8-bit out-of-place.

The 8-bit variant permutes handles in place by walking cycles through the
bucket regions, so it allocates no handle-sized scratch (the per-position
digit oracle is byte-sized and shared across recursion).  The adaptive
variant distributes out of place through a swap array, using 16-bit digits
for large subproblems, and hands every smaller one to one in-place 8-bit
sort.  Terminator buckets are final and never recursed.  Ranges below
basecase.LEAF_THRESHOLD are collected and sorted together with
basecase.word_leaves.
"""

from __future__ import annotations

import numpy as np

from .basecase import LeafCollector, word_leaves
from .counters import SortStats
from .strset import StringSet

RADIX16_THRESHOLD = 65536


def _digits8(sset: StringSet, work: np.ndarray, lo: int, hi: int, depth: int) -> np.ndarray:
    return sset.char_array()[work[lo:hi] + depth]


def radix8_range(sset: StringSet, work: np.ndarray, lo: int, hi: int, depth: int) -> None:
    """In-place 8-bit MSD radix sort of work[lo:hi] sharing a `depth` prefix."""
    radix8_items(sset, work, [(lo, hi, depth)])


def radix8_items(
    sset: StringSet,
    work: np.ndarray,
    items: list[tuple[int, int, int]],
    oracle: np.ndarray | None = None,
    share=None,
) -> None:
    """radix8_range seeded with several independent (lo, hi, depth) ranges."""
    if oracle is None:
        oracle = np.zeros(len(work), dtype=np.uint8)
    leaves = LeafCollector(sset, work, None, None, SortStats(), word_leaves)
    stack = list(items)
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                break  # the collected leaves are still sorted
        lo, hi, d = stack.pop()
        if leaves.take(lo, hi, d):
            continue
        digs = _digits8(sset, work, lo, hi, d)
        counts = np.bincount(digs, minlength=256)
        oracle[lo:hi] = digs
        ends = lo + np.cumsum(counts)
        nxt = np.empty(256, dtype=np.int64)
        nxt[0] = lo
        nxt[1:] = ends[:-1]
        starts = nxt.copy()
        # walk cycles: move each handle (and its oracle digit) to its bucket
        for b in range(256):
            i = int(nxt[b])
            e = int(ends[b])
            while i < e:
                dg = int(oracle[i])
                if dg == b:
                    i += 1
                else:
                    j = int(nxt[dg])
                    work[i], work[j] = work[j], work[i]
                    oracle[i], oracle[j] = oracle[j], oracle[i]
                    nxt[dg] = j + 1
            nxt[b] = i
        for b in range(255, 0, -1):  # bucket 0 holds finished strings
            clo = int(starts[b])
            chi = int(ends[b])
            if chi - clo > 1:
                stack.append((clo, chi, d + 1))
    leaves.flush()


def radix8_inplace(sset: StringSet, depth: int = 0) -> StringSet:
    """8-bit in-place MSD radix sort of a whole set."""
    work = sset.handles.copy()
    radix8_range(sset, work, 0, len(work), depth)
    return sset.with_handles(work)


def _digits16(sset: StringSet, seg: np.ndarray, depth: int) -> np.ndarray:
    arr = sset.char_array()
    c1 = arr[seg + depth].astype(np.int64)
    idx2 = np.clip(seg + depth + 1, 0, len(arr) - 1)
    c2 = np.where(c1 == 0, 0, arr[idx2]).astype(np.int64)
    return (c1 << 8) | c2


def radix16_adaptive(
    sset: StringSet,
    depth: int = 0,
    swap: np.ndarray | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """Adaptive 16/8-bit MSD radix sort.

    Subproblems of at least RADIX16_THRESHOLD strings are distributed out of
    place on two-character digits, alternating the roles of the primary and
    swap arrays per level.  The smaller ones are collected in primary and
    sorted by one in-place 8-bit radix8_items call, whose leaves end in
    word_leaves.
    """
    n = len(sset)
    primary = sset.handles.copy()
    if n >= RADIX16_THRESHOLD:
        if swap is None:
            swap = np.empty(n, dtype=np.int64)
            if stats is not None:
                stats.scratch_words += n
        if len(swap) < n:
            raise ValueError("swap array smaller than the input")
    small = []  # (lo, hi, depth) below RADIX16_THRESHOLD
    # (lo, hi, depth, src_is_primary)
    stack: list[tuple[int, int, int, bool]] = [(0, n, depth, True)]
    while stack:
        lo, hi, d, src_primary = stack.pop()
        if hi - lo < RADIX16_THRESHOLD:
            if not src_primary:
                primary[lo:hi] = swap[lo:hi]
            small.append((lo, hi, d))
            continue
        src = primary if src_primary else swap
        seg = src[lo:hi]
        digs = _digits16(sset, seg, d)
        dst = swap if src_primary else primary
        order = np.argsort(digs, kind="stable")
        dst[lo:hi] = seg[order]
        counts = np.bincount(digs, minlength=65536)
        nonzero = np.flatnonzero(counts)
        bounds = lo + np.concatenate([[0], np.cumsum(counts[nonzero])])
        for k, dig in enumerate(nonzero):
            clo = int(bounds[k])
            chi = int(bounds[k + 1])
            if dig & 0xFF == 0 or chi - clo == 1:
                # terminator in the low byte: bucket is final
                if src_primary:
                    primary[clo:chi] = dst[clo:chi]
                continue
            stack.append((clo, chi, d + 2, not src_primary))
    radix8_items(sset, primary, small)
    return sset.with_handles(primary)
