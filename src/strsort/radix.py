"""MSD radix sorts: 8-bit in-place and adaptive 16/8-bit out-of-place.

Every step stably sorts its range by one numpy argsort of the digits and
takes the bucket bounds from one bincount, so equal strings keep their
input order.  A step whose digits are all equal either ends equal strings
or first lets skip_shared move its depth a word at a time past the prefix
the range shares.  The 8-bit variant sorts each range in place on the
handle array.  The adaptive variant distributes out of place through a
swap array, using 16-bit digits for large subproblems, and hands every
smaller one to one in-place 8-bit sort.  radix_children decides which
buckets recurse.  Ranges below basecase.LEAF_THRESHOLD are collected and
sorted together with basecase.word_leaves.
"""

from __future__ import annotations

import numpy as np

from .basecase import LeafCollector, word_leaves
from .counters import SortStats
from .strset import WORD_CHARS, StringSet, first_diff_byte, first_zero_byte

RADIX16_THRESHOLD = 65536


def _digits8(sset: StringSet, work: np.ndarray, lo: int, hi: int, depth: int) -> np.ndarray:
    return sset.char_array()[work[lo:hi] + depth]


def skip_shared(sset: StringSet, seg: np.ndarray, depth: int) -> int | None:
    """The first depth from `depth` on where the strings at seg differ, terminator
    included, or None if they are equal.  Words run on only past a terminator."""
    while True:
        words = sset.words_at(seg + depth)
        low = words.min()
        k = int(first_diff_byte(low, words.max()))  # characters every word shares
        if first_zero_byte(low) < k:
            return None  # every string ends inside the shared part
        if k < WORD_CHARS:
            return depth + k
        depth += WORD_CHARS


def _distribute(seg: np.ndarray, digs: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """Stably sort seg by its `width`-bit digits into out; returns the bucket
    bounds: bucket b occupies out[bounds[b]:bounds[b + 1]]."""
    out[:] = seg[np.argsort(digs, kind="stable")]
    bounds = np.zeros((1 << width) + 1, dtype=np.int64)
    np.cumsum(np.bincount(digs, minlength=1 << width), out=bounds[1:])
    return bounds


def radix_children(bounds: np.ndarray, lo: int, depth: int, width: int) -> tuple[list, list]:
    """The buckets of one radix step over [lo, ...): (children, finished).

    Bucket b holds the strings whose `width`-bit digit at `depth` is b and
    occupies [lo + bounds[b], lo + bounds[b + 1]).  A digit with a zero low
    byte ends its strings and a single string is sorted, so those buckets
    are finished, as (lo, hi).  Every other nonempty bucket is a child
    (lo, hi, depth + width // 8).
    """
    digits = np.flatnonzero(np.diff(bounds))
    starts = lo + bounds[digits]
    ends = lo + bounds[digits + 1]
    recurse = ((digits & 0xFF) != 0) & (ends - starts > 1)
    child_depth = depth + width // 8
    children = [(a, b, child_depth) for a, b in zip(starts[recurse].tolist(), ends[recurse].tolist())]
    return children, list(zip(starts[~recurse].tolist(), ends[~recurse].tolist()))


def radix8_range(sset: StringSet, work: np.ndarray, lo: int, hi: int, depth: int) -> None:
    """In-place 8-bit MSD radix sort of work[lo:hi] sharing a `depth` prefix."""
    radix8_items(sset, work, [(lo, hi, depth)])


def radix8_items(
    sset: StringSet,
    work: np.ndarray,
    items: list[tuple[int, int, int]],
    share=None,
) -> None:
    """radix8_range seeded with several independent (lo, hi, depth) ranges.

    A step stably sorts work[lo:hi] in place by the strings' characters at
    the range's depth; its children recurse one character deeper.
    """
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
        if (digs == digs[0]).all():  # one bucket: equal strings, or a shared prefix to skip
            if not digs[0] or (d := skip_shared(sset, work[lo:hi], d + 1)) is None:
                continue
            digs = _digits8(sset, work, lo, hi, d)
        bounds = _distribute(work[lo:hi], digs, 8, work[lo:hi])
        stack.extend(reversed(radix_children(bounds, lo, d, 8)[0]))
    leaves.flush()


def radix8_inplace(sset: StringSet, depth: int = 0) -> StringSet:
    """8-bit in-place MSD radix sort of a whole set."""
    work = sset.handles.copy()
    radix8_range(sset, work, 0, len(work), depth)
    return sset.with_handles(work)


def _digits16(sset: StringSet, seg: np.ndarray, depth: int) -> np.ndarray:
    arr = sset.char_array()
    c1 = arr[seg + depth].astype(np.uint16)
    idx2 = np.clip(seg + depth + 1, 0, len(arr) - 1)
    c2 = np.where(c1 == 0, 0, arr[idx2]).astype(np.uint16)
    return (c1 << 8) | c2


def radix16_adaptive(
    sset: StringSet,
    depth: int = 0,
    swap: np.ndarray | None = None,
    stats: SortStats | None = None,
) -> StringSet:
    """Adaptive 16/8-bit MSD radix sort.

    Subproblems of at least RADIX16_THRESHOLD strings are stably
    distributed out of place on two-character digits, alternating the
    roles of the primary and swap arrays per level.  The smaller ones are
    collected in primary and sorted by one in-place 8-bit radix8_items
    call, whose leaves end in word_leaves.
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
        src, dst = (primary, swap) if src_primary else (swap, primary)
        digs = _digits16(sset, src[lo:hi], d)
        if (digs == digs[0]).all():  # one bucket: equal strings, or a shared prefix to skip
            if not digs[0] & 0xFF or (d := skip_shared(sset, src[lo:hi], d + 2)) is None:
                if not src_primary:
                    primary[lo:hi] = swap[lo:hi]
                continue
            digs = _digits16(sset, src[lo:hi], d)
        bounds = _distribute(src[lo:hi], digs, 16, dst[lo:hi])
        children, finished = radix_children(bounds, lo, d, 16)
        if src_primary:
            for clo, chi in finished:
                primary[clo:chi] = swap[clo:chi]
        stack.extend((clo, chi, cd, not src_primary) for clo, chi, cd in children)
    radix8_items(sset, primary, small)
    return sset.with_handles(primary)
