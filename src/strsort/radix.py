"""MSD radix sorts: 8-bit in-place and adaptive 16/8-bit out-of-place.

Every step stably sorts its range by one numpy argsort of the digits and
takes the bucket bounds from one bincount, so equal strings keep their
input order.  A step whose digits are all equal either ends equal strings
or first lets skip_shared move its depth a word at a time past the prefix
the range shares.  The 8-bit variant sorts each range in place on the
handle array.  The adaptive variant distributes out of place through a
swap array, using 16-bit digits for large subproblems, and hands its
other small ones to one in-place 8-bit sort.  bucket_spans decides which
buckets recurse.  Buckets below basecase.LEAF_THRESHOLD strings are
leaves: each step selects them with numpy masks and hands them all to
the sort's one LeafCollector at once, which sorts them together with
basecase.word_leaves.
"""

from __future__ import annotations

import itertools

import numpy as np

from .basecase import LEAF_THRESHOLD, LeafCollector, word_leaves
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


def bucket_spans(bounds: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonempty buckets of one radix step over [lo, ...): (starts, ends, recurse).

    Bucket b holds the strings whose digit is b and occupies
    [lo + bounds[b], lo + bounds[b + 1]); the nonempty ones tile the range
    in digit order.  A digit with a zero low byte ends its strings and a
    single string is sorted, so only the other buckets recurse.
    """
    digits = np.flatnonzero(np.diff(bounds))
    starts = lo + bounds[digits]
    ends = lo + bounds[digits + 1]
    return starts, ends, ((digits & 0xFF) != 0) & (ends - starts > 1)


def radix8_range(sset: StringSet, work: np.ndarray, lo: int, hi: int, depth: int) -> None:
    """In-place 8-bit MSD radix sort of work[lo:hi] sharing a `depth` prefix."""
    radix8_items(sset, work, [(lo, hi, depth)])


def radix8_items(
    sset: StringSet,
    work: np.ndarray,
    items: list[tuple[int, int, int]],
    share=None,
    leaves: LeafCollector | None = None,
) -> None:
    """radix8_range seeded with several independent (lo, hi, depth) ranges.

    A step stably sorts work[lo:hi] in place by the strings' characters at
    the range's depth; its children recurse one character deeper.  The
    seeds and children that are leaves go to `leaves`, a collector over
    work, in one take_many each, so only larger ranges enter the stack
    and the share hook; the collector is flushed at the end.  By default
    it is a new one.
    """
    if leaves is None:
        leaves = LeafCollector(sset, work, None, None, SortStats(), word_leaves)
    rows = np.asarray(items, dtype=np.int64).reshape(-1, 3)
    sizes = rows[:, 1] - rows[:, 0]
    leaf = sizes < LEAF_THRESHOLD
    leaves.take_many(*rows[leaf & (sizes > 1)].T)
    stack = [tuple(row) for row in rows[~leaf].tolist()]
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                break  # the collected leaves are still sorted
        lo, hi, d = stack.pop()
        digs = _digits8(sset, work, lo, hi, d)
        if (digs == digs[0]).all():  # one bucket: equal strings, or a shared prefix to skip
            if not digs[0] or (d := skip_shared(sset, work[lo:hi], d + 1)) is None:
                continue
            digs = _digits8(sset, work, lo, hi, d)
        bounds = _distribute(work[lo:hi], digs, 8, work[lo:hi])
        starts, ends, recurse = bucket_spans(bounds, lo)
        leaf = recurse & (ends - starts < LEAF_THRESHOLD)
        leaves.take_many(starts[leaf], ends[leaf], d + 1)
        big = recurse & ~leaf
        stack += zip(starts[big][::-1].tolist(), ends[big][::-1].tolist(), itertools.repeat(d + 1))
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
    roles of the primary and swap arrays per level.  Each step selects its
    buckets with numpy masks: the finished ones and those below
    RADIX16_THRESHOLD are settled in primary with one masked copy, the
    leaf buckets go to one LeafCollector in one take_many, and the other
    small ones are sorted by one in-place 8-bit radix8_items call at the
    end, which shares that collector.
    """
    n = len(sset)
    primary = sset.handles.copy()
    if n < RADIX16_THRESHOLD:
        radix8_items(sset, primary, [(0, n, depth)])
        return sset.with_handles(primary)
    if swap is None:
        swap = np.empty(n, dtype=np.int64)
        if stats is not None:
            stats.scratch_words += n
    if len(swap) < n:
        raise ValueError("swap array smaller than the input")
    leaves = LeafCollector(sset, primary, None, None, SortStats(), word_leaves)
    small = []  # (lo, hi, depth) of LEAF_THRESHOLD to RADIX16_THRESHOLD - 1 strings
    # (lo, hi, depth, src_is_primary) of at least RADIX16_THRESHOLD strings
    stack: list[tuple[int, int, int, bool]] = [(0, n, depth, True)]
    while stack:
        lo, hi, d, src_primary = stack.pop()
        src, dst = (primary, swap) if src_primary else (swap, primary)
        digs = _digits16(sset, src[lo:hi], d)
        if (digs == digs[0]).all():  # one bucket: equal strings, or a shared prefix to skip
            if not digs[0] & 0xFF or (d := skip_shared(sset, src[lo:hi], d + 2)) is None:
                if not src_primary:
                    primary[lo:hi] = swap[lo:hi]
                continue
            digs = _digits16(sset, src[lo:hi], d)
        bounds = _distribute(src[lo:hi], digs, 16, dst[lo:hi])
        starts, ends, recurse = bucket_spans(bounds, lo)
        sizes = ends - starts
        leaf = recurse & (sizes < LEAF_THRESHOLD)
        big = recurse & (sizes >= RADIX16_THRESHOLD) & ~leaf
        if src_primary:  # every bucket but the big ones is settled in primary
            np.copyto(primary[lo:hi], swap[lo:hi], where=np.repeat(~big, sizes))
        leaves.take_many(starts[leaf], ends[leaf], d + 2)
        medium = recurse & ~leaf & ~big
        small += zip(starts[medium].tolist(), ends[medium].tolist(), itertools.repeat(d + 2))
        stack += zip(
            starts[big].tolist(), ends[big].tolist(), itertools.repeat(d + 2), itertools.repeat(not src_primary)
        )
    radix8_items(sset, primary, small, leaves=leaves)
    return sset.with_handles(primary)
