"""MSD radix sort: one in-place loop with 16-bit or 8-bit digits.

Every step stably sorts its range in place on the handle array with
basecase.distribute, one numpy argsort of the digits and one bincount,
so equal strings keep their input order.  A step whose digits are all
equal either ends equal strings or first lets skip_shared move its depth
a word at a time past the prefix the range shares.  radix8 takes 8-bit
steps everywhere; radix16 takes the digit_width of each range, 16-bit
steps on ranges of at least RADIX16_THRESHOLD strings and 8-bit steps on
smaller ones (Kärkkäinen and Rantala, SPIRE 2008).  bucket_spans decides
which buckets recurse.  Each step hands them all to the sort's one
LeafCollector at once, which keeps the leaves, sorts them together with
basecase.word_leaves, and returns the larger buckets.
"""

from __future__ import annotations

import numpy as np

from .basecase import LeafCollector, distribute, word_leaves
from .counters import SortStats
from .strset import WORD_CHARS, StringSet, first_diff_byte, first_zero_byte

RADIX16_THRESHOLD = 65536


def digit_width(size: int) -> int:
    """The digit bits of a 16/8-bit step over `size` strings."""
    return 16 if size >= RADIX16_THRESHOLD else 8


def _digits8(sset: StringSet, work: np.ndarray, lo: int, hi: int, depth: int) -> np.ndarray:
    return sset.char_array()[work[lo:hi] + depth]


def _digits16(sset: StringSet, seg: np.ndarray, depth: int) -> np.ndarray:
    arr = sset.char_array()
    c1 = arr[seg + depth].astype(np.uint16)
    idx2 = np.clip(seg + depth + 1, 0, len(arr) - 1)
    c2 = np.where(c1 == 0, 0, arr[idx2]).astype(np.uint16)
    return (c1 << 8) | c2


def step_digits(
    sset: StringSet, work: np.ndarray, lo: int, hi: int, depth: int, width: int
) -> np.ndarray:
    """The `width`-bit (16 or 8) digits at `depth` of the strings at work[lo:hi]."""
    if width == 16:
        return _digits16(sset, work[lo:hi], depth)
    return _digits8(sset, work, lo, hi, depth)


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
    wide: bool = False,
) -> None:
    """In-place MSD radix sort of several independent (lo, hi, depth) ranges of work.

    A step stably sorts work[lo:hi] in place by its strings' digits at the
    range's depth: digit_width(hi - lo) bits when `wide`, else 8.  Its
    children recurse one digit deeper.  The seeds and the children of a
    step go to the sort's LeafCollector in one take_many each, so only
    the larger ranges it returns enter the stack and the share hook; the
    collector is flushed at the end.
    """
    leaves = LeafCollector(sset, work, None, None, SortStats(), word_leaves)
    stack = leaves.take_many(*np.asarray(items, dtype=np.int64).reshape(-1, 3).T).tolist()
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                break  # the collected leaves are still sorted
        lo, hi, d = stack.pop()
        width = digit_width(hi - lo) if wide else 8
        digs = step_digits(sset, work, lo, hi, d, width)
        if (digs == digs[0]).all():  # one bucket: equal strings, or a shared prefix to skip
            if not digs[0] & 0xFF or (d := skip_shared(sset, work[lo:hi], d + width // 8)) is None:
                continue
            digs = step_digits(sset, work, lo, hi, d, width)
        bounds = distribute(work[lo:hi], digs, 1 << width)
        starts, ends, recurse = bucket_spans(bounds, lo)
        stack += leaves.take_many(starts[recurse], ends[recurse], d + width // 8)[::-1].tolist()
    leaves.flush()


def radix8_inplace(sset: StringSet) -> StringSet:
    """8-bit in-place MSD radix sort of a whole set."""
    work = sset.handles.copy()
    radix8_range(sset, work, 0, len(work), 0)
    return sset.with_handles(work)


def radix16_adaptive(sset: StringSet) -> StringSet:
    """Adaptive 16/8-bit in-place MSD radix sort of a whole set: 16-bit
    steps on ranges of at least RADIX16_THRESHOLD strings."""
    work = sset.handles.copy()
    radix8_items(sset, work, [(0, len(work), 0)], wide=True)
    return sset.with_handles(work)
