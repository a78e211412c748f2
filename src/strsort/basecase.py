"""Recursion base cases: insertion sorts and the batched word-cached leaf.

Two insertion sorts are references: a plain one treating strings as atomic
suffixes, and an LCP-aware one that maintains the LCP array while inserting
and uses it to skip regions whose recorded LCP already proves a mismatch.
The LCP-aware variant charges one ternary character comparison per
character position it examines; its total stays within L + n(n-1)/2 where
L is the LCP sum of the sorted output.

Every other sorter ends its small subproblems in word_leaves: a driver's
LeafCollector gathers its ranges below LEAF_THRESHOLD strings, one at a
time or a step's worth at once, and caching mkqs's ranges of up to
LEAF_FLUSH strings whose sampled words are distinct; word_leaves sorts
all of them together, one 8-character word per string and level, in
numpy passes.
Each level orders its strings by (range, word) with stable_word_order,
two unstable numpy sorts in place of a two-key stable lexsort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counters import SortStats
from .strset import LCP_UNDEF, WORD_CHARS, StringSet, extract_keys, shared_chars

LEAF_THRESHOLD = 1024  # below this many strings, a range is always a word_leaves leaf
LEAF_FLUSH = 1 << 16  # collected leaf strings that make a driver sort them before going on


@dataclass
class SortedWithLcp:
    """A sorted set with its LCP array; entry 0 of lcps is the LCP_UNDEF sentinel."""

    set: StringSet
    lcps: np.ndarray
    stats: SortStats | None = None


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


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions [starts[i], starts[i] + lens[i]), concatenated in order."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def range_positions(lo, hi, depth) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions of the ranges [lo[i], hi[i]), concatenated in order,
    with each position's depth[i] and range index i."""
    lo, hi, depth = (np.asarray(col, dtype=np.int64) for col in (lo, hi, depth))
    sizes = hi - lo
    return concat_ranges(lo, sizes), np.repeat(depth, sizes), np.repeat(np.arange(len(sizes)), sizes)


def distribute(seg: np.ndarray, keys: np.ndarray, k: int, *extra: np.ndarray) -> np.ndarray:
    """Stably sort seg in place by its bucket keys, unsigned 8- or 16-bit
    ints below k, for which numpy's stable sort is a radix sort; returns the
    bucket bounds: bucket b occupies seg[bounds[b]:bounds[b + 1]].

    Each extra array, as long as seg, moves with it.  When one bucket holds
    every key, nothing moves.
    """
    sizes = np.bincount(keys, minlength=k)
    if np.count_nonzero(sizes) > 1:
        order = np.argsort(keys, kind="stable")
        for arr in (seg, *extra):
            arr[:] = arr[order]
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


@dataclass
class SortContext:
    """The arrays of one sort, whose steps and leaves sort ranges of cur in
    place; a sorter that caches words keeps string cur[i]'s in cache[i]."""

    sset: StringSet
    cur: np.ndarray
    cache: np.ndarray | None = None
    lcps: np.ndarray | None = None
    stats: SortStats = field(default_factory=SortStats)


def local_classifier(buckets, ctx: SortContext):
    """A step's in-process classify(lo, hi, k, arg) -> (bounds, [summary]):
    distribute ctx.cur[lo:hi] by the buckets below k of the sorter's bucket
    function, buckets(ctx, lo, hi, arg) -> (buckets, summary)."""

    def classify(lo: int, hi: int, k: int, arg):
        oracle, summary = buckets(ctx, lo, hi, arg)
        return distribute(ctx.cur[lo:hi], oracle, k), [summary]

    return classify


def range_rows(lo, hi, depth) -> np.ndarray:
    """The (m, 3) int64 rows (lo[i], hi[i], depth[i]); depth is one int or one per row."""
    return np.column_stack(np.broadcast_arrays(lo, hi, depth)).astype(np.int64, copy=False)


def stable_word_order(words: np.ndarray, group: np.ndarray) -> np.ndarray:
    """np.lexsort((words, group)): the stable order of the entries by (group, word).

    group holds nonnegative integers.  One unstable argsort orders and
    densely ranks the words; in that order each entry's group, word rank
    and index are packed into one uint64 key, which the index makes
    unique, so one unstable sort of the keys puts the indexes, their low
    bits, in lexsort's order exactly.  Keys that would need more than 64
    bits, which takes about 2^21 entries, fall back to lexsort.
    """
    n = len(words)
    if n < 2:
        return np.arange(n)
    by_word = np.argsort(words)
    sorted_words = words[by_word]
    rank = np.zeros(n, dtype=np.uint64)
    np.cumsum(sorted_words[1:] != sorted_words[:-1], out=rank[1:])
    index_bits = (n - 1).bit_length()
    group_shift = int(rank[-1]).bit_length() + index_bits
    if group_shift + int(group.max()).bit_length() > 64:
        return np.lexsort((words, group))
    # in place where numpy allows: fresh temporaries cost about as much as the passes
    key = group.astype(np.int64, copy=False)[by_word].view(np.uint64)
    key <<= np.uint64(group_shift)  # numpy shifts 64 bits to 0
    rank <<= np.uint64(index_bits)
    key |= rank
    key |= by_word.view(np.uint64)
    key.sort()
    key &= np.uint64((1 << index_bits) - 1)
    return key.view(np.int64)


def word_leaves(
    sset: StringSet,
    work: np.ndarray,
    cache: np.ndarray | None,
    items,
    lcps: np.ndarray | None,
    stats: SortStats,
) -> None:
    """Sort every range of work in place, all ranges at once.

    items holds one (lo, hi, depth) row per range: triples or a (k, 3)
    array.  The strings of a range share `depth` characters and cache[i]
    holds the word at that depth of the string work[i]; without a cache,
    the first level fetches those words, one word fetch per string.  Each
    level stably sorts every live string by (range, word) with one
    stable_word_order, so equal strings keep their order.  An adjacent
    pair of one range is settled at the first
    byte where its words differ or, for equal words, at their terminator;
    its LCP goes into lcps (the entry at lo is left to the caller) and
    LCP - depth + 1 into char_cmps.  Runs of equal words without a
    terminator become the ranges of the next level, one word deeper, and
    fetch that word: one word fetch per string and tied level.  cache is
    not reordered: no caller reads the words of a finished leaf.
    """
    lo, hi, depth = np.asarray(items, dtype=np.int64).reshape(-1, 3).T
    keep = hi - lo > 1
    if not keep.any():
        return
    slot, base, group = range_positions(lo[keep], hi[keep], depth[keep])
    handles = work[slot]
    if cache is None:
        words = extract_keys(sset, handles, base)
        stats.word_fetches += len(handles)
    else:
        words = cache[slot]
    level = 0
    while len(slot):
        # groups are contiguous and their slots ascend, so sorted entry i lands in slot[i]
        order = stable_word_order(words, group)
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


@dataclass
class LeafCollector:
    """Collects a driver's leaves and sorts them with word_leaves.

    take() keeps one range below LEAF_THRESHOLD strings, or of up to
    LEAF_FLUSH whose words the driver finds distinct, and take_many() the
    leaf ranges of a step at once; the kept ranges are sorted together once
    LEAF_FLUSH strings are pending and by the final flush(), so the
    leaves' temporaries stay within LEAF_FLUSH + LEAF_THRESHOLD strings.
    `sort` is word_leaves as the driver's module binds it, so a wrapper
    around that name sees the driver's leaves.
    """

    sset: StringSet
    work: np.ndarray
    cache: np.ndarray | None
    lcps: np.ndarray | None
    stats: SortStats
    sort: object
    items: list = field(default_factory=list)  # (lo, hi, depth) from take()
    chunks: list = field(default_factory=list)  # (k, 3) arrays of them from take_many()
    pending: int = 0

    def take(self, lo: int, hi: int, depth: int, distinct=None) -> bool:
        """Keep the (lo, hi, depth) range if it is a leaf; return whether it is.

        A leaf has fewer than LEAF_THRESHOLD strings, or at most LEAF_FLUSH
        if the driver's distinct(lo, hi) holds; before keeping such a range,
        the pending leaves it would take past LEAF_FLUSH are sorted."""
        n = hi - lo
        if n >= LEAF_THRESHOLD:
            if distinct is None or n > LEAF_FLUSH or not distinct(lo, hi):
                return False
            if self.pending + n > LEAF_FLUSH:
                self.flush()
        if n > 1:
            self.items.append((lo, hi, depth))
            self.pending += n
            if self.pending >= LEAF_FLUSH:
                self.flush()
        return True

    def take_many(self, rows: np.ndarray) -> np.ndarray:
        """Keep the leaves among the (m, 3) int64 rows (lo, hi, depth),
        flushing where take() would; return the others, of at least
        LEAF_THRESHOLD strings."""
        sizes = rows[:, 1] - rows[:, 0]
        big = sizes >= LEAF_THRESHOLD
        leaf = ~big & (sizes > 1)
        rest, rows = rows[big], rows[leaf]
        filled = self.pending + np.cumsum(sizes[leaf])  # pending strings after each range
        while len(rows):
            k = int(np.searchsorted(filled, LEAF_FLUSH))  # the range that fills a flush
            if k == len(rows):
                self.chunks.append(rows)
                self.pending = int(filled[-1])
                break
            self.chunks.append(rows[: k + 1])
            self.flush()
            rows, filled = rows[k + 1 :], filled[k + 1 :] - filled[k]
        return rest

    def flush(self) -> None:
        """Sort the pending leaves."""
        rows = np.concatenate([np.array(self.items, dtype=np.int64).reshape(-1, 3), *self.chunks])
        self.sort(self.sset, self.work, self.cache, rows, self.lcps, self.stats)
        self.items, self.chunks, self.pending = [], [], 0


def lcp_insertion_sort(
    sset: StringSet,
    depth: int = 0,
    stats: SortStats | None = None,
) -> SortedWithLcp:
    """LCP-aware insertion sort of a set with common prefix length `depth`."""
    stats = stats if stats is not None else SortStats()
    handles, lcps = lcp_insertion_core(
        sset.buffer, [int(v) for v in sset.handles], depth, stats
    )
    out = sset.with_handles(np.asarray(handles, dtype=np.int64))
    lcp_arr = np.asarray(lcps, dtype=np.int64) if handles else np.zeros(0, np.int64)
    return SortedWithLcp(out, lcp_arr, stats)
