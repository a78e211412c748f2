"""Super scalar string sample sort: word-key classification against a splitter tree.

One step draws a seeded sample of word keys at the current depth, selects
v = 2^d - 1 splitters into a perfect binary search tree, classifies every
string into 2v+1 buckets (even buckets hold ranges between splitters, odd
bucket 2i+1 holds exact word matches with in-order splitter i), and
redistributes handles out of place.  Equality buckets recurse with the
depth advanced by a full word; range buckets advance by the LCP of their
bounding splitters.  Classification is branch-free: all descents proceed in
lockstep over the whole batch, one tree level per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basecase import INSERTION_THRESHOLD, SortedWithLcp, lcp_insertion_core
from .counters import SortStats
from .mkqs import mkqs_cached_range
from .strset import (
    LCP_UNDEF,
    WORD_CHARS,
    StringSet,
    extract_keys,
    shared_chars,
    word_terminator_pos,
)

DEFAULT_V = 8191
OVERSAMPLE = 2  # alpha
T_MEDIUM = 1 << 20  # below this: caching multikey quicksort


@dataclass
class SplitterTree:
    """v splitter words in level order plus in-order metadata.

    tree[1..v] is the level-order layout of the balanced BST over the
    ascending in-order splitters.  slcp[i] is the shared character count of
    in-order splitters i-1 and i (boundary entries 0), eq_final marks
    splitters whose word covers their string's terminator, and eq_leftmost
    maps each in-order position to the first position holding an equal key
    so duplicate splitters classify identically in both variants.
    """

    v: int
    tree: np.ndarray  # uint64, index 0 unused
    inorder: np.ndarray  # uint64, ascending
    node_to_inorder: np.ndarray  # int64, index 0 unused
    slcp: np.ndarray  # int64, length v+1
    eq_final: np.ndarray  # bool, per in-order splitter
    eq_leftmost: np.ndarray  # int64, per in-order splitter
    term_pos: np.ndarray  # int64, chars before the splitter word's terminator

    @property
    def depth_levels(self) -> int:
        return int(self.v + 1).bit_length() - 1

    @property
    def num_buckets(self) -> int:
        return 2 * self.v + 1


def tree_capacity(n: int, v: int = DEFAULT_V) -> int:
    """Largest 2^d - 1 <= min(v, max(1, n // 2)): the sample must not exceed n."""
    limit = min(v, max(1, n // 2))
    d = limit.bit_length()
    while (1 << d) - 1 > limit:
        d -= 1
    return max(1, (1 << d) - 1)


def draw_sample(sset: StringSet, handles: np.ndarray, depth: int, v: int, rng) -> np.ndarray:
    """v*alpha + alpha - 1 word keys from seeded random strings, sorted."""
    count = v * OVERSAMPLE + OVERSAMPLE - 1
    idx = rng.integers(0, len(handles), size=count)
    keys = extract_keys(sset, handles[idx], depth)
    keys.sort()
    return keys


def select_splitters(sample: np.ndarray, v: int) -> SplitterTree:
    """Recursive middle selection of v splitters from a sorted sample.

    The middle sample of each range becomes the middle splitter; the scan
    then skips samples equal to it on both sides before recursing, so the
    same key is reused only when a subrange runs out of distinct values.
    """
    inorder = np.empty(v, dtype=np.uint64)

    def fill(slot_lo: int, slot_hi: int, a: int, b: int) -> None:
        if slot_lo >= slot_hi:
            return
        mid_slot = (slot_lo + slot_hi) // 2
        if a >= b:
            # subrange exhausted by duplicate skipping; reuse the parent pick
            inorder[slot_lo:slot_hi] = inorder[mid_slot] = _parent_value[0]
            return
        m = (a + b) // 2
        x = sample[m]
        inorder[mid_slot] = x
        b2 = m
        while b2 > a and sample[b2 - 1] == x:
            b2 -= 1
        a2 = m + 1
        while a2 < b and sample[a2] == x:
            a2 += 1
        keep = _parent_value[0]
        _parent_value[0] = x
        fill(slot_lo, mid_slot, a, b2)
        fill(mid_slot + 1, slot_hi, a2, b)
        _parent_value[0] = keep

    _parent_value = [sample[len(sample) // 2]]
    fill(0, v, 0, len(sample))

    tree = np.zeros(v + 1, dtype=np.uint64)
    node_to_inorder = np.zeros(v + 1, dtype=np.int64)

    def build(node: int, lo: int, hi: int) -> None:
        if lo >= hi:
            return
        mid = (lo + hi) // 2
        tree[node] = inorder[mid]
        node_to_inorder[node] = mid
        build(2 * node, lo, mid)
        build(2 * node + 1, mid + 1, hi)

    build(1, 0, v)

    slcp = np.zeros(v + 1, dtype=np.int64)
    for i in range(1, v):
        slcp[i] = shared_chars(int(inorder[i - 1]), int(inorder[i]))
    term_pos = np.array([word_terminator_pos(int(x)) for x in inorder], dtype=np.int64)
    eq_final = term_pos < WORD_CHARS

    eq_leftmost = np.zeros(v, dtype=np.int64)
    for i in range(1, v):
        eq_leftmost[i] = eq_leftmost[i - 1] if inorder[i] == inorder[i - 1] else i

    return SplitterTree(
        v, tree, inorder, node_to_inorder, slcp, eq_final, eq_leftmost, term_pos
    )


def classify_keys(keys: np.ndarray, tree: SplitterTree, variant: str = "unroll") -> np.ndarray:
    """Bucket index in [0, 2v] for each key.

    unroll: full descent with one <=-step per level, then a single equality
    test against the adjacent in-order splitter.  equal: an equality test at
    every node with early exit, the tree-order hit mapped back to its
    bucket.  Both yield identical oracles.
    """
    v = tree.v
    n = len(keys)
    idx = np.ones(n, dtype=np.int64)
    if variant == "unroll":
        for _ in range(tree.depth_levels):
            idx = 2 * idx + (keys > tree.tree[idx])
        leaf = idx - (v + 1)
        bucket = 2 * leaf
        probe = np.minimum(leaf, v - 1)
        eq = (leaf < v) & (keys == tree.inorder[probe])
        bucket[eq] += 1
        return bucket
    if variant == "equal":
        bucket = np.full(n, -1, dtype=np.int64)
        for _ in range(tree.depth_levels):
            vals = tree.tree[idx]
            hit = (bucket < 0) & (keys == vals)
            if hit.any():
                bucket[hit] = 2 * tree.eq_leftmost[tree.node_to_inorder[idx[hit]]] + 1
            step = 2 * idx + (keys > vals)
            idx = np.where(bucket >= 0, 1, step)
        left = bucket < 0
        bucket[left] = 2 * (idx[left] - (v + 1))
        return bucket
    raise ValueError(f"unknown classify variant: {variant}")


def bucket_word_range(oracle: np.ndarray, keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest word of each of k buckets; empty buckets hold (max, 0)."""
    mins = np.full(k, np.iinfo(np.uint64).max, dtype=np.uint64)
    maxs = np.zeros(k, dtype=np.uint64)
    np.minimum.at(mins, oracle, keys)
    np.maximum.at(maxs, oracle, keys)
    return mins, maxs


@dataclass
class StepRecord:
    """Trace of one classification step, for bucket-property checks."""

    lo: int
    hi: int
    depth: int
    bounds: np.ndarray
    child_depths: np.ndarray
    tree: SplitterTree


@dataclass
class S5Context:
    sset: StringSet
    cur: np.ndarray
    other: np.ndarray
    cache: np.ndarray  # word cache shared by the mkqs leaves
    lcps: np.ndarray | None
    stats: SortStats
    seed: int
    variant: str
    step_hook: object = None
    t_medium: int = T_MEDIUM


def write_boundary_lcps(
    lcps: np.ndarray,
    lo: int,
    depth: int,
    bounds: np.ndarray,
    mins: np.ndarray,
    maxs: np.ndarray,
) -> None:
    """LCPs at bucket boundaries from the classification words.

    Adjacent buckets hold disjoint word ranges, so the LCP of the last
    string of one bucket and the first of the next is the depth plus the
    shared characters of the left bucket's maximum word and the right
    bucket's minimum word.  mins/maxs come from bucket_word_range.
    """
    nonempty = np.flatnonzero(np.diff(bounds))
    for left, right in zip(nonempty[:-1], nonempty[1:]):
        lcps[lo + int(bounds[right])] = depth + shared_chars(int(maxs[left]), int(mins[right]))


def finish_buckets(
    ctx: S5Context, tree: SplitterTree, bounds: np.ndarray, lo: int, depth: int, in_cur: bool
) -> list[tuple[int, int, int, bool]]:
    """Settle the buckets of one step that moved src -> dst; return the rest.

    Equality buckets whose splitter covers the terminator hold equal strings
    and single-string buckets are sorted: both are copied into ctx.cur.  The
    other buckets come back as (lo, hi, depth, data_in_cur) subproblems.
    """
    depths = child_depths(tree, depth)
    out_cur = not in_cur
    children = []
    for i in np.flatnonzero(np.diff(bounds)):
        clo, chi = lo + int(bounds[i]), lo + int(bounds[i + 1])
        equal = i % 2 == 1 and tree.eq_final[i // 2]
        if not equal and chi - clo > 1:
            children.append((clo, chi, int(depths[i]), out_cur))
            continue
        if not out_cur:
            ctx.cur[clo:chi] = ctx.other[clo:chi]
        if equal and ctx.lcps is not None and chi - clo > 1:
            ctx.lcps[clo + 1 : chi] = depth + int(tree.term_pos[i // 2])
    return children


def _insertion_leaf(ctx: S5Context, work: np.ndarray, lo: int, hi: int, depth: int) -> None:
    handles, lcps = lcp_insertion_core(
        ctx.sset.buffer, [int(x) for x in work[lo:hi]], depth, ctx.stats
    )
    work[lo:hi] = handles
    if ctx.lcps is not None and hi - lo > 1:
        ctx.lcps[lo + 1 : hi] = np.asarray(lcps[1:], dtype=np.int64)


def _mkqs_leaf(ctx: S5Context, lo: int, hi: int, depth: int) -> None:
    ctx.cache[lo:hi] = extract_keys(ctx.sset, ctx.cur[lo:hi], depth)
    ctx.stats.word_fetches += hi - lo
    mkqs_cached_range(ctx.sset, ctx.cur, ctx.cache, lo, hi, depth, ctx.lcps, ctx.stats)


def s5_step(
    ctx: S5Context, src: np.ndarray, dst: np.ndarray, lo: int, hi: int, depth: int
) -> tuple[np.ndarray, SplitterTree]:
    """One classification/distribution step; returns (bounds, tree).

    With ctx.lcps set, the LCPs at the bucket boundaries are written too.
    """
    n = hi - lo
    v = tree_capacity(n)
    rng = np.random.default_rng((ctx.seed, lo, hi, depth))
    sample = draw_sample(ctx.sset, src[lo:hi], depth, v, rng)
    tree = select_splitters(sample, v)
    keys = extract_keys(ctx.sset, src[lo:hi], depth)
    oracle = classify_keys(keys, tree, ctx.variant)
    counts = np.bincount(oracle, minlength=tree.num_buckets)
    bounds = np.zeros(tree.num_buckets + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    order = np.argsort(oracle, kind="stable")
    dst[lo:hi] = src[lo:hi][order]
    if ctx.lcps is not None:
        mins, maxs = bucket_word_range(oracle, keys, tree.num_buckets)
        write_boundary_lcps(ctx.lcps, lo, depth, bounds, mins, maxs)
    return bounds, tree


def child_depths(tree: SplitterTree, depth: int) -> np.ndarray:
    """Common-prefix credit per bucket: slcp for even buckets, a full word
    (capped at the splitter's terminator) for equality buckets."""
    k = tree.num_buckets
    depths = np.empty(k, dtype=np.int64)
    depths[0::2] = depth + tree.slcp
    depths[1::2] = depth + tree.term_pos
    return depths


def s5_sort_items(
    ctx: S5Context,
    items: list[tuple[int, int, int, bool]],
    share=None,
) -> None:
    """Recursive sample-sort driver over independent (lo, hi, depth, data_in_cur)
    subproblems; results land in ctx.cur."""
    stack = list(items)
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                return
        lo, hi, d, in_cur = stack.pop()
        n = hi - lo
        src = ctx.cur if in_cur else ctx.other
        if n < ctx.t_medium:
            if not in_cur:
                ctx.cur[lo:hi] = src[lo:hi]
            if n < 2:
                continue
            if n < INSERTION_THRESHOLD:
                _insertion_leaf(ctx, ctx.cur, lo, hi, d)
            else:
                _mkqs_leaf(ctx, lo, hi, d)
            continue
        dst = ctx.other if in_cur else ctx.cur
        bounds, tree = s5_step(ctx, src, dst, lo, hi, d)
        if ctx.step_hook is not None:
            ctx.step_hook(StepRecord(lo, hi, d, bounds, child_depths(tree, d), tree))
        stack.extend(finish_buckets(ctx, tree, bounds, lo, d, in_cur))


def s5_sort(
    sset: StringSet,
    depth: int = 0,
    want_lcps: bool = False,
    variant: str = "unroll",
    seed: int = 1,
    stats: SortStats | None = None,
    step_hook=None,
    t_medium: int = T_MEDIUM,
) -> StringSet | SortedWithLcp:
    """Sample sort a set; with want_lcps returns SortedWithLcp."""
    stats = stats if stats is not None else SortStats()
    n = len(sset)
    cur = sset.handles.copy()
    other = np.empty(n, dtype=np.int64)
    cache = np.zeros(n, dtype=np.uint64)
    stats.scratch_words += n
    lcps = np.full(n, LCP_UNDEF, dtype=np.int64) if want_lcps else None
    ctx = S5Context(sset, cur, other, cache, lcps, stats, seed, variant, step_hook, t_medium)
    s5_sort_items(ctx, [(0, n, depth, True)])
    out = sset.with_handles(cur)
    if not want_lcps:
        return out
    return SortedWithLcp(out, lcps, None, stats)
