"""Super scalar string sample sort: word-key classification against a splitter tree.

One step draws a seeded sample of word keys at the current depth, selects
v = 2^d - 1 splitters into a perfect binary search tree, classifies every
string into 2v+1 buckets (even buckets hold ranges between splitters, odd
bucket 2i+1 holds exact word matches with in-order splitter i), and stably
redistributes the handles in place.  The tree is implicit: node 2^l + j
(level l, 0 <= j < 2^l) holds in-order splitter (2j+1)*2^(d-l-1) - 1, so
the tree is built and its buckets are settled in numpy passes.  Equality
buckets recurse with the depth advanced by a full word; range buckets
advance by the LCP of their bounding splitters.  Classification is
branch-free: all descents proceed in lockstep over the whole batch, one
tree level per pass.  Subproblems below the medium threshold are sorted by
caching multikey quicksort, whose small ranges end in basecase.word_leaves.
DEFAULT_V is 255, not the paper's 8191 sized for a core's L2 cache: here a
tree level is a numpy pass over the keys, a bucket a Python-level subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basecase import SortedWithLcp, distribute, range_positions, range_rows
from .counters import SortStats
from .mkqs import mkqs_cached_items
from .strset import LCP_UNDEF, WORD_CHARS, StringSet, extract_keys, first_zero_byte, shared_chars

DEFAULT_V = 255  # 8 levels: a level is a numpy pass, a bucket a Python subproblem
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


def tree_capacity(n: int) -> int:
    """Largest 2^d - 1 <= min(DEFAULT_V, max(1, n // 2)): the sample must not exceed n."""
    limit = min(DEFAULT_V, max(1, n // 2))
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
    """Middle selection of v = 2^d - 1 splitters from a sorted sample, one
    tree level per pass.

    Each node owns a range [a, b) of the sample: the root all of it.  Its
    splitter is the middle sample x; its children own the samples below and
    above the run of samples equal to x, so the same key is reused only when
    a range runs out of distinct values, and an empty range takes its
    parent's splitter.  Node 2^l + j of level l is in-order splitter
    (2j+1)*2^(d-l-1) - 1.
    """
    d = (v + 1).bit_length() - 1
    inorder = np.empty(v, dtype=np.uint64)
    tree = np.zeros(v + 1, dtype=np.uint64)
    node_to_inorder = np.zeros(v + 1, dtype=np.int64)
    a = np.zeros(1, dtype=np.int64)
    b = np.full(1, len(sample), dtype=np.int64)
    x = sample[:1]  # never used: the root's range holds the whole sample
    for level in range(d):
        x = np.where(a < b, sample[np.minimum((a + b) // 2, len(sample) - 1)], x)
        step = 1 << (d - level)
        slots = np.arange(step // 2 - 1, v, step)
        inorder[slots] = tree[1 << level : 2 << level] = x
        node_to_inorder[1 << level : 2 << level] = slots
        # np.clip gives b where a > b, so an empty range has empty children
        below = np.clip(np.searchsorted(sample, x, "left"), a, b)
        above = np.clip(np.searchsorted(sample, x, "right"), a, b)
        a = np.stack([a, above], axis=1).ravel()
        b = np.stack([below, b], axis=1).ravel()
        x = np.repeat(x, 2)

    slcp = np.zeros(v + 1, dtype=np.int64)
    slcp[1:v] = shared_chars(inorder[:-1], inorder[1:])
    term_pos = first_zero_byte(inorder).astype(np.int64)
    eq_final = term_pos < WORD_CHARS

    first = np.ones(v, dtype=bool)
    first[1:] = inorder[1:] != inorder[:-1]
    eq_leftmost = np.maximum.accumulate(np.where(first, np.arange(v), 0))

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
class S5Context:
    sset: StringSet
    cur: np.ndarray  # handles; every step and leaf sorts its range here in place
    cache: np.ndarray  # word cache shared by the mkqs leaves
    lcps: np.ndarray | None
    stats: SortStats
    seed: int
    variant: str


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
    left, right = nonempty[:-1], nonempty[1:]
    lcps[lo + bounds[right]] = depth + shared_chars(maxs[left], mins[right])


def finish_buckets(
    ctx: S5Context, tree: SplitterTree, bounds: np.ndarray, lo: int, depth: int
) -> np.ndarray:
    """Settle the buckets of one step over ctx.cur; return the rest.

    Bucket i occupies [lo + bounds[i], lo + bounds[i + 1]) of ctx.cur; odd
    bucket 2k+1 holds the words equal to in-order splitter k, which sits at
    node 2^l + j with k = (2j+1)*2^(d-l-1) - 1.  Equality buckets whose
    splitter covers the terminator hold equal strings (LCP = child depth),
    written to ctx.lcps when it is set, and single-string buckets are
    sorted.  The other buckets come back as (m, 3) rows (lo, hi, depth).
    """
    nonempty = np.flatnonzero(np.diff(bounds))
    starts = lo + bounds[nonempty]
    ends = lo + bounds[nonempty + 1]
    depths = child_depths(tree, depth)[nonempty]
    final = np.zeros(tree.num_buckets, dtype=bool)
    final[1::2] = tree.eq_final
    equal = final[nonempty]
    if ctx.lcps is not None:
        pos, lcp, _ = range_positions(starts[equal] + 1, ends[equal], depths[equal])
        ctx.lcps[pos] = lcp
    recurse = ~equal & (ends - starts > 1)
    return range_rows(starts[recurse], ends[recurse], depths[recurse])


def _mkqs_leaves(ctx: S5Context, items: list[tuple[int, int, int]]) -> None:
    """Caching mkqs of (lo, hi, depth) ranges of ctx.cur, after one fetch of their words."""
    if not items:
        return
    pos, depth, _ = range_positions(*zip(*items))
    ctx.cache[pos] = extract_keys(ctx.sset, ctx.cur[pos], depth)
    ctx.stats.word_fetches += len(pos)
    mkqs_cached_items(ctx.sset, ctx.cur, ctx.cache, items, ctx.lcps, ctx.stats)


def step_tree(ctx: S5Context, lo: int, hi: int, depth: int, stats: SortStats) -> SplitterTree:
    """The splitter tree of a step over ctx.cur[lo:hi] from its seeded sample.

    Charges stats the sample's word fetches and the step's hi - lo.
    """
    v = tree_capacity(hi - lo)
    rng = np.random.default_rng((ctx.seed, lo, hi, depth))
    sample = draw_sample(ctx.sset, ctx.cur[lo:hi], depth, v, rng)
    stats.word_fetches += len(sample) + hi - lo
    return select_splitters(sample, v)


def s5_step(ctx: S5Context, lo: int, hi: int, depth: int) -> tuple[np.ndarray, SplitterTree]:
    """One classification step that stably sorts ctx.cur[lo:hi] in place by
    bucket; returns (bounds, tree).

    With ctx.lcps set, the LCPs at the bucket boundaries are written too.
    """
    tree = step_tree(ctx, lo, hi, depth, ctx.stats)
    seg = ctx.cur[lo:hi]
    keys = extract_keys(ctx.sset, seg, depth)
    oracle = classify_keys(keys, tree, ctx.variant)
    # at most 2 * DEFAULT_V + 1 = 511 buckets: 16-bit keys
    bounds = distribute(seg, oracle.astype(np.uint16), tree.num_buckets)
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


def s5_sort_items(ctx: S5Context, items, share=None) -> None:
    """Recursive sample-sort driver over independent (lo, hi, depth)
    subproblems of ctx.cur, an (m, 3) array or a list of 3-tuples.

    Subproblems below T_MEDIUM strings are collected and sorted together by
    caching mkqs when the loop ends, also when the share hook empties the
    stack.
    """
    stack = np.asarray(items, dtype=np.int64).reshape(-1, 3).tolist()
    medium = []
    while stack:
        if share is not None:
            share(stack)
            if not stack:
                break
        lo, hi, d = stack.pop()
        if hi - lo < T_MEDIUM:
            if hi - lo > 1:
                medium.append((lo, hi, d))
            continue
        bounds, tree = s5_step(ctx, lo, hi, d)
        stack += finish_buckets(ctx, tree, bounds, lo, d).tolist()
    _mkqs_leaves(ctx, medium)


def s5_sort(
    sset: StringSet,
    want_lcps: bool = False,
    variant: str = "unroll",
    seed: int = 1,
    stats: SortStats | None = None,
) -> StringSet | SortedWithLcp:
    """Sample sort a set; with want_lcps returns SortedWithLcp."""
    stats = stats if stats is not None else SortStats()
    n = len(sset)
    cur = sset.handles.copy()
    cache = np.zeros(n, dtype=np.uint64)
    lcps = np.full(n, LCP_UNDEF, dtype=np.int64) if want_lcps else None
    ctx = S5Context(sset, cur, cache, lcps, stats, seed, variant)
    s5_sort_items(ctx, [(0, n, 0)])
    out = sset.with_handles(cur)
    if not want_lcps:
        return out
    return SortedWithLcp(out, lcps, stats)
