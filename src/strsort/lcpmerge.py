"""LCP-aware comparison, binary merging, and the K-way LCP merge.

lcp_compare orders two strings that both trail a common predecessor p,
with their LCPs to p known.  Unequal LCPs decide the order without touching
a single character; equal LCPs compare characters from that position on,
and every matched character permanently raises the output LCP sum.
Character comparisons are counted per position examined.  The binary LCP
merge and mergesort are built on it.

The K-way LCP merge is not a tournament tree.  Its K sorted runs lie end
to end in one LcpRuns: one handle array, one LCP array and the position
where each run starts.  split_merge_jobs cuts the runs into independent
jobs by multiway splitting: splitters drawn by regular sampling, each
found in every run by binary search over the buffer's bytes,
O(K * m * log n) string reads for m jobs and no word fetch.  The strings
of a job share the LCP of its two bounding values, so each job's
run_merge_job splits it from that depth into groups of strings with equal
words, level by level in numpy over all its runs at once, from the LCP
array and one word fetch per block head and level, until every group is
copied: a group from one run, or a group of equal strings, in run order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .basecase import concat_ranges
from .counters import SortStats
from .strset import (
    LCP_UNDEF,
    WORD_CHARS,
    StringSet,
    extract_keys,
    first_zero_byte,
    shared_chars,
)

SENTINEL = -1  # stream-exhausted handle; larger than every real string
MERGE_POLL_INTERVAL = 4096  # emitted strings between scheduler polls


@dataclass
class LcpStream:
    """A sorted run with its LCP array, for binary_lcp_merge."""

    sset: StringSet
    handles: np.ndarray
    lcps: np.ndarray

    @property
    def length(self) -> int:
        return len(self.handles)


@dataclass
class LcpRuns:
    """K sorted runs laid end to end, with their LCPs.

    Run k is handles[starts[k]:starts[k+1]], with its LCPs at the same
    positions of lcps.  starts holds K + 1 non-decreasing positions from 0
    to len(handles), so a run may be empty.  A run's first LCP is never
    read.
    """

    sset: StringSet
    handles: np.ndarray
    lcps: np.ndarray
    starts: np.ndarray


# columns of MergeJob.blocks
POS, LEN, OUT, LCP, DEPTH = range(5)


@dataclass
class MergeJob:
    """Subranges of the runs that merge into one stretch of the output.

    blocks holds one row per block of consecutive strings of one run, in
    output order: POS and LEN locate it in the LcpRuns arrays; OUT is the
    output position of its group within the job; DEPTH is -1 for a copied
    group, else the depth a pending group is split from.  The blocks of one
    group lie in different runs, in run order, and share the group's OUT.
    A copied group's blocks follow each other from OUT, and each holds the
    LCP to write at its first string; a pending group's first block holds
    the group's LCP.  The first block's LCP is the one to the string before
    the job.  A job of split_merge_jobs is one pending group, one block per
    run at OUT 0, or one copied block; a job that pack_merge_jobs packs
    from a refined table holds copied groups only.
    """

    blocks: np.ndarray

    @property
    def size(self) -> int:
        return int(self.blocks[:, LEN].sum())


def lcp_compare(
    sset: StringSet,
    a: int,
    sa: int,
    ha: int,
    b: int,
    sb: int,
    hb: int,
    stats: SortStats,
) -> tuple[int, int, int, int]:
    """Order two strings by their LCPs to a common smaller predecessor.

    Arguments are (tag, handle, lcp-to-predecessor) per side.  Returns
    (x, h_x, y, h') with string x <= string y, {x, y} = {a, b}, and
    h' = lcp(string a, string b).  Only the equal-LCP case reads characters;
    ties fall to the first argument.
    """
    if sa == SENTINEL:
        return (b, hb, a, 0)
    if sb == SENTINEL:
        return (a, ha, b, 0)
    if ha == hb:
        buf = sset.buffer
        h = ha
        while True:
            ca = buf[sa + h]
            cb = buf[sb + h]
            stats.char_cmps += 1
            stats.merge_buffer_cmps += 1
            if ca != 0 and ca == cb:
                h += 1
                continue
            break
        if ca <= cb:
            return (a, ha, b, h)
        return (b, hb, a, h)
    if ha < hb:
        return (b, hb, a, ha)
    return (a, ha, b, hb)


def binary_lcp_merge(
    a: LcpStream,
    b: LcpStream,
    stats: SortStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted runs, maintaining LCPs relative to the last output."""
    stats = stats if stats is not None else SortStats()
    sset = a.sset
    na, nb = a.length, b.length
    n = na + nb
    out_h = np.empty(n, dtype=np.int64)
    out_l = np.empty(n, dtype=np.int64)
    ia = ib = 0
    h1 = h2 = 0
    j = 0
    ah, al = a.handles, a.lcps
    bh, bl = b.handles, b.lcps
    while ia + ib < n:
        s1 = int(ah[ia]) if ia < na else SENTINEL
        s2 = int(bh[ib]) if ib < nb else SENTINEL
        x, hx, y, hp = lcp_compare(sset, 1, s1, h1, 2, s2, h2, stats)
        if x == 1:
            out_h[j], out_l[j] = s1, h1
            ia += 1
            h1 = int(al[ia]) if ia < na else 0
            h2 = hp
        else:
            out_h[j], out_l[j] = s2, h2
            ib += 1
            h2 = int(bl[ib]) if ib < nb else 0
            h1 = hp
        j += 1
    out_l[:1] = LCP_UNDEF
    return out_h, out_l


def binary_lcp_mergesort(
    sset: StringSet, stats: SortStats | None = None
) -> tuple[StringSet, np.ndarray, SortStats]:
    """Mergesort with plain halving; comparisons stay within L + n*ceil(log2 n)."""
    stats = stats if stats is not None else SortStats()

    def rec(handles: np.ndarray) -> LcpStream:
        n = len(handles)
        if n <= 1:
            return LcpStream(sset, handles, np.zeros(n, dtype=np.int64))
        mid = n // 2
        left = rec(handles[:mid])
        right = rec(handles[mid:])
        h, l = binary_lcp_merge(left, right, stats)
        return LcpStream(sset, h, l)

    merged = rec(sset.handles.copy())
    lcps = merged.lcps.copy()
    if len(lcps):
        lcps[0] = LCP_UNDEF
    return sset.with_handles(merged.handles), lcps, stats


def kway_lcp_merge(runs: LcpRuns, stats: SortStats | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Merge K sorted runs with their LCPs.

    Runs the one job of split_merge_jobs: its strings share the LCP D of
    the smallest run head and the largest run tail, which the split reads,
    and run_merge_job splits every group from several runs from depth D to
    the end.  It compares no characters, and a string's word is fetched
    only at depths from D up to its larger output LCP h: at most
    1 + (h - D) // WORD_CHARS word fetches per string.
    """
    stats = stats if stats is not None else SortStats()
    n = len(runs.handles)
    out_h = np.empty(n, dtype=np.int64)
    out_l = np.empty(n, dtype=np.int64)
    for job in split_merge_jobs(runs, 1):  # at most one
        run_merge_job(runs, job, stats, out_h, out_l)
    if n:
        out_l[0] = LCP_UNDEF
    return out_h, out_l


def _index_type(sset: StringSet):
    """Positions, lengths and LCPs are below the buffer size."""
    return np.int32 if len(sset.buffer) < 2**31 else np.int64


def _split_levels(runs: LcpRuns, segs, parents, stats: SortStats) -> np.ndarray:
    """Split groups of run segments to the end, one word level at a time.

    segs = (parent, lo, hi) arrays locate each group's segments, one per
    run, as positions of the runs' arrays, each group's in run order;
    parents = (start, lead, depth) arrays give each group's output start,
    LCP to the string before it, and the depth of its next word.  A level
    cuts every active segment into blocks from the LCP array alone: a
    string joins its predecessor's block when their LCP reaches the
    segment's depth + WORD_CHARS, or when both are the same string ending
    at that LCP (in a sorted run the second holds exactly when the later
    string ends there).  It fetches the word of every block head at its
    depth in one extract_keys call, charged to stats.word_fetches, and
    orders the heads by one stable lexsort of (parent, word), so equal
    words keep run order.  Equal words form a group, and neighbouring
    groups share depth + shared_chars(words) characters.  A group from one
    run is one copied block.  When the word of a group from several runs
    holds the terminator, its strings are all equal and its blocks are
    copied in run order.  Otherwise the group recurses at depth +
    WORD_CHARS.  Returns the blocks table of copied groups, sorted by OUT,
    each group's blocks in run order.
    """
    w = WORD_CHARS
    sset = runs.sset
    chars = sset.char_array()
    itype = _index_type(sset)
    s_parent, s_lo, s_hi = (np.asarray(x, dtype=itype) for x in segs)
    p_start, p_lead, p_depth = (np.asarray(x, dtype=itype) for x in parents)
    tables = []
    # each level frees its head-sized arrays once spent: the one job of
    # kway_lcp_merge spans the whole input, and its peak memory is the merge's
    while len(s_lo):
        lens = s_hi - s_lo
        idx = concat_ranges(s_lo, lens)
        first = np.cumsum(lens) - lens
        # a string heads a block unless it shares the segment's word with
        # its predecessor or equals it; a segment's first string heads one
        lcps = runs.lcps[idx]
        head = lcps < np.repeat(p_depth[s_parent] + w, lens)
        head[first] = False
        cand = np.flatnonzero(head)
        head[cand[chars[runs.handles[idx[cand]] + lcps[cand]] == 0]] = False
        head[first] = True
        del lcps, cand
        at = np.flatnonzero(head)
        del head
        size = np.diff(at, append=len(idx)).astype(itype)
        parent = s_parent[np.searchsorted(first, at, side="right") - 1]
        pos = idx[at].astype(itype)
        del idx, at, first
        words = extract_keys(sset, runs.handles[pos], p_depth[parent])
        stats.word_fetches += len(pos)
        # the segments of a parent arrive in run order, each sorted
        order = np.lexsort((words, parent))
        pos, size, parent, words = (x[order] for x in (pos, size, parent, words))
        del order
        new = np.ones(len(pos), dtype=bool)
        new[1:] = (parent[1:] != parent[:-1]) | (words[1:] != words[:-1])
        first = np.flatnonzero(new)
        gid = np.cumsum(new, dtype=itype) - 1
        g_word = words[first]
        del words
        g_parent = parent[first]
        del parent
        g_depth = p_depth[g_parent]
        g_lead = np.empty(len(first), dtype=itype)
        g_lead[1:] = g_depth[1:] + shared_chars(g_word[:-1], g_word[1:])
        g_runs = np.diff(first, append=len(pos)).astype(itype)
        fz = first_zero_byte(g_word)
        del g_word
        g_depth += np.minimum(fz, w).astype(itype)
        # output start: the parent's start plus the sizes of its earlier groups
        g_size = np.add.reduceat(size, first)
        g_start = np.cumsum(g_size, dtype=itype) - g_size
        multi = g_runs > 1
        equal = multi & (fz < w)
        deeper = multi & ~equal
        del fz, g_size, multi
        pfirst = np.ones(len(first), dtype=bool)
        pfirst[1:] = g_parent[1:] != g_parent[:-1]
        g_start += p_start[g_parent] - g_start[np.maximum.accumulate(np.where(pfirst, np.arange(len(first)), 0))]
        g_lead[pfirst] = p_lead[g_parent[pfirst]]
        del pfirst, g_parent, first
        # the blocks of deeper groups are the next level's segments
        down = np.flatnonzero(deeper)
        p_start, p_lead, p_depth = g_start[down], g_lead[down], g_depth[down]
        rec = deeper[gid]
        at = np.flatnonzero(rec)
        s_parent = np.searchsorted(down, gid[at]).astype(itype)
        s_lo = pos[at]
        s_hi = s_lo + size[at]
        del down, deeper, at
        table = np.empty((len(pos), 5), dtype=itype)
        table[:, POS] = pos
        table[:, LEN] = size
        del pos, size
        table[:, OUT] = g_start[gid]
        # a later run of an equal group follows strings equal to its own
        table[:, LCP] = np.where(new, g_lead[gid], np.where(equal[gid], g_depth[gid], 0))
        table[:, DEPTH] = -1
        tables.append(table[~rec] if rec.any() else table)
        del table, rec, gid, new, equal
    if len(tables) == 1:  # parents are numbered in output order
        return tables[0]
    # deeper groups' blocks go between their neighbours; a group's blocks lie
    # in one level's table, in run order, and OUT differs between groups
    blocks = np.concatenate(tables)
    del tables
    return blocks[np.argsort(blocks[:, OUT], kind="stable")]


def _lcp_bytes(a: bytes, b: bytes) -> int:
    """LCP of two strings read from their starts, each with its terminator
    or further: the first position where the reads differ."""
    n = min(len(a), len(b))
    diff = np.frombuffer(a, np.uint8, n) != np.frombuffer(b, np.uint8, n)
    # equal reads both end in their strings' terminator
    return int(diff.argmax()) if diff.any() else n - 1


def split_merge_jobs(
    runs: LcpRuns,
    target_jobs: int,
) -> list[MergeJob]:
    """Split K sorted runs into independent merge jobs by sampled splitters.

    This is the first of two split stages.  With m = target_jobs (at most
    N), each non-empty run of length L gives the strings at i * L // m for
    i = 1 .. m-1 of it as samples (regular sampling), each standing for
    L / m strings.  In sorted order, splitter i is the sample at which
    these weights reach i * N / m; an equal splitter counts once.  Each
    splitter's lower bound in every run is found by binary search over the
    buffer's bytes, so equal strings never straddle two jobs.  A job holds
    the strings between two splitters, one table row per run with any
    (OUT = 0): a copied block when one run has them all, else one pending
    group at depth D, the LCP of the job's bounding values (its splitters,
    or the smallest run head and the largest run tail at the ends), which
    all its strings share.  Its first string equals its lower splitter, so
    the group's LCP to the string before the job is the largest LCP of the
    splitter to a run's string just before its lower bound; the first
    job's is 0, and the caller overwrites the output's first LCP.  The
    split reads at most K * m * (ceil(log2 N) + 2) strings and fetches no
    word.  The second stage, in run_merge_job, splits each job's pending
    group to the end.
    """
    handles = runs.handles
    total = len(handles)
    if total == 0:
        return []
    starts = runs.starts.tolist()
    spans = [(lo, hi) for lo, hi in zip(starts, starts[1:]) if lo < hi]
    sset = runs.sset
    itype = _index_type(sset)
    if len(spans) == 1:
        ((lo, hi),) = spans
        return [MergeJob(np.array([[lo, hi - lo, 0, 0, -1]], dtype=itype))]
    buf = sset.buffer

    def read(hs) -> list[bytes]:
        """Whole strings, terminators included."""
        hs = np.asarray(hs, dtype=np.int64)
        return [buf[h : e + 1] for h, e in zip(hs.tolist(), sset.ends(hs).tolist())]

    m = max(1, min(target_jobs, total))
    samples = [
        (s, hi - lo)
        for lo, hi in spans
        for s in read(handles[lo + np.arange(1, m) * (hi - lo) // m])
    ]
    splitters, reached, i = [], 0, 1
    for s, weight in sorted(samples):
        reached += weight  # m times the strings the samples so far stand for
        while i < m and reached >= i * total:
            if not splitters or splitters[-1] != s:
                splitters.append(s)
            i += 1
    # cuts[j][r]: where job j starts in the r-th non-empty run; leads[j]: its first LCP
    cuts = [[lo for lo, _ in spans]]
    leads = [0]
    for sp in splitters:
        width = len(sp)
        cut, lead = list(cuts[-1]), 0
        for r, (lo, hi) in enumerate(spans):
            # a string's first len(sp) bytes, read past its terminator if
            # need be, order against sp as the string does: sp's one zero
            # byte is its last
            cut[r] = bisect_left(handles, sp, cut[r], hi, key=lambda h: buf[h : h + width])
            if cut[r] > lo:
                h = int(handles[cut[r] - 1])
                lead = max(lead, _lcp_bytes(sp, buf[h : h + width]))
        cuts.append(cut)
        leads.append(lead)
    cuts.append([hi for _, hi in spans])
    bounds = [min(read(handles[[lo for lo, _ in spans]]))]
    bounds += splitters + [max(read(handles[[hi - 1 for _, hi in spans]]))]
    jobs = []
    for j, lead in enumerate(leads):
        rows = [(a, b - a) for a, b in zip(cuts[j], cuts[j + 1]) if b > a]
        if not rows:  # only before the first splitter: each holds itself
            continue
        depth = _lcp_bytes(bounds[j], bounds[j + 1]) if len(rows) > 1 else -1
        jobs.append(MergeJob(np.array([(*r, 0, lead, depth) for r in rows], dtype=itype)))
    return jobs


def pack_merge_jobs(blocks: np.ndarray, target_jobs: int) -> list[MergeJob]:
    """Pack a blocks table, with OUT counted from 0, into about target_jobs
    jobs: a job starts at the first group to begin in each 1/target_jobs of
    the output, so no job boundary falls inside a group."""
    total = int(blocks[:, LEN].sum())
    # a group starts wherever OUT changes
    first = np.flatnonzero(np.diff(blocks[:, OUT], prepend=-1))
    key = blocks[first, OUT].astype(np.int64) * target_jobs // total
    cuts = first[np.flatnonzero(np.diff(key)) + 1].tolist()
    jobs = []
    for a, b in zip([0] + cuts, cuts + [len(blocks)]):
        jb = blocks[a:b]
        jb[:, OUT] -= jb[0, OUT]
        jobs.append(MergeJob(jb))
    return jobs


def run_merge_job(
    runs: LcpRuns,
    job: MergeJob,
    stats: SortStats,
    out_h: np.ndarray,
    out_l: np.ndarray,
    poll=None,
) -> tuple[int, np.ndarray | None]:
    """Execute one merge job into out_h and out_l, job.size entries each.

    This is the second split stage.  _refine splits a pending group on
    from its depth until every group is copied: it comes from one run, or
    its strings are all equal.  The groups are then written in one gather
    per stretch between polls, with the LCP at each block start taken
    from the table.  poll(emitted) is consulted whenever the output
    crosses a multiple of MERGE_POLL_INTERVAL strings, at the end of the
    group that crosses it; a truthy return stops the job there.  Returns
    (emitted, rest).  rest is None when the job completed; when poll
    stopped it, rest is the refined blocks table of the groups not
    written, with OUT counted from the stop, for pack_merge_jobs.
    """
    n = job.size
    blocks = _refine(runs, job.blocks, stats)
    out = blocks[:, OUT]
    stops = [n]
    if poll is not None:
        ends = np.append(out[1:][np.diff(out) > 0], n)  # where the groups end
        marks = np.arange(MERGE_POLL_INTERVAL, n, MERGE_POLL_INTERVAL)
        # not np.unique: its first call imports numpy.ma, in every fresh worker
        stops = sorted({*ends[np.searchsorted(ends, marks)].tolist(), n})
    done = emitted = 0
    for stop in stops:
        upto = int(np.searchsorted(out, stop))
        _emit(runs, blocks[done:upto], out_h[emitted:stop], out_l[emitted:stop])
        done, emitted = upto, stop
        if stop < n and poll(stop):
            rest = blocks[upto:].copy()
            rest[:, OUT] -= stop
            return stop, rest
    return n, None


def _refine(runs: LcpRuns, blocks: np.ndarray, stats: SortStats) -> np.ndarray:
    """The blocks table with its pending group split to the end."""
    if blocks[0, DEPTH] < 0:  # copied groups only
        return blocks
    return _split_levels(
        runs,
        (np.zeros(len(blocks)), blocks[:, POS], blocks[:, POS] + blocks[:, LEN]),
        (blocks[:1, OUT], blocks[:1, LCP], blocks[:1, DEPTH]),
        stats,
    )


def _emit(runs: LcpRuns, blocks: np.ndarray, out_h: np.ndarray, out_l: np.ndarray) -> None:
    """Write the copied groups of a refined blocks table, whose blocks tile
    out_h and out_l in row order, in one gather."""
    size = blocks[:, LEN]
    src = concat_ranges(blocks[:, POS], size)
    out_h[:] = runs.handles[src]
    out_l[:] = runs.lcps[src]
    out_l[np.cumsum(size) - size] = blocks[:, LCP]
