"""LCP-aware comparison, binary merging, and the K-way LCP merge.

lcp_compare orders two strings that both trail a common predecessor p,
with their LCPs to p known.  Unequal LCPs decide the order without touching
a single character; equal LCPs compare characters from that position on,
and every matched character permanently raises the output LCP sum.
Character comparisons are counted per position examined.  The binary LCP
merge and mergesort are built on it.

The K-way LCP merge is not a tournament tree: it splits its sorted runs
into groups of strings with equal words, level by level in numpy, from the
runs' LCP arrays and one word fetch per block head and level.  The
coordinator's split_merge_jobs stops at groups of N / target_jobs strings
and packs them into jobs; each merge job's run_merge_job splits its pending
groups on, from their depths, until every group is copied: a group from one
run, or a group of equal strings, run by run in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """A sorted run with its LCP array."""

    sset: StringSet
    handles: np.ndarray
    lcps: np.ndarray

    @property
    def length(self) -> int:
        return len(self.handles)


# columns of MergeJob.blocks
STREAM, POS, LEN, OUT, LCP, DEPTH = range(6)


@dataclass
class MergeJob:
    """Per-stream subranges that merge into one stretch of the output.

    blocks holds one row per block of consecutive strings of one stream,
    in output order: STREAM, POS and LEN locate it; OUT is the output
    position of its group within the job; DEPTH is -1 for a copied group,
    else the depth a pending group is split from.  The blocks of one group
    are its runs, in stream order, and share the group's OUT.  A copied
    group's blocks follow each other from OUT, and each holds the LCP to
    write at its first string; a pending group's first block holds the
    group's LCP.  The first block's LCP is the one to the string before the
    job.
    """

    ranges: list[tuple[int, int, int]]  # (stream index, start, length)
    blocks: np.ndarray

    @property
    def size(self) -> int:
        return sum(r[2] for r in self.ranges)


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
    shared: int = 0,
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
    h1 = h2 = shared
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
        h, l = binary_lcp_merge(left, right, 0, stats)
        return LcpStream(sset, h, l)

    merged = rec(sset.handles.copy())
    lcps = merged.lcps.copy()
    if len(lcps):
        lcps[0] = LCP_UNDEF
    return sset.with_handles(merged.handles), lcps, stats


def kway_lcp_merge(
    streams: list[LcpStream],
    shared: int = 0,
    stats: SortStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge K sorted runs sharing `shared` prefix characters, with LCPs.

    Runs the one job of split_merge_jobs, whose run_merge_job splits every
    group from several runs to the end.  It compares no characters, and a
    string's word is fetched only at depths up to its larger output LCP h:
    at most 1 + (h - shared) // WORD_CHARS word fetches per string.
    """
    stats = stats if stats is not None else SortStats()
    n = sum(st.length for st in streams)
    out_h = np.empty(n, dtype=np.int64)
    out_l = np.empty(n, dtype=np.int64)
    for job in split_merge_jobs(streams, 1, shared, stats=stats):  # at most one
        run_merge_job(streams, job, stats, out_h, out_l)
    if n:
        out_l[0] = LCP_UNDEF
    return out_h, out_l


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The index ranges [starts[i], starts[i] + lens[i]), concatenated."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def _split_levels(streams, segs, parents, cut, width, stats) -> np.ndarray:
    """Split groups of run segments into blocks, one word level at a time.

    segs = (parent, stream, lo, hi) arrays locate each group's segments,
    one per run; parents = (start, lead, depth) arrays give each group's
    output start, LCP to the string before it, and the depth of its next
    word.  A level cuts every active segment into blocks from its LCP array
    alone: a string joins its predecessor's block when their LCP reaches
    the segment's depth + width, or when both are the same string ending at
    that LCP (in a sorted run the second holds exactly when the later
    string ends there).  It fetches the word of every block head at its
    depth in one extract_keys call, charged to stats.word_fetches, and
    orders the heads by one stable lexsort of (parent, word, stream).
    Equal words form a group, and neighbouring groups share depth +
    shared_chars(words) characters.  A group from one run is one copied
    block.  When the word of a group from several runs holds the
    terminator, its strings are all equal and its blocks are copied in
    stream order.  Otherwise the group recurses at depth + width when it
    holds more than `cut` strings, and is left pending at that depth when
    it does not.  Returns the blocks table, sorted by (OUT, STREAM).
    """
    w = max(1, min(width, WORD_CHARS))
    mask = np.uint64(((1 << (8 * w)) - 1) << (8 * (WORD_CHARS - w)))
    sset = streams[0].sset
    chars = sset.char_array()
    # positions, lengths and LCPs are below the buffer size
    itype = np.int32 if len(sset.buffer) < 2**31 else np.int64
    s_parent, s_stream, s_lo, s_hi = (np.asarray(x, dtype=itype) for x in segs)
    p_start, p_lead, p_depth = (np.asarray(x, dtype=itype) for x in parents)
    tables = []
    # each level frees its head-sized arrays once spent: the coordinator's
    # split runs on the whole input, and its peak memory is the sort's
    while len(s_lo):
        lens = s_hi - s_lo
        pos, size, seg, handles = [], [], [], []
        for k in np.flatnonzero(np.bincount(s_stream)).tolist():
            st_h, st_l = streams[k].handles, streams[k].lcps
            sel = np.flatnonzero(s_stream == k)
            idx = _runs(s_lo[sel], lens[sel])
            first = np.cumsum(lens[sel]) - lens[sel]
            # a string heads a block unless it shares the segment's word
            # with its predecessor or equals it
            lcps = st_l[idx]
            head = lcps < np.repeat(p_depth[s_parent[sel]] + w, lens[sel])
            head[first] = False
            cand = np.flatnonzero(head)
            head[cand[chars[st_h[idx[cand]] + lcps[cand]] == 0]] = False
            head[first] = True
            del lcps, cand
            at = np.flatnonzero(head)
            del head
            size.append(np.diff(at, append=len(idx)).astype(itype))
            seg.append(sel[np.searchsorted(first, at, side="right") - 1].astype(itype))
            at = idx[at]
            pos.append(at.astype(itype))
            handles.append(st_h[at])
            del idx, at
        seg = np.concatenate(seg)
        handles = np.concatenate(handles)
        words = extract_keys(sset, handles, p_depth[s_parent[seg]]) & mask
        if stats is not None:
            stats.word_fetches += len(handles)
        del handles
        parent, stream = s_parent[seg], s_stream[seg]
        del seg
        pos, size = np.concatenate(pos), np.concatenate(size)
        # the rows arrive as K sorted runs, which lexsort's timsort merges faster
        # than basecase.stable_word_order's two unstable sorts
        order = np.lexsort((stream, words, parent))
        pos, size, stream, parent, words = (
            x[order] for x in (pos, size, stream, parent, words)
        )
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
        # equal strings need no deeper level, whatever the cut
        equal = multi & (fz < w)
        deeper = multi & ~equal & (g_size > cut)
        pending = multi & ~equal & ~deeper
        del fz, g_size, multi
        pfirst = np.ones(len(first), dtype=bool)
        pfirst[1:] = g_parent[1:] != g_parent[:-1]
        g_start += p_start[g_parent] - g_start[np.maximum.accumulate(np.where(pfirst, np.arange(len(first)), 0))]
        g_lead[pfirst] = p_lead[g_parent[pfirst]]
        del pfirst, g_parent, first
        # the runs of deeper groups are the next level's segments
        down = np.flatnonzero(deeper)
        p_start, p_lead, p_depth = g_start[down], g_lead[down], g_depth[down]
        rec = deeper[gid]
        at = np.flatnonzero(rec)
        s_parent = np.searchsorted(down, gid[at]).astype(itype)
        s_stream, s_lo = stream[at], pos[at]
        s_hi = s_lo + size[at]
        del down, deeper, at
        table = np.empty((len(pos), 6), dtype=itype)
        table[:, STREAM] = stream
        table[:, POS] = pos
        table[:, LEN] = size
        del stream, pos, size
        table[:, OUT] = g_start[gid]
        # a later run of an equal group follows strings equal to its own
        table[:, LCP] = np.where(new, g_lead[gid], np.where(equal[gid], g_depth[gid], 0))
        table[:, DEPTH] = np.where(pending[gid], g_depth[gid], -1)
        tables.append(table[~rec] if rec.any() else table)
        del table, rec, gid, new, equal, pending
    if len(tables) == 1:  # parents are numbered in output order
        return tables[0]
    # deeper groups' blocks go between their neighbours
    blocks = np.concatenate(tables)
    del tables
    return blocks[np.lexsort((blocks[:, STREAM], blocks[:, OUT]))]


def split_merge_jobs(
    streams: list[LcpStream],
    target_jobs: int,
    shared: int = 0,
    width: int = WORD_CHARS,
    stats: SortStats | None = None,
) -> list[MergeJob]:
    """Split K sorted runs into independent merge jobs, one word level at a time.

    This is the first of two split stages.  Every string shares `shared`
    characters; _split_levels splits the runs as one root group with a cut
    of N / target_jobs strings, one word fetch per block head and level.
    pack_merge_jobs packs the groups into about target_jobs jobs.  The
    second stage, in run_merge_job, splits each job's pending groups to the
    end.
    """
    total = sum(s.length for s in streams)
    if total == 0:
        return []
    target_jobs = max(1, target_jobs)
    nonempty = [k for k, s in enumerate(streams) if s.length]
    zeros = [0] * len(nonempty)
    blocks = _split_levels(
        streams,
        (zeros, nonempty, zeros, [streams[k].length for k in nonempty]),
        ([0], [shared], [shared]),
        total / target_jobs,
        width,
        stats,
    )
    return pack_merge_jobs(blocks, target_jobs)


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
        ranges = []
        for k in np.flatnonzero(np.bincount(jb[:, STREAM])).tolist():
            mine = jb[jb[:, STREAM] == k]
            ranges.append((k, int(mine[0, POS]), int(mine[:, LEN].sum())))
        jobs.append(MergeJob(ranges, jb))
    return jobs


def run_merge_job(
    streams: list[LcpStream],
    job: MergeJob,
    stats: SortStats | None = None,
    out_handles: np.ndarray | None = None,
    out_lcps: np.ndarray | None = None,
    poll=None,
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None]:
    """Execute one merge job.

    This is the second split stage.  _refine splits every pending group on
    from its depth until every group is copied: it comes from one run, or
    its strings are all equal.  The groups are then written per stream in
    vectorized passes, with the LCP at each block start taken from the
    table.  poll(emitted) is consulted whenever the output crosses a
    multiple of MERGE_POLL_INTERVAL strings, at the end of the group that
    crosses it; a truthy return stops the job there.  Returns (out_handles,
    out_lcps, emitted, rest).  rest is None when the job completed; when
    poll stopped it, rest is the refined blocks table of the groups not
    written, with OUT counted from the stop, for pack_merge_jobs.
    """
    stats = stats if stats is not None else SortStats()
    n = job.size
    out_h = out_handles if out_handles is not None else np.empty(n, dtype=np.int64)
    out_l = out_lcps if out_lcps is not None else np.empty(n, dtype=np.int64)
    if n == 0:
        return out_h, out_l, 0, None
    blocks = _refine(streams, job.blocks, stats)
    out = blocks[:, OUT]
    stops = [n]
    if poll is not None:
        ends = np.append(out[1:][np.diff(out) > 0], n)  # where the groups end
        marks = np.arange(MERGE_POLL_INTERVAL, n, MERGE_POLL_INTERVAL)
        # not np.unique: its first call imports numpy.ma, in every fresh worker
        stops = sorted({*ends[np.searchsorted(ends, marks)].tolist(), n})
    done = 0
    for stop in stops:
        upto = int(np.searchsorted(out, stop))
        _emit(streams, blocks[done:upto], out_h, out_l)
        done = upto
        if stop < n and poll(stop):
            rest = blocks[upto:].copy()
            rest[:, OUT] -= stop
            return out_h, out_l, stop, rest
    return out_h, out_l, n, None


def _refine(streams: list[LcpStream], blocks: np.ndarray, stats: SortStats) -> np.ndarray:
    """The blocks table with every pending group split to the end."""
    rows = blocks[:, DEPTH] >= 0
    if not rows.any():
        return blocks
    b = blocks[rows]
    new = np.diff(b[:, OUT], prepend=-1) != 0
    heads = b[new]
    refined = _split_levels(
        streams,
        (np.cumsum(new) - 1, b[:, STREAM], b[:, POS], b[:, POS] + b[:, LEN]),
        (heads[:, OUT], heads[:, LCP], heads[:, DEPTH]),
        0,
        WORD_CHARS,
        stats,
    )
    blocks = np.concatenate((blocks[~rows], refined))
    return blocks[np.lexsort((blocks[:, STREAM], blocks[:, OUT]))]


def _emit(streams, blocks, out_h, out_l) -> None:
    """Write the copied groups of a refined blocks table, gathered per stream."""
    # the blocks of one group follow each other from its OUT
    before = np.cumsum(blocks[:, LEN]) - blocks[:, LEN]
    first = np.flatnonzero(np.diff(blocks[:, OUT], prepend=-1))
    dst = blocks[:, OUT] + before - np.repeat(before[first], np.diff(first, append=len(blocks)))
    for k in np.flatnonzero(np.bincount(blocks[:, STREAM])).tolist():
        sel = blocks[:, STREAM] == k
        at = _runs(dst[sel], blocks[sel, LEN])
        src = _runs(blocks[sel, POS], blocks[sel, LEN])
        out_h[at] = streams[k].handles[src]
        out_l[at] = streams[k].lcps[src]
    out_l[dst] = blocks[:, LCP]
