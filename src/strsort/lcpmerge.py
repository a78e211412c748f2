"""LCP-aware comparison, binary and K-way merging, and merge-job splitting.

All mergers share one primitive: comparing two strings that both trail a
common predecessor p, with their LCPs to p known.  Unequal LCPs decide the
order without touching a single character; equal LCPs compare characters
from that position on, and every matched character permanently raises the
output LCP sum.  Character comparisons are counted per position examined;
comparisons answered from a cached distinguishing character instead of the
buffer are excluded from merge_buffer_cmps.

The K-way merge splits its sorted runs into groups of strings with equal
words, level by level in numpy, in two stages.  The coordinator's
split_merge_jobs stops at groups of N / target_jobs strings and packs them
into jobs; each merge job's run_merge_job splits its groups on, from their
depths, down to MERGE_LEAF strings.  A group from one run is copied, and so
is a group of equal strings, run by run in stream order.  Only the groups
of at most MERGE_LEAF strings from at least two runs are merged by the LCP
loser tree, as a base case.
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


@dataclass
class LcpStream:
    """A sorted run with its LCP array and optional distinguishing chars."""

    sset: StringSet
    handles: np.ndarray
    lcps: np.ndarray
    dchar: np.ndarray | None = None
    start: int = 0
    length: int | None = None

    def __post_init__(self):
        if self.length is None:
            self.length = len(self.handles) - self.start

    def slice(self, start: int, length: int) -> "LcpStream":
        return LcpStream(
            self.sset, self.handles, self.lcps, self.dchar, self.start + start, length
        )


# columns of MergeJob.blocks
STREAM, POS, LEN, OUT, LCP, DEPTH = range(6)


@dataclass
class MergeJob:
    """Per-stream subranges whose strings all share shared_prefix chars.

    blocks holds one row per block of consecutive strings of one stream,
    in output order: STREAM, POS and LEN locate it; OUT is the output
    position of its group within the job; DEPTH is -1 for a copied group
    and otherwise the shared prefix of its tree-merged group.  The blocks
    of one group are its runs, in stream order, and share the group's OUT.
    A copied group's blocks follow each other from OUT, and each holds the
    LCP to write at its first string; a tree group's first block holds the
    group's LCP.  Without blocks the whole job is one group, copied when it
    has one nonempty range.
    """

    ranges: list[tuple[int, int, int]]  # (stream index, start, length)
    shared_prefix: int
    blocks: np.ndarray | None = None

    def __post_init__(self):
        if self.blocks is None:
            rows = [r for r in self.ranges if r[2]]
            depth = -1 if len(rows) == 1 else self.shared_prefix
            self.blocks = np.array(
                [(k, start, length, 0, self.shared_prefix, depth) for k, start, length in rows],
                dtype=np.int64,
            ).reshape(-1, 6)

    @property
    def size(self) -> int:
        return sum(r[2] for r in self.ranges)

    def rebased(self, ranges: list[tuple[int, int, int]]) -> "MergeJob":
        """This job, split from slices given as (stream, start, length),
        over the streams the slices were taken from."""
        ks = np.array([r[0] for r in ranges], dtype=np.int64)
        starts = np.array([r[1] for r in ranges], dtype=np.int64)
        blocks = self.blocks.copy()
        blocks[:, POS] += starts[blocks[:, STREAM]]
        blocks[:, STREAM] = ks[blocks[:, STREAM]]
        return MergeJob(
            [(ranges[i][0], ranges[i][1] + start, length) for i, start, length in self.ranges],
            self.shared_prefix,
            blocks,
        )


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


def lcp_compare_cached(
    sset: StringSet,
    a: int,
    sa: int,
    ha: int,
    ca: int,
    b: int,
    sb: int,
    hb: int,
    cb: int,
    stats: SortStats,
) -> tuple[int, int, int, int, int]:
    """lcp_compare with cached distinguishing characters.

    ca/cb must be the character of each string at its LCP position.  The
    first comparison of the equal-LCP case is served from the cache; buffer
    reads happen only for subsequent positions.  Returns
    (x, h_x, y, h', c_y') where c_y' is the loser's refreshed cache.
    """
    if sa == SENTINEL:
        return (b, hb, a, 0, ca)
    if sb == SENTINEL:
        return (a, ha, b, 0, cb)
    if ha == hb:
        xa, xb = ca, cb
        stats.char_cmps += 1
        h = ha
        if xa != 0 and xa == xb:
            buf = sset.buffer
            h += 1
            while True:
                xa = buf[sa + h]
                xb = buf[sb + h]
                stats.char_cmps += 1
                stats.merge_buffer_cmps += 1
                if xa != 0 and xa == xb:
                    h += 1
                    continue
                break
        if xa <= xb:
            return (a, ha, b, h, xb)
        return (b, hb, a, h, xa)
    if ha < hb:
        return (b, hb, a, ha, ca)
    return (a, ha, b, hb, cb)


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
        s1 = int(ah[a.start + ia]) if ia < na else SENTINEL
        s2 = int(bh[b.start + ib]) if ib < nb else SENTINEL
        x, hx, y, hp = lcp_compare(sset, 1, s1, h1, 2, s2, h2, stats)
        if x == 1:
            out_h[j], out_l[j] = s1, h1
            ia += 1
            h1 = int(al[a.start + ia]) if ia < na else 0
            h2 = hp
        else:
            out_h[j], out_l[j] = s2, h2
            ib += 1
            h2 = int(bl[b.start + ib]) if ib < nb else 0
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


class LoserTree:
    """LCP-aware tournament tree over K streams (K a power of two).

    With `cached`, each player carries its string's character at its LCP:
    the stream's dchar entry, or a buffer read for a stream without dchar.
    nodes[1..K-1] hold (loser stream, lcp of loser to that game's winner);
    nodes[0] holds the overall winner.  Games order their operands by
    stream index, so ties resolve toward earlier streams and the merge is
    stable.  Replaying after an emission touches exactly the nodes on the
    winner's leaf-to-root path.
    """

    def __init__(
        self,
        streams: list[LcpStream],
        shared: int,
        stats: SortStats,
        cached: bool = False,
    ):
        k = 1
        while k < max(len(streams), 1):
            k *= 2
        self.K = k
        self.sset = streams[0].sset
        self.stats = stats
        self.cached = cached
        self.streams = streams
        self.cursor = [0] * k
        # players: per stream (handle, lcp-to-last-output, cached char)
        self.player: list[tuple[int, int, int]] = []
        self.chars = self.sset.char_array()
        for i in range(k):
            if i < len(streams) and streams[i].length > 0:
                st = streams[i]
                h = int(st.handles[st.start])
                c = int(self.chars[h + shared]) if cached else 0
                self.player.append((h, shared, c))
            else:
                self.player.append((SENTINEL, 0, 0))
        self.nodes: list[tuple[int, int]] = [(0, 0)] * k
        pending: dict[int, int] = {}
        for i in range(k):
            cur = i
            v = k + i
            while v % 2 == 1 and (v - 1) in pending:
                other = pending.pop(v - 1)
                v //= 2
                cur = self._play(other, cur, v)
            pending[v] = cur
        w = pending.pop(1)
        self.nodes[0] = (w, self.player[w][1])

    def _play(self, a: int, b: int, node: int) -> int:
        """One game between stream indices a < b; stores the loser at node."""
        sa, ha, ca = self.player[a]
        sb, hb, cb = self.player[b]
        if self.cached:
            x, hx, y, hy, cy = lcp_compare_cached(
                self.sset, a, sa, ha, ca, b, sb, hb, cb, self.stats
            )
            self.player[y] = (self.player[y][0], hy, cy)
        else:
            x, hx, y, hy = lcp_compare(self.sset, a, sa, ha, b, sb, hb, self.stats)
            self.player[y] = (self.player[y][0], hy, 0)
        self.player[x] = (self.player[x][0], hx, self.player[x][2])
        if node > 0:
            self.nodes[node] = (y, hy)
        return x

    def pop_and_replace(self) -> tuple[int, int]:
        """Emit the winner; pull its successor and replay its path."""
        w, hw = self.nodes[0]
        handle = self.player[w][0]
        st = self.streams[w] if w < len(self.streams) else None
        self.cursor[w] += 1
        i = self.cursor[w]
        if st is not None and i < st.length:
            h = int(st.handles[st.start + i])
            hl = int(st.lcps[st.start + i])
            c = 0
            if self.cached:  # a stream without dchar has its characters read here
                c = int(st.dchar[st.start + i] if st.dchar is not None else self.chars[h + hl])
            self.player[w] = (h, hl, c)
        else:
            self.player[w] = (SENTINEL, 0, 0)
        cur = w
        v = self.K + w
        while v > 1:
            v //= 2
            y, hy = self.nodes[v]
            lo, hi = (cur, y) if cur < y else (y, cur)
            cur = self._play(lo, hi, v)
        self.nodes[0] = (cur, self.player[cur][1])
        return handle, hw


MERGE_POLL_INTERVAL = 4096  # emitted strings between scheduler polls
MERGE_LEAF = 4  # largest group a merge job hands to the loser tree


def loser_tree_merge(
    streams: list[LcpStream],
    shared: int,
    stats: SortStats,
    cached: bool,
    out_h: np.ndarray,
    out_l: np.ndarray,
) -> None:
    """Tournament-merge streams sharing `shared` characters into out arrays."""
    tree = LoserTree(streams, shared, stats, cached)
    for j in range(sum(s.length for s in streams)):
        out_h[j], out_l[j] = tree.pop_and_replace()


def kway_lcp_merge(
    streams: list[LcpStream],
    shared: int = 0,
    stats: SortStats | None = None,
    cached: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge K sorted runs sharing `shared` prefix characters, with LCPs.

    Runs the one job of split_merge_jobs, whose run_merge_job splits the
    groups further, so the loser tree only merges groups of at most
    MERGE_LEAF strings from at least two runs.  Character comparisons stay
    within dL + n*log2(K) + K, where dL is the growth of the LCP sum from
    inputs to output.
    """
    stats = stats if stats is not None else SortStats()
    n = sum(st.length for st in streams)
    out_h = np.empty(n, dtype=np.int64)
    out_l = np.empty(n, dtype=np.int64)
    for job in split_merge_jobs(streams, 1, shared, stats=stats):  # at most one
        run_merge_job(streams, job, stats, cached, out_h, out_l)
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
    block.  A group from several runs recurses at depth + width when it
    holds more than `cut` strings and its word no terminator.  When its
    word holds the terminator its strings are all equal, and with more than
    MERGE_LEAF of them its blocks are copied in stream order.  The rest are
    tree groups.  Returns the blocks table, sorted by (OUT, STREAM).
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
            st_h, st_l = streams[k].handles[streams[k].start :], streams[k].lcps[streams[k].start :]
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
        deeper = multi & (fz >= w) & (g_size > cut)
        # equal strings need no deeper level, whatever the cut
        equal = multi & (fz < w) & (g_size > MERGE_LEAF)
        tree = multi & ~deeper & ~equal
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
        table[:, DEPTH] = np.where(tree[gid], g_depth[gid], -1)
        tables.append(table[~rec] if rec.any() else table)
        del table, rec, gid, new, equal, tree
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
    The groups, in output order, are packed into about target_jobs jobs; no
    job boundary falls inside a group.  The second stage, in run_merge_job,
    splits each job's tree groups down to MERGE_LEAF strings.
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
    # a group starts wherever OUT changes
    first = np.flatnonzero(np.diff(blocks[:, OUT], prepend=-1))
    # a job starts at the first group to begin in each 1/target_jobs of the output
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
        # the LCPs between groups are the job's shared prefix; a lone
        # group's is its depth, or for a copied group its lead
        inner = first[np.searchsorted(first, a) + 1 : np.searchsorted(first, b)] - a
        if len(inner):
            shared_prefix = jb[inner, LCP].min()
        else:
            shared_prefix = jb[0, DEPTH] if jb[0, DEPTH] >= 0 else jb[0, LCP]
        jobs.append(MergeJob(ranges, int(shared_prefix), jb))
    return jobs


def run_merge_job(
    streams: list[LcpStream],
    job: MergeJob,
    stats: SortStats | None = None,
    cached: bool = False,
    out_handles: np.ndarray | None = None,
    out_lcps: np.ndarray | None = None,
    poll=None,
) -> tuple[np.ndarray, np.ndarray, int, list[tuple[int, int, int]] | None]:
    """Execute one merge job.

    This is the second split stage.  Each tree group of more than
    MERGE_LEAF strings is split further by _split_levels, from its depth
    on, until every group left is copied (one run, or all equal strings)
    or holds at most MERGE_LEAF strings.  The blocks are then emitted in
    output order: copied groups per stream in vectorized passes, with the
    LCP at each block start taken from the table, and the loser tree merges
    each small group as a base case.  poll(emitted) is consulted whenever
    the output crosses a multiple of MERGE_POLL_INTERVAL strings, at the
    end of the group that crosses it; a truthy return stops the job there.
    Returns (out_handles, out_lcps, emitted, leftover).  leftover is None
    when the job completed; when poll stopped it, it lists the (stream,
    start, length) ranges from the stop on, one per stream.
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
        _emit(streams, blocks[done:upto], stats, cached, out_h, out_l)
        done = upto
        if stop < n and poll(stop):
            return out_h, out_l, stop, _leftover(job, blocks[upto:])
    return out_h, out_l, n, None


def _refine(streams: list[LcpStream], blocks: np.ndarray, stats: SortStats) -> np.ndarray:
    """The blocks table with every tree group of more than MERGE_LEAF
    strings split further from its depth on."""
    first = np.flatnonzero(np.diff(blocks[:, OUT], prepend=-1))
    big = (blocks[first, DEPTH] >= 0) & (np.add.reduceat(blocks[:, LEN], first) > MERGE_LEAF)
    if not big.any():
        return blocks
    gid = np.repeat(np.arange(len(first)), np.diff(first, append=len(blocks)))
    rows = big[gid]
    b = blocks[rows]
    heads = blocks[first[big]]
    refined = _split_levels(
        streams,
        (np.searchsorted(np.flatnonzero(big), gid[rows]), b[:, STREAM], b[:, POS], b[:, POS] + b[:, LEN]),
        (heads[:, OUT], heads[:, LCP], heads[:, DEPTH]),
        MERGE_LEAF,
        WORD_CHARS,
        stats,
    )
    blocks = np.concatenate((blocks[~rows], refined))
    return blocks[np.lexsort((blocks[:, STREAM], blocks[:, OUT]))]


def _emit(streams, blocks, stats, cached, out_h, out_l) -> None:
    """Write whole groups of a refined blocks table: copied groups gathered
    per stream, tree groups merged by the loser tree."""
    copy = blocks[:, DEPTH] < 0
    c = blocks[copy]
    # the blocks of one copied group follow each other from its OUT
    before = np.cumsum(c[:, LEN]) - c[:, LEN]
    first = np.flatnonzero(np.diff(c[:, OUT], prepend=-1))
    dst = c[:, OUT] + before - np.repeat(before[first], np.diff(first, append=len(c)))
    for k in np.flatnonzero(np.bincount(c[:, STREAM])).tolist():
        sel = c[:, STREAM] == k
        at = _runs(dst[sel], c[sel, LEN])
        src = streams[k].start + _runs(c[sel, POS], c[sel, LEN])
        out_h[at] = streams[k].handles[src]
        out_l[at] = streams[k].lcps[src]
    out_l[dst] = c[:, LCP]
    t = blocks[~copy]
    starts = np.flatnonzero(np.diff(t[:, OUT], prepend=-1)).tolist()
    rows = t.tolist()  # the tree groups are tiny: walk them as Python lists
    for a, b in zip(starts, starts[1:] + [len(rows)]):
        group = rows[a:b]
        o, size = group[0][OUT], sum(r[LEN] for r in group)
        runs = [streams[r[STREAM]].slice(r[POS], r[LEN]) for r in group]
        loser_tree_merge(
            runs, group[0][DEPTH], stats, cached, out_h[o : o + size], out_l[o : o + size]
        )
        out_l[o] = group[0][LCP]


def _leftover(job: MergeJob, later: np.ndarray) -> list[tuple[int, int, int]]:
    """The (stream, start, length) ranges of the blocks `later` of a job."""
    leftover = []
    for k, start, length in job.ranges:
        mine = later[later[:, STREAM] == k]
        if len(mine):
            p = int(mine[0, POS])
            leftover.append((k, p, start + length - p))
    return leftover
