"""LCP-aware comparison, binary and K-way merging, and merge-job splitting.

All mergers share one primitive: comparing two strings that both trail a
common predecessor p, with their LCPs to p known.  Unequal LCPs decide the
order without touching a single character; equal LCPs compare characters
from that position on, and every matched character permanently raises the
output LCP sum.  Character comparisons are counted per position examined;
comparisons answered from a cached distinguishing character instead of the
buffer are excluded from merge_buffer_cmps.

The K-way merge first splits its sorted runs into groups of strings with
equal words, level by level in numpy (split_merge_jobs).  A group from one
run is copied; only groups with strings from at least two runs are merged
by the LCP loser tree (run_merge_job).
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
    in output order: STREAM, POS and LEN locate it; OUT is its output
    position within the job; LCP is the LCP to write at that position;
    DEPTH is -1 for a copied block and otherwise the shared prefix of its
    tree-merged group.  The blocks of one tree group are its runs, in stream
    order; they share the group's OUT, and the first holds its LCP.  Without
    blocks the whole job is one group, copied when it has one nonempty
    range.
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
        arr = self.sset.char_array()
        for i in range(k):
            if i < len(streams) and streams[i].length > 0:
                st = streams[i]
                h = int(st.handles[st.start])
                c = int(arr[h + shared]) if cached else 0
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
            c = int(st.dchar[st.start + i]) if (self.cached and st.dchar is not None) else 0
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


def kway_merge_partial(
    streams: list[LcpStream],
    shared: int,
    stats: SortStats,
    cached: bool,
    out_h: np.ndarray,
    out_l: np.ndarray,
    poll=None,
    polled: int = 0,
) -> tuple[int, list[int] | None]:
    """Tournament-merge streams into out arrays, stopping early on request.

    poll(emitted) is consulted whenever polled + emitted reaches a multiple
    of MERGE_POLL_INTERVAL, where polled counts the strings merged before
    this call; a truthy return stops the merge, also after its last string.
    Returns (emitted, per-stream cursors) when stopped, or (n, None) when
    the merge ran to completion.
    """
    n = sum(s.length for s in streams)
    if n == 0:
        return 0, None
    tree = LoserTree(streams, shared, stats, cached)
    for j in range(n):
        handle, h = tree.pop_and_replace()
        out_h[j] = handle
        out_l[j] = h
        if (
            poll is not None
            and (polled + j + 1) % MERGE_POLL_INTERVAL == 0
            and poll(polled + j + 1)
        ):
            return j + 1, tree.cursor[: len(streams)]
    return n, None


def kway_lcp_merge(
    streams: list[LcpStream],
    shared: int = 0,
    stats: SortStats | None = None,
    cached: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge K sorted runs sharing `shared` prefix characters, with LCPs.

    Runs the jobs of split_merge_jobs in order, so only groups with strings
    from at least two runs reach the loser tree.  Character comparisons stay
    within dL + n*log2(K) + K, where dL is the growth of the LCP sum from
    inputs to output.
    """
    stats = stats if stats is not None else SortStats()
    n = sum(st.length for st in streams)
    out_h = np.empty(n, dtype=np.int64)
    out_l = np.empty(n, dtype=np.int64)
    pos = 0
    for job in split_merge_jobs(streams, 1, shared, stats=stats):
        end = pos + job.size
        run_merge_job(streams, job, stats, cached, out_h[pos:end], out_l[pos:end])
        pos = end
    if n:
        out_l[0] = LCP_UNDEF
    return out_h, out_l


def _block_heads(st: LcpStream, lo: int, hi: int, depth: int, width: int) -> np.ndarray:
    """Positions in st[lo:hi] whose string starts a new block at `depth`.

    A string joins its predecessor's block when their LCP reaches depth +
    width, or when both are the same string ending at that LCP.  In a sorted
    run the second holds exactly when the later string ends there.
    """
    a = st.start
    cand = np.flatnonzero(st.lcps[a + lo + 1 : a + hi] < depth + width) + (lo + 1)
    ends = st.sset.char_array()[st.handles[a + cand] + st.lcps[a + cand]] == 0
    return np.concatenate(([lo], cand[~ends]))


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The index ranges [starts[i], starts[i] + lens[i]), concatenated."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def split_merge_jobs(
    streams: list[LcpStream],
    target_jobs: int,
    shared: int = 0,
    width: int = WORD_CHARS,
    stats: SortStats | None = None,
) -> list[MergeJob]:
    """Split K sorted runs into independent merge jobs, one word level at a time.

    Every string shares `shared` characters.  A level at depth d cuts each
    active run segment into blocks from its LCP array alone (see
    _block_heads), fetches the `width`-character word at d of every block
    head in one extract_keys call, charged to stats.word_fetches, and orders
    the heads by one stable lexsort of (parent group, word, stream).  Equal
    words form a group; neighbouring groups share d + shared_chars(words)
    characters.  A group of more than N / target_jobs strings from at least
    two runs whose word holds no terminator recurses at d + width.  The
    groups, in output order, are packed into about target_jobs jobs.
    """
    total = sum(s.length for s in streams)
    if total == 0:
        return []
    w = max(1, min(width, WORD_CHARS))
    mask = np.uint64(((1 << (8 * w)) - 1) << (8 * (WORD_CHARS - w)))
    target_jobs = max(1, target_jobs)
    sset = streams[0].sset
    # positions, lengths and LCPs are below the buffer size
    itype = np.int32 if len(sset.buffer) < 2**31 else np.int64
    # groups recursed into: output start and LCP to the preceding string
    p_start = np.zeros(1, dtype=itype)
    p_lead = np.full(1, shared, dtype=itype)
    segs = [(0, k, 0, s.length) for k, s in enumerate(streams) if s.length]
    tables = []
    depth = shared
    # each level frees its head-sized arrays once spent: the split runs in
    # the coordinator, whose peak memory is the sort's
    while segs:
        heads = [_block_heads(streams[k], lo, hi, depth, w) for _, k, lo, hi in segs]
        counts = [len(h) for h in heads]
        handles = np.concatenate(
            [streams[k].handles[streams[k].start + h] for h, (_, k, _, _) in zip(heads, segs)]
        )
        words = extract_keys(sset, handles, depth) & mask
        if stats is not None:
            stats.word_fetches += len(handles)
        del handles
        size = np.concatenate(
            [np.diff(h, append=hi) for h, (_, _, _, hi) in zip(heads, segs)], dtype=itype
        )
        pos = np.concatenate(heads, dtype=itype)
        del heads
        stream = np.repeat(np.asarray([s[1] for s in segs], dtype=itype), counts)
        parent = np.repeat(np.asarray([s[0] for s in segs], dtype=itype), counts)
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
        g_lead = np.empty(len(first), dtype=itype)
        g_lead[1:] = depth + shared_chars(g_word[:-1], g_word[1:])
        g_runs = np.diff(first, append=len(pos)).astype(itype)
        fz = first_zero_byte(g_word)
        del g_word
        g_depth = (depth + np.minimum(fz, w)).astype(itype)
        # output start: the parent's start plus the sizes of its earlier groups
        g_size = np.add.reduceat(size, first)
        g_start = np.cumsum(g_size, dtype=itype) - g_size
        deeper = (g_size > total / target_jobs) & (g_runs > 1) & (fz >= w)
        del fz, g_size
        pfirst = np.ones(len(first), dtype=bool)
        pfirst[1:] = g_parent[1:] != g_parent[:-1]
        g_start += p_start[g_parent] - g_start[np.maximum.accumulate(np.where(pfirst, np.arange(len(first)), 0))]
        g_lead[pfirst] = p_lead[g_parent[pfirst]]
        del pfirst, g_parent, first
        # the runs of deeper groups are the next level's segments
        down = np.flatnonzero(deeper)
        p_start, p_lead = g_start[down], g_lead[down]
        rec = deeper[gid]
        at = np.flatnonzero(rec)
        segs = list(
            zip(
                np.searchsorted(down, gid[at]).tolist(),
                stream[at].tolist(),
                pos[at].tolist(),
                (pos[at] + size[at]).tolist(),
            )
        )
        del down, deeper, at
        table = np.empty((len(pos), 6), dtype=itype)
        table[:, STREAM] = stream
        table[:, POS] = pos
        table[:, LEN] = size
        del stream, pos, size
        table[:, OUT] = g_start[gid]
        table[:, LCP] = np.where(new, g_lead[gid], 0)
        # a group from one run is one block, copied
        table[:, DEPTH] = np.where(g_runs[gid] > 1, g_depth[gid], -1)
        tables.append(table[~rec] if rec.any() else table)
        del table, rec, gid, new
        depth += w
    if len(tables) == 1:
        blocks = tables[0]
    else:  # deeper groups' blocks go between their neighbours
        blocks = np.concatenate(tables)
        blocks = blocks[np.lexsort((blocks[:, STREAM], blocks[:, OUT]))]
    del tables
    # a group starts wherever OUT changes: a copy block, or a tree group's first run
    first = np.flatnonzero(np.diff(blocks[:, OUT], prepend=-1))
    # a job starts at the first group to begin in each 1/target_jobs of the output
    key = blocks[first, OUT].astype(np.int64) * target_jobs // total
    cuts = first[np.flatnonzero(np.diff(key)) + 1].tolist()
    jobs = []
    for a, b in zip([0] + cuts, cuts + [len(blocks)]):
        jb = blocks[a:b]
        jb[:, OUT] -= jb[0, OUT]
        ranges = []
        for k in np.unique(jb[:, STREAM]).tolist():
            mine = jb[jb[:, STREAM] == k]
            ranges.append((k, int(mine[0, POS]), int(mine[:, LEN].sum())))
        # the LCPs between groups are the job's shared prefix; a lone
        # group's is its depth, or for a copied block its lead
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

    Copied blocks, the groups from one run, are gathered per stream in one
    vectorized pass, and the LCP at each block start is taken from the
    job's table.  Then the LCP loser tree merges each group with strings
    from at least two runs.  Returns (out_handles, out_lcps, emitted,
    leftover).  leftover is None when the job completed; when poll stopped
    a tree merge, it lists the (stream, start, length) ranges from the stop
    on.
    """
    stats = stats if stats is not None else SortStats()
    n = job.size
    out_h = out_handles if out_handles is not None else np.empty(n, dtype=np.int64)
    out_l = out_lcps if out_lcps is not None else np.empty(n, dtype=np.int64)
    if n == 0:
        return out_h, out_l, 0, None
    blocks = job.blocks
    tree = blocks[:, DEPTH] >= 0
    copies = blocks[~tree]
    for k in np.unique(copies[:, STREAM]).tolist():
        b = copies[copies[:, STREAM] == k]
        dst = _runs(b[:, OUT], b[:, LEN])
        src = streams[k].start + _runs(b[:, POS], b[:, LEN])
        out_h[dst] = streams[k].handles[src]
        out_l[dst] = streams[k].lcps[src]
    out_l[copies[:, OUT]] = copies[:, LCP]
    merges = blocks[tree]
    starts = np.flatnonzero(np.diff(merges[:, OUT], prepend=-1)).tolist()
    merged = 0
    for a, b in zip(starts, starts[1:] + [len(merges)]):
        group = merges[a:b]
        o = int(group[0, OUT])
        size = int(group[:, LEN].sum())
        runs = [streams[k].slice(p, m) for k, p, m in group[:, :3].tolist()]
        emitted, cursors = kway_merge_partial(
            runs, int(group[0, DEPTH]), stats, cached,
            out_h[o : o + size], out_l[o : o + size], poll, merged,
        )
        out_l[o] = group[0, LCP]
        if cursors is not None:
            leftover = _leftover(job, o, group, cursors)
            if leftover:
                return out_h, out_l, o + emitted, leftover
        merged += size
    return out_h, out_l, n, None


def _leftover(job: MergeJob, out: int, group: np.ndarray, cursors: list[int]):
    """The (stream, start, length) ranges of a job stopped inside the tree
    merge of the group at output position `out`."""
    later = job.blocks[job.blocks[:, OUT] >= out]
    consumed = dict(zip(group[:, STREAM].tolist(), cursors))
    leftover = []
    for k, start, length in job.ranges:
        mine = later[later[:, STREAM] == k]
        if len(mine):
            p = int(mine[0, POS]) + consumed.get(k, 0)
            if start + length > p:
                leftover.append((k, p, start + length - p))
    return leftover
