"""LCP-aware comparison, binary and K-way merging, and merge-job splitting.

All mergers share one primitive: comparing two strings that both trail a
common predecessor p, with their LCPs to p known.  Unequal LCPs decide the
order without touching a single character; equal LCPs compare characters
from that position on, and every matched character permanently raises the
output LCP sum.  Character comparisons are counted per position examined;
comparisons answered from a cached distinguishing character instead of the
buffer are excluded from merge_buffer_cmps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import SortStats
from .strset import LCP_UNDEF, WORD_CHARS, StringSet, extract_keys

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


@dataclass
class MergeJob:
    """Per-stream subranges whose strings all share shared_prefix chars."""

    ranges: list[tuple[int, int, int]]  # (stream index, start, length)
    shared_prefix: int

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
    out_handles: np.ndarray | None = None,
    out_lcps: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted runs, maintaining LCPs relative to the last output."""
    stats = stats if stats is not None else SortStats()
    sset = a.sset
    na, nb = a.length, b.length
    n = na + nb
    out_h = out_handles if out_handles is not None else np.empty(n, dtype=np.int64)
    out_l = out_lcps if out_lcps is not None else np.empty(n, dtype=np.int64)
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
    if out_lcps is None and n:
        out_l[0] = LCP_UNDEF
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
) -> tuple[int, list[int] | None]:
    """Tournament-merge streams into out arrays, stopping early on request.

    poll(emitted) is consulted every MERGE_POLL_INTERVAL strings; a truthy
    return stops the merge.  Returns (emitted, per-stream cursors) when
    stopped, or (n, None) when the merge ran to completion.
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
            and (j + 1) % MERGE_POLL_INTERVAL == 0
            and (j + 1) < n
            and poll(j + 1)
        ):
            return j + 1, tree.cursor[: len(streams)]
    return n, None


def kway_lcp_merge(
    streams: list[LcpStream],
    shared: int = 0,
    stats: SortStats | None = None,
    cached: bool = False,
    out_handles: np.ndarray | None = None,
    out_lcps: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tournament merge of K sorted runs sharing `shared` prefix characters.

    Character comparisons stay within dL + n*log2(K) + K, where dL is the
    growth of the LCP sum from inputs to output.
    """
    job = MergeJob([(k, 0, st.length) for k, st in enumerate(streams)], shared)
    out_h, out_l, n, _ = run_merge_job(streams, job, stats, cached, out_handles, out_lcps)
    if out_lcps is None and n:
        out_l[0] = LCP_UNDEF
    return out_h, out_l


def _front_block(stream: LcpStream, pos: int, base: int, width: int) -> int:
    """Top `width` characters of the stream's string at pos, from depth base."""
    h = stream.handles[stream.start + pos]
    word = int(
        extract_keys(stream.sset, np.asarray([h], dtype=np.int64), base)[0]
    )
    return word >> (8 * (WORD_CHARS - width))


def _block_chars(block: int, width: int) -> int:
    """Characters before the terminator within a width-char block."""
    b = int(block).to_bytes(width, "big")
    i = b.find(b"\0")
    return width if i < 0 else i


def split_merge_jobs(
    streams: list[LcpStream],
    target_jobs: int,
    shared: int = 0,
    width: int = WORD_CHARS,
) -> list[MergeJob]:
    """Split K sorted runs into independent merge jobs by equal front blocks.

    Scans each stream's LCP array once: strings staying above the current
    block width belong to the same block; the scan stops at the first entry
    below it (or a mismatching block).  The block width starts at a full
    word and halves whenever the emitted job count runs ahead of twice the
    consumed fraction of the target, so inputs with long common prefixes
    keep wide blocks and random inputs do not shatter into tiny jobs.
    """
    K = len(streams)
    cursors = [0] * K
    lens = [s.length for s in streams]
    total = sum(lens)
    if total == 0:
        return []
    jobs: list[MergeJob] = []
    consumed = 0
    w = max(1, min(width, WORD_CHARS))
    while True:
        alive = [k for k in range(K) if cursors[k] < lens[k]]
        if not alive:
            break
        blocks = {k: _front_block(streams[k], cursors[k], shared, w) for k in alive}
        cmin = min(blocks.values())
        # a terminator inside the block caps its effective width: successors
        # matching all real characters of the block belong to the same job
        weff = _block_chars(cmin, w)
        ranges = []
        job_size = 0
        for k in alive:
            if blocks[k] != cmin:
                continue
            st = streams[k]
            start = cursors[k]
            idx = start + 1
            limit = lens[k]
            while idx < limit:
                entry = int(st.lcps[st.start + idx]) - shared
                if entry > weff:
                    idx += 1
                    continue
                if entry == weff:
                    if _front_block(st, idx, shared, w) == cmin:
                        idx += 1
                        continue
                break
            ranges.append((k, start, idx - start))
            cursors[k] = idx
            job_size += idx - start
        jobs.append(MergeJob(ranges, shared + weff))
        consumed += job_size
        if len(jobs) > (consumed / total) * target_jobs * 2:
            w = max(1, w // 2)
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
    """Execute one merge job: copy for one run, tournament merge otherwise.

    Returns (out_handles, out_lcps, emitted, leftover).  leftover is None
    when the job completed; when poll stopped it early, it lists the
    unconsumed (stream, start, length) ranges.
    """
    stats = stats if stats is not None else SortStats()
    parts = [
        (k, streams[k].slice(start, length))
        for k, start, length in job.ranges
        if length
    ]
    n = sum(p.length for _, p in parts)
    out_h = out_handles if out_handles is not None else np.empty(n, dtype=np.int64)
    out_l = out_lcps if out_lcps is not None else np.empty(n, dtype=np.int64)
    if n == 0:
        return out_h, out_l, 0, None
    if len(parts) == 1:
        st = parts[0][1]
        out_h[:n] = st.handles[st.start : st.start + n]
        out_l[:n] = st.lcps[st.start : st.start + n]
        return out_h, out_l, n, None
    runs = [p for _, p in parts]
    emitted, cursors = kway_merge_partial(
        runs, job.shared_prefix, stats, cached, out_h, out_l, poll
    )
    if cursors is None:
        return out_h, out_l, n, None
    ranges = [r for r in job.ranges if r[2]]
    leftover = [
        (k, start + cursors[i], length - cursors[i])
        for i, (k, start, length) in enumerate(ranges)
        if length - cursors[i] > 0
    ]
    return out_h, out_l, emitted, leftover
