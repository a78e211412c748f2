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
O(K * m * log n) string reads for m jobs and no word fetch; a read spans
8 words and widens only while it matches, so its length follows the LCP,
not the string.  The strings of a job share the LCP of its two bounding
values, and run_merge_job refines the job from that depth into groups of
strings with equal words, level by level over all its runs at once.  A
level makes a fixed number of numpy passes over the block heads of every
group still split: one word fetch per head, one stable sort, and a
running sum of block sizes that places each block in the output.  Once
every group is copied (a group from one run, or a group of equal
strings, in run order), the job writes its blocks in one gather per
stretch between polls.  Refinement ends before writing starts, so a job
stopped at a poll hands over copying work only.
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
    first_diff_byte,
    first_zero_byte,
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
    run at OUT 0, or one copied block.  Refining it ends in a table of
    copied groups only, sorted by OUT, and a job stopped at a poll hands
    the rest of that table to pack_merge_jobs, so its jobs only copy.
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


def _refine(runs: LcpRuns, pending: np.ndarray, stats: SortStats) -> np.ndarray:
    """A job's blocks table with its pending group split to the end, one
    word level at a time.

    pending holds the group's rows, one segment per run, with its OUT, LCP
    and depth d, or copied groups only, which need no split.  A level
    makes a fixed number of passes over the block heads of every group
    still split, all at depth d.  A string heads a block unless its LCP to
    its predecessor reaches d + WORD_CHARS, or it equals it (in a sorted
    run, exactly when it ends at that LCP).  The heads' words at d are
    fetched in one extract_keys call, charged to stats.word_fetches, and
    sorted stably, after their group if there are several; equal words
    form a new group, in run order.  In that order a running sum of block
    sizes places each block, and its LCP is d plus the characters its word
    shares with the word before, or its group's LCP where it starts the
    group.  A group from one run is one copied block; a group from several
    runs whose word holds the terminator holds equal strings, copied in
    run order; any other group is split again at d + WORD_CHARS.  Returns
    the copied groups' blocks table sorted by OUT, each group's blocks in
    run order.  run_merge_job writes nothing before this returns.
    """
    if pending[0, DEPTH] < 0:
        return pending
    w = WORD_CHARS
    sset, itype = runs.sset, _index_type(runs.sset)
    chars = sset.char_array()
    seg_lo, seg_len = pending[:, POS].astype(itype), pending[:, LEN].astype(itype)
    # the groups split at a level, in output order: each one's first segment, OUT and LCP
    p_seg, p_out, p_lead = np.zeros(1, dtype=np.intp), pending[:1, OUT], pending[:1, LCP]
    depth, tables = int(pending[0, DEPTH]), []
    # each level frees its head-sized arrays once spent: the one job of
    # kway_lcp_merge spans the whole input, and its peak memory is the merge's
    while len(seg_lo):
        idx = concat_ranges(seg_lo, seg_len)
        first = np.cumsum(seg_len) - seg_len
        lcps = runs.lcps[idx]
        lcps[first] = depth  # a segment's first string heads a block; its LCP is not read
        cand = np.flatnonzero(lcps < depth + w)
        handles = runs.handles[idx[cand]]
        keep = chars[handles + lcps[cand]] != 0  # a string ending at its LCP equals its predecessor
        keep[np.searchsorted(cand, first)] = True
        at = cand[keep]
        words = extract_keys(sset, handles[keep], depth)
        stats.word_fetches += len(at)
        pos, size, n = idx[at], np.empty(len(at), dtype=itype), len(at)
        np.subtract(at[1:], at[:-1], out=size[:-1])
        size[-1:] = len(idx) - at[-1]
        first = first[p_seg]
        pstart = np.searchsorted(at, first)  # each group's first head
        shift = p_out - first  # from the level's running sum to output positions
        del idx, lcps, cand, handles, keep, at
        if len(pstart) == 1:
            order = np.argsort(words, kind="stable")
        else:
            counts = np.diff(pstart, append=n)
            ptype = np.uint16 if len(pstart) <= 1 << 16 else itype  # a 16-bit key sorts by radix
            order = np.lexsort((words, np.repeat(np.arange(len(pstart), dtype=ptype), counts)))
            shift = np.repeat(shift, counts)
        pos, size, words = pos[order], size[order], words[order]
        del order
        out = np.cumsum(size, dtype=itype)
        out += shift - size
        lead = np.empty(n, dtype=itype)
        lead[1:] = first_diff_byte(words[:-1], words[1:])
        lead += depth
        lead[pstart] = p_lead
        same = words[1:] == words[:-1]
        same[pstart[1:] - 1] = False  # no group spans two parents
        dup = np.flatnonzero(same) + 1  # the later blocks of groups from several runs
        seg_lo = seg_lo[:0]
        if len(dup):
            fz = first_zero_byte(words[dup])
            lead[dup] = depth + fz  # after strings equal to its own, if the word ends
            for _ in range(len(pending) - 1):  # a group's blocks share its OUT: at most one per run
                out[dup] = out[dup - 1]
            deep = dup[fz == w]
            if len(deep):  # groups split again: 1 marks a group's first block, 2 a later one
                mark = np.zeros(n, dtype=np.int8)
                mark[deep - 1] = 1
                mark[deep] = 2
                rows = np.flatnonzero(mark)
                p_seg = np.flatnonzero(mark[rows] == 1)
                seg_lo, seg_len, p_out, p_lead = pos[rows], size[rows], out[rows[p_seg]], lead[rows[p_seg]]
                copied = mark == 0
                pos, size, out, lead = pos[copied], size[copied], out[copied], lead[copied]
        del words, same, dup
        table = np.empty((len(pos), 5), dtype=itype, order="F")  # contiguous columns
        table[:, POS], table[:, LEN], table[:, OUT], table[:, LCP], table[:, DEPTH] = pos, size, out, lead, -1
        tables.append(table)
        depth += w
    if len(tables) == 1:
        return tables[0]
    # deeper groups' blocks go between their neighbours; a group's blocks lie
    # in one level's table, in run order, and OUT differs between groups
    blocks = np.concatenate(tables)
    return blocks[np.argsort(blocks[:, OUT], kind="stable")]


class _Read:
    """A string's first bytes, read 8 words at a time: cut after its
    terminator once that is read, and read twice as far whenever a
    comparison finds it equal to another read without one."""

    __slots__ = ("buf", "h", "s")

    def __init__(self, buf, h: int, width: int = 8 * WORD_CHARS):
        self.buf, self.h, self.s = buf, h, buf[h : h + width]
        end = self.s.find(0)
        if end >= 0:
            self.s = self.s[: end + 1]

    def _common(self, other, same_ends=True) -> int:
        """A length both reads reach, at which they differ or both end;
        with same_ends, a string equals itself without reading on."""
        while True:
            n = min(len(self.s), len(other.s))
            if self.s[:n] != other.s[:n] or self.s[n - 1] == 0 or (same_ends and self.h == other.h):
                return n
            for x in (self, other):
                if len(x.s) == n:
                    x.__init__(x.buf, x.h, 2 * n)

    def __lt__(self, other) -> bool:
        n = self._common(other)
        return self.s[:n] < other.s[:n]

    def __eq__(self, other) -> bool:
        n = self._common(other)
        return self.s[:n] == other.s[:n]

    def lcp(self, other) -> int:
        n = self._common(other, False)
        return next((i for i, (a, b) in enumerate(zip(self.s, other.s[:n])) if a != b), n - 1)


def split_merge_jobs(runs: LcpRuns, target_jobs: int) -> list[MergeJob]:
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
    split fetches no word and makes about K * m * (log2 N + 2) reads, each
    8 words long, or twice the LCP of the strings it compares where that
    is longer.  The second stage, in run_merge_job, splits each job's
    pending group to the end.
    """
    handles = runs.handles
    total = len(handles)
    if total == 0:
        return []
    starts = runs.starts.tolist()
    spans = [(lo, hi) for lo, hi in zip(starts, starts[1:]) if lo < hi]
    itype, buf = _index_type(runs.sset), runs.sset.buffer
    if len(spans) == 1:
        ((lo, hi),) = spans
        return [MergeJob(np.array([[lo, hi - lo, 0, 0, -1]], dtype=itype))]
    m = max(1, min(target_jobs, total))
    samples = [
        (_Read(buf, h), hi - lo)
        for lo, hi in spans
        for h in handles[lo + np.arange(1, m) * (hi - lo) // m].tolist()
    ]
    samples.sort(key=lambda t: (t[0].s, t[1]))  # by their first reads
    samples.sort()  # reads that tie without a terminator read on; else one pass
    splitters, reached, i = [], 0, 1
    for s, weight in samples:
        reached += weight  # m times the strings the samples so far stand for
        while i < m and reached >= i * total:
            if not splitters or splitters[-1] != s:
                splitters.append(s)
            i += 1
    # cuts[j][r]: where job j starts in the r-th non-empty run; leads[j]: its first LCP
    cuts, leads = [[lo for lo, _ in spans]], [0]
    for sp in splitters:
        cut, lead = list(cuts[-1]), 0
        for r, (lo, hi) in enumerate(spans):
            # a string's first len(sp.s) bytes, read past its terminator, order against
            # sp.s as the string does against sp, unless they equal it without one
            while True:
                key = sp.s
                cut[r] = bisect_left(handles, key, cut[r], hi, key=lambda h: buf[h : h + len(key)])
                if cut[r] == hi or key[-1] == 0 or not _Read(buf, int(handles[cut[r]])) < sp:
                    break
                cut[r] += 1
            if cut[r] > lo:
                lead = max(lead, sp.lcp(_Read(buf, int(handles[cut[r] - 1]))))
        cuts.append(cut)
        leads.append(lead)
    cuts.append([hi for _, hi in spans])
    bounds = [min(_Read(buf, int(handles[lo])) for lo, _ in spans)]
    bounds += splitters + [max(_Read(buf, int(handles[hi - 1])) for _, hi in spans)]
    jobs = []
    for j, lead in enumerate(leads):
        rows = [(a, b - a) for a, b in zip(cuts[j], cuts[j + 1]) if b > a]
        if not rows:  # only before the first splitter: each holds itself
            continue
        depth = bounds[j].lcp(bounds[j + 1]) if len(rows) > 1 else -1
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
    runs: LcpRuns, job: MergeJob, stats: SortStats, out_h: np.ndarray, out_l: np.ndarray, poll=None
) -> tuple[int, np.ndarray | None]:
    """Execute one merge job into out_h and out_l, job.size entries each.

    This is the second split stage.  _refine splits a pending group on
    from its depth until every group is copied: it comes from one run, or
    its strings are all equal.  Only then are the groups written, in one
    gather per stretch between polls, with the LCP at each block start
    taken from the table.  poll(emitted) is consulted whenever the output
    crosses a multiple of MERGE_POLL_INTERVAL strings, at the end of the
    group that crosses it; a truthy return stops the job there.  Returns
    (emitted, rest).  rest is None when the job completed; when poll
    stopped it, rest is the refined blocks table of the groups not
    written, with OUT counted from the stop, for pack_merge_jobs.
    """
    n = job.size
    blocks = _refine(runs, job.blocks, stats)
    out, size = blocks[:, OUT], blocks[:, LEN]
    start = np.cumsum(size) - size  # the blocks tile the output in row order
    src = np.repeat(blocks[:, POS] - start, size.astype(np.intp))  # each output string's position
    src += np.arange(n)
    stops = [n]
    if poll is not None:
        # a group ends where the next starts: at the first OUT at or past a mark
        at = np.searchsorted(out, np.arange(MERGE_POLL_INTERVAL, n, MERGE_POLL_INTERVAL))
        # not np.unique: its first call imports numpy.ma, in every fresh worker
        stops = sorted({*out[at[at < len(out)]].tolist(), n})
    done = emitted = 0
    for stop in stops:
        upto = int(np.searchsorted(out, stop))
        np.take(runs.handles, src[emitted:stop], out=out_h[emitted:stop])
        np.take(runs.lcps, src[emitted:stop], out=out_l[emitted:stop])
        out_l[start[done:upto]] = blocks[done:upto, LCP]
        done, emitted = upto, stop
        if stop < n and poll(stop):
            rest = blocks[upto:].copy()
            rest[:, OUT] -= stop
            return stop, rest
    return n, None
