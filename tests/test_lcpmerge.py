import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_set, ref_lcps, ref_sorted_strings, ref_strings, sorted_runs, suffix_set, url_like_set
from strsort import lcpmerge, ssss
from strsort.basecase import lcp_insertion_sort
from strsort.counters import SortStats
from strsort.lcpmerge import (
    DEPTH,
    LEN,
    LcpRuns,
    LcpStream,
    binary_lcp_merge,
    binary_lcp_mergesort,
    kway_lcp_merge,
    lcp_compare,
    MERGE_POLL_INTERVAL,
    OUT,
    POS,
    pack_merge_jobs,
    run_merge_job,
    split_merge_jobs,
)
from strsort.parallel import partitioned_merge_sort, shared_array
from strsort.strset import LCP_UNDEF, WORD_CHARS, StringSet, from_strings, lcp, lcp_array_oracle, lcp_sum, verify

text_bytes = st.binary(min_size=0, max_size=10).map(
    lambda b: bytes(c if c != 0 else 1 for c in b)
)


def stream_of(items: list[bytes]) -> LcpStream:
    res = lcp_insertion_sort(from_strings(sorted(items)))
    return LcpStream(res.set, res.set.handles, res.lcps)


def stream_from_sorted(sset, handles) -> LcpStream:
    sub = sset.with_handles(np.asarray(handles, dtype=np.int64))
    res = lcp_insertion_sort(sub)
    return LcpStream(res.set, res.set.handles, res.lcps)


class TestLcpCompare:
    def test_case1_equal_lcps(self):
        # predecessor "a"; "aab" and "ab" both share one character with it
        s = from_strings([b"aab", b"ab"])
        stats = SortStats()
        x, hx, y, hp = lcp_compare(
            s, 0, int(s.handles[0]), 1, 1, int(s.handles[1]), 1, stats
        )
        assert x == 0 and y == 1  # "aab" < "ab"
        assert hp == 1 == lcp(s, int(s.handles[0]), int(s.handles[1]))
        assert stats.char_cmps == 1  # one character comparison at position 1

    def test_case2_no_char_access(self):
        # predecessor "aa"; lcp("aa","ab")=1 < lcp("aa","aaa")=2, so "aaa" wins
        s = from_strings([b"ab", b"aaa"])
        stats = SortStats()
        x, hx, y, hp = lcp_compare(
            s, 0, int(s.handles[0]), 1, 1, int(s.handles[1]), 2, stats
        )
        assert x == 1 and hx == 2
        assert (y, hp) == (0, 1)
        assert stats.char_cmps == 0

    def test_equal_strings_tie_to_first(self):
        s = from_strings([b"xy", b"xy"])
        stats = SortStats()
        x, hx, y, hp = lcp_compare(
            s, 0, int(s.handles[0]), 0, 1, int(s.handles[1]), 0, stats
        )
        assert x == 0
        assert hp == 2

    @given(st.lists(text_bytes, min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_postcondition_on_valid_instances(self, items):
        # derive a valid instance: sort, take p = smallest, compare the others
        items.sort()
        p, a, b = items
        s = from_strings([p, a, b])
        hp_, ha_, hb_ = s.handles
        stats = SortStats()
        x, hx, y, hres = lcp_compare(
            s, 0, int(ha_), lcp(s, int(hp_), int(ha_)),
            1, int(hb_), lcp(s, int(hp_), int(hb_)), stats,
        )
        assert hres == lcp(s, int(ha_), int(hb_))
        sx = a if x == 0 else b
        sy = a if y == 0 else b
        assert sx <= sy


class TestBinaryMerge:
    def test_example(self):
        a = stream_of([b"a", b"b"])
        # same buffer needed: build one set holding all strings
        s = from_strings([b"a", b"b", b"ab"])
        sa = stream_from_sorted(s, s.handles[:2])
        sb = stream_from_sorted(s, s.handles[2:])
        h, l = binary_lcp_merge(sa, sb)
        out = s.with_handles(h)
        assert ref_strings(out) == [b"a", b"ab", b"b"]
        assert list(l) == [LCP_UNDEF, 1, 0]

    def test_empty_side(self):
        s = from_strings([b"q", b"r"])
        sa = stream_from_sorted(s, s.handles)
        sb = LcpStream(s, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        h, l = binary_lcp_merge(sa, sb)
        assert list(h) == list(sa.handles)
        assert list(l)[1:] == list(sa.lcps)[1:]

    def test_identical_streams_interleave(self):
        s = from_strings([b"x", b"y", b"x", b"y"])
        sa = stream_from_sorted(s, s.handles[:2])
        sb = stream_from_sorted(s, s.handles[2:])
        h, l = binary_lcp_merge(sa, sb)
        out = s.with_handles(h)
        assert ref_strings(out) == [b"x", b"x", b"y", b"y"]
        # ties go to the first stream
        assert int(h[0]) == int(sa.handles[0])

    @given(st.lists(text_bytes, max_size=12), st.lists(text_bytes, max_size=12))
    @settings(max_examples=80)
    def test_matches_oracle(self, xs, ys):
        s = from_strings(xs + ys)
        sa = stream_from_sorted(s, s.handles[: len(xs)])
        sb = stream_from_sorted(s, s.handles[len(xs) :])
        h, l = binary_lcp_merge(sa, sb)
        out = s.with_handles(h)
        want = sorted(xs + ys)
        assert ref_strings(out) == want
        assert list(l) == ref_lcps(want) if len(want) else True


class TestBinaryMergesort:
    def test_trivial(self):
        s = from_strings([b"z"])
        out, lcps, _ = binary_lcp_mergesort(s)
        assert ref_strings(out) == [b"z"]

    def test_all_equal_bound(self):
        n, ell = 64, 5
        s = from_strings([b"abcde"] * n)
        out, lcps, stats = binary_lcp_mergesort(s)
        L = lcp_sum(lcps)
        assert L == (n - 1) * ell
        assert stats.char_cmps <= L + n * math.ceil(math.log2(n))

    def test_random_corpus_bound(self):
        for seed in range(4):
            s = random_set(500, seed=seed)
            out, lcps, stats = binary_lcp_mergesort(s)
            want = sorted(ref_strings(s))
            assert ref_strings(out) == want
            assert list(lcps) == ref_lcps(want)
            n = len(s)
            bound = lcp_sum(lcps) + n * math.ceil(math.log2(n))
            assert stats.char_cmps <= bound


def fetch_budget(lcps, shared=0):
    """sum(1 + h // WORD_CHARS) over the strings of a merged output, where h
    is the larger of a string's two output LCPs minus `shared`."""
    l = np.asarray(lcps, dtype=np.int64).copy()
    if len(l) == 0:
        return 0
    l[0] = shared  # entry 0 is LCP_UNDEF
    h = np.maximum(l, np.append(l[1:], shared)) - shared
    return int((1 + h // WORD_CHARS).sum())


def even(n, k):
    """The sizes of k contiguous slices of n strings, as even as can be."""
    return np.diff(np.linspace(0, n, k + 1).astype(int))


def merge_job(runs, job, stats=None, poll=None):
    """run_merge_job into fresh arrays: (handles, lcps, emitted, rest)."""
    h = np.empty(job.size, dtype=np.int64)
    l = np.empty(job.size, dtype=np.int64)
    emitted, rest = run_merge_job(runs, job, stats if stats is not None else SortStats(), h, l, poll)
    return h, l, emitted, rest


def run_of(pos, runs):
    """The run that holds each position."""
    return np.searchsorted(runs.starts, pos, "right") - 1


class TestKwayMerge:
    def test_k1_copy(self):
        s = random_set(50, seed=0)
        runs = sorted_runs(s, [len(s)])
        h, l = kway_lcp_merge(runs)
        assert list(h) == list(runs.handles)

    def test_k2_equals_binary(self):
        s = random_set(201, seed=1)
        runs = sorted_runs(s, even(len(s), 2))
        h2, l2 = kway_lcp_merge(runs)
        a, b, c = runs.starts.tolist()
        hb, lb = binary_lcp_merge(
            LcpStream(s, runs.handles[a:b], runs.lcps[a:b]),
            LcpStream(s, runs.handles[b:c], runs.lcps[b:c]),
        )
        assert list(h2) == list(hb)
        assert list(l2)[1:] == list(lb)[1:]

    def test_k4_matches_reference_and_bound(self):
        for seed in range(3):
            s = random_set(800, seed=seed)
            runs = sorted_runs(s, even(len(s), 4))
            stats = SortStats()
            h, l = kway_lcp_merge(runs, stats=stats)
            out = s.with_handles(h)
            want = sorted(ref_strings(s))
            assert ref_strings(out) == want
            assert list(l) == ref_lcps(want)
            assert stats.char_cmps == 0
            assert stats.word_fetches <= fetch_budget(l)

    def test_common_prefix_streams(self):
        items = [b"pref" + bytes([c]) * k for c in range(97, 105) for k in range(1, 4)]
        s = from_strings(items)
        runs = sorted_runs(s, even(len(s), 4))
        stats = SortStats()
        h, l = kway_lcp_merge(runs, stats=stats)
        out = s.with_handles(h)
        assert ref_strings(out) == sorted(items)
        assert list(l) == ref_lcps(sorted(items))
        assert stats.word_fetches <= fetch_budget(l, shared=4)

    def test_shared_prefix_skips_its_words(self):
        # every string shares two words: the split finds them from the
        # smallest run head and the largest run tail, so the merge fetches
        # no word of the shared prefix
        items = [b"common-prefix-16" + b"%d" % (i * 7919 % 1000) for i in range(400)]
        s = from_strings(items)
        runs = sorted_runs(s, even(len(s), 4))
        stats = SortStats()
        h, l = kway_lcp_merge(runs, stats=stats)
        assert ref_strings(s.with_handles(h)) == sorted(items)
        assert list(l) == ref_lcps(sorted(items))
        assert 0 < stats.word_fetches <= fetch_budget(l, shared=16)


def split_corpus(name):
    """(set, shard sizes) of one adversarial shape for the split."""
    if name == "empty_strings":
        s = from_strings([b""] * 30 + [b"a", b""] * 10 + [b"b"] * 5)
    elif name == "equal_long":
        s = from_strings([b"q" * 30] * 40 + [b"q" * 29, b"q" * 31] * 3)
    elif name == "long_prefixes":
        base = b"prefix-of-more-than-three-words/"
        s = from_strings(
            [base + bytes([97 + i % 5]) * (i % 4) + b"x" * (i % 3) for i in range(90)]
        )
    elif name == "bytes_1_255":
        s = random_set(120, seed=4, lo=1, hi=256)
        s = from_strings(ref_strings(s) + [bytes(range(1, 256)), b"\xff" * 9, b"\x01\xff"])
    else:  # mixed
        s = from_strings(ref_strings(random_set(60, seed=7, max_len=12, lo=97, hi=100)) * 2)
    n = len(s)
    return s, [0, 1, n // 3, 0, n - n // 3 - 2, 1]


SPLIT_CORPORA = ("empty_strings", "equal_long", "long_prefixes", "bytes_1_255", "mixed")


def check_partition(runs, jobs):
    """The table rows of the jobs, in order, tile every run from its start
    to its end with non-empty blocks."""
    pos = runs.starts[:-1].tolist()
    for job in jobs:
        for start, length in job.blocks[:, [POS, LEN]].tolist():
            k = run_of(start, runs)
            assert start == pos[k] and length > 0
            pos[k] += length
    assert pos == runs.starts[1:].tolist()


def check_split(sset, runs, jobs):
    """Partition property, and oracle order and LCPs, the LCP at each job
    start included."""
    check_partition(runs, jobs)
    want = ref_sorted_strings(sset)
    want_lcps = ref_lcps(want)
    got, pos = [], 0
    for job in jobs:
        h, l, emitted, rest = merge_job(runs, job)
        assert (emitted, rest) == (job.size, None)
        got += ref_strings(sset.with_handles(h))
        lo = 1 if pos == 0 else 0  # entry 0 of the whole output is the caller's
        assert list(l[lo:]) == want_lcps[pos + lo : pos + job.size]
        pos += job.size
    assert got == want


class TestSplitMergeJobs:
    def test_distinct_strings_one_job_each(self):
        # with more target jobs than strings, every string of a run is a
        # sample: each distinct string starts its own job, a copied block
        groups = {c: [bytes([c]) + b"x", bytes([c]) + b"yy"] for c in range(97, 103)}
        items = [x for g in groups.values() for x in g]
        s = from_strings(items)
        runs = sorted_runs(s, even(len(s), 2))
        jobs = split_merge_jobs(runs, target_jobs=100)
        assert len(jobs) == len(items)
        assert all(job.blocks[:, DEPTH].tolist() == [-1] for job in jobs)
        check_split(s, runs, jobs)

    def test_all_identical_single_job(self):
        s = from_strings([b"same"] * 40)
        runs = sorted_runs(s, even(len(s), 4))
        jobs = split_merge_jobs(runs, target_jobs=8)
        assert len(jobs) == 1
        assert jobs[0].size == 40

    def test_partition_property(self):
        for seed in range(4):
            s = random_set(600, seed=seed)
            runs = sorted_runs(s, even(len(s), 4))
            jobs = split_merge_jobs(runs, target_jobs=16)
            assert len(jobs) > 1
            check_partition(runs, jobs)

    def test_jobwise_equals_monolithic(self):
        for seed in range(4):
            s = random_set(500, seed=seed + 3)
            runs = sorted_runs(s, even(len(s), 4))
            jobs = split_merge_jobs(runs, target_jobs=12)
            mono_h, mono_l = kway_lcp_merge(runs)
            parts = [merge_job(runs, job) for job in jobs]
            got_h = np.concatenate([p[0] for p in parts])
            assert list(got_h) == list(mono_h)
            # interior lcps match; job boundaries are the caller's concern
            pos = 0
            for p in parts:
                chunk = p[1]
                if pos > 0 and len(chunk):
                    chunk = chunk[1:]
                    assert list(chunk) == list(mono_l[pos + 1 : pos + 1 + len(chunk)])
                pos += len(p[1])

    @pytest.mark.parametrize("target", [1, 4, 1000])
    @pytest.mark.parametrize("corpus", SPLIT_CORPORA)
    def test_matches_oracle(self, corpus, target):
        s, sizes = split_corpus(corpus)
        runs = sorted_runs(s, sizes)
        check_split(s, runs, split_merge_jobs(runs, target))

    def test_empty_and_single_streams(self):
        s = from_strings([b"only"])
        runs = sorted_runs(s, [0, 1, 0])
        jobs = split_merge_jobs(runs, 8)
        assert [j.blocks.tolist() for j in jobs] == [[[0, 1, 0, 0, -1]]]
        assert jobs[0].size == 1
        check_split(s, runs, jobs)
        assert split_merge_jobs(sorted_runs(s, [0, 0]), 8) == []

    def test_word_fetches_one_per_head_and_level(self):
        # the split fetches no word; the one job's strings share the 8
        # characters of "abcdefgh1" and "abcdefgh4", so its refinement
        # starts at depth 8, where the repeated "abcdefgh2" joins its equal
        # predecessor and the other four strings head blocks: 4 fetches
        s = from_strings(
            [b"abcdefgh1", b"abcdefgh2", b"abcdefgh2", b"abcdefgh3", b"abcdefgh4"]
        )
        runs = sorted_runs(s, [3, 2])
        jobs = split_merge_jobs(runs, 2)
        check_split(s, runs, jobs)
        (job,) = split_merge_jobs(runs, 1)
        assert job.blocks[:, DEPTH].tolist() == [8, 8]
        stats = SortStats()
        kway_lcp_merge(runs, stats=stats)
        assert stats.word_fetches == 4

    @pytest.mark.parametrize("target", [1, 16])
    @pytest.mark.parametrize("make", [lambda: random_set(20_000, seed=2), lambda: url_like_set(20_000)])
    def test_fetches_words_per_level_not_per_string(self, monkeypatch, make, target):
        # each job's refinement fetches its words in one call per level
        s = make()
        runs = sorted_runs(s, even(len(s), 4))
        calls = []
        real = lcpmerge.extract_keys

        def counting(sset, handles, depth):
            calls.append(len(handles))
            return real(sset, handles, depth)

        monkeypatch.setattr(lcpmerge, "extract_keys", counting)
        jobs = split_merge_jobs(runs, target)
        assert calls == [] and sum(j.size for j in jobs) == len(s)
        max_depth = int((s.ends() - s.handles).max())
        for job in jobs:
            calls.clear()
            merge_job(runs, job)
            assert len(calls) <= 1 + max_depth // WORD_CHARS
            assert bool(calls) == (job.blocks[:, DEPTH] >= 0).any()

    def test_poll_stops_between_small_groups(self):
        # every value appears once in each run, so the job is many small
        # equal groups; the stop lands after MERGE_POLL_INTERVAL strings, and
        # the rest goes out as jobs that fetch no word again
        items = [b"%d" % (i % 3000) for i in range(12_000)]
        s = from_strings(items)
        runs = sorted_runs(s, even(len(s), 4))
        (job,) = split_merge_jobs(runs, 1)
        h, l, emitted, rest = merge_job(runs, job, poll=lambda e: True)
        assert rest is not None and MERGE_POLL_INTERVAL <= emitted < len(s)
        want = sorted(items)
        assert ref_strings(s.with_handles(h[:emitted])) == want[:emitted]
        subs = pack_merge_jobs(rest, 3)
        assert len(subs) == 3 and sum(sub.size for sub in subs) == len(s) - emitted
        stats = SortStats()
        tail = [merge_job(runs, sub, stats)[0] for sub in subs]
        assert ref_strings(s.with_handles(np.concatenate(tail))) == want[emitted:]
        assert stats.word_fetches == 0


class CountingBytes(bytes):
    """A character buffer that counts the slices read from it, and their bytes."""

    reads = 0
    read_bytes = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice):
            self.reads += 1
            self.read_bytes += len(out)
        return out


class TestSampledSplit:
    @pytest.mark.parametrize("target", [2, 4, 16, 64])
    def test_equal_strings_never_straddle_a_job_boundary(self, target):
        # 37 values, each about 54 times, spread over uneven runs
        rng = np.random.default_rng(11)
        items = [b"v%d" % (i % 37) for i in range(2000)]
        items = [items[i] for i in rng.permutation(len(items))]
        s = from_strings(items)
        runs = sorted_runs(s, [300, 900, 0, 800])
        jobs = split_merge_jobs(runs, target)
        check_split(s, runs, jobs)
        want = sorted(items)
        starts = np.cumsum([j.size for j in jobs])[:-1].tolist()
        assert len(starts) >= min(target, 37) // 2
        assert all(want[p - 1] != want[p] for p in starts)

    @pytest.mark.parametrize("target", [4, 16, 100])
    def test_duplicate_splitters_yield_no_empty_job(self, target):
        # nine in ten strings are "m", so most samples are equal
        rng = np.random.default_rng(12)
        items = [b"m"] * 900 + [b"a"] * 50 + [b"z"] * 50
        items = [items[i] for i in rng.permutation(len(items))]
        s = from_strings(items)
        runs = sorted_runs(s, even(len(s), 4))
        jobs = split_merge_jobs(runs, target)
        assert 1 <= len(jobs) <= 3 and all(job.size > 0 for job in jobs)
        check_split(s, runs, jobs)

    def test_url_jobs_start_at_their_splitters_lcp(self):
        # a job's first string is its lower splitter and the next job's
        # first string its upper one: every string of the job shares their
        # LCP, and its group is split from there
        s = url_like_set(20_000)
        runs = sorted_runs(s, even(len(s), 4))
        jobs = split_merge_jobs(runs, 16)
        check_split(s, runs, jobs)
        want = ref_sorted_strings(s)
        starts = np.cumsum([0] + [j.size for j in jobs]).tolist()
        depths = []
        for job, a, b in zip(jobs, starts, starts[1:]):
            if len(job.blocks) == 1:
                continue
            upper = want[b] if b < len(want) else want[-1]
            splitters_lcp = ref_lcps([want[a], upper])[1]
            (depth,) = set(job.blocks[:, DEPTH].tolist())
            assert splitters_lcp <= depth <= ref_lcps([want[a], want[b - 1]])[1]
            depths.append(depth)
        assert len(depths) > 1 and min(depths) > 0

    @pytest.mark.parametrize("corpus", SPLIT_CORPORA + ("url", "random"))
    def test_split_fetches_no_word(self, monkeypatch, corpus):
        s, runs = merge_shards(corpus)
        calls = []
        monkeypatch.setattr(lcpmerge, "extract_keys", lambda *args: calls.append(args))
        for target in (1, 4, 16, 1000):
            assert sum(j.size for j in split_merge_jobs(runs, target)) == len(s)
        assert calls == []

    @pytest.mark.parametrize("target", [1, 4, 16, 1000])
    @pytest.mark.parametrize("corpus", SPLIT_CORPORA + ("url", "random"))
    def test_split_reads_log_strings(self, corpus, target):
        # the samples, K * m * ceil(log2 n) binary-search probes, the string
        # before each lower bound, and the runs' heads and tails
        s, runs = merge_shards(corpus)
        buf = CountingBytes(s.buffer)
        counted = StringSet(buf, s.handles)
        runs = LcpRuns(counted, runs.handles, runs.lcps, runs.starts)
        buf.reads = 0
        jobs = split_merge_jobs(runs, target)
        k = np.count_nonzero(np.diff(runs.starts))
        assert 0 < buf.reads <= k * target * (math.ceil(math.log2(len(s))) + 2)
        check_partition(runs, jobs)

    @pytest.mark.parametrize("target", [1, 4, 16, 1000])
    def test_split_reads_suffixes_by_their_lcp(self, target):
        # 20,000 suffixes of a random text, about 10,000 characters long on
        # average but distinct after a few: a read is 8 words wide and
        # doubles only while it equals the read it is compared with, so it
        # holds at most twice the largest LCP, or 8 words
        s = suffix_set(20_000, seed=5)
        runs = sorted_runs(s, even(len(s), 4), sort=lambda part: ssss.s5_sort(part, want_lcps=True))
        max_lcp = int(ssss.s5_sort(s, want_lcps=True).lcps.max())
        buf = CountingBytes(s.buffer)
        runs = LcpRuns(StringSet(buf, s.handles), runs.handles, runs.lcps, runs.starts)
        buf.reads = buf.read_bytes = 0
        jobs = split_merge_jobs(runs, target)
        assert 0 < buf.reads <= 4 * target * (math.ceil(math.log2(len(s))) + 2)
        assert buf.read_bytes <= buf.reads * max(8 * WORD_CHARS, 2 * max_lcp)
        check_split(s, runs, jobs)

    @pytest.mark.parametrize("target", [4, 16])
    def test_samples_tied_on_their_first_read_are_ordered(self, target):
        # every string shares 71 characters, more than a first read holds, so
        # the samples tie on their first reads and only reading on orders them
        rng = np.random.default_rng(13)
        items = [b"w" * 70 + b"/%d" % v for v in rng.integers(0, 10**6, 2000)]
        s = from_strings(items)
        runs = sorted_runs(s, [700, 300, 600, 400])
        jobs = split_merge_jobs(runs, target)
        assert len(jobs) > 1
        check_split(s, runs, jobs)


class TestPackMergeJobs:
    @pytest.mark.parametrize("target", [1, 2, 3, 7, 64])
    def test_jobs_start_at_groups_and_merge_exactly(self, target):
        # a refined table of many groups, some of equal strings from several
        # runs, packed into about target jobs: no job starts inside a group,
        # and the jobs merge to the oracle with the LCP at each job start
        s = from_strings(ref_strings(url_like_set(1500)) * 2)
        runs = sorted_runs(s, [400, 1500, 0, 1100])
        (job,) = split_merge_jobs(runs, 1)
        blocks = lcpmerge._refine(runs, job.blocks, SortStats())
        out = blocks[:, OUT].copy()
        group_start = np.diff(out, prepend=-1) != 0
        assert group_start.sum() > 64 and not group_start.all()
        jobs = pack_merge_jobs(blocks.copy(), target)
        assert 1 <= len(jobs) <= target
        if target > 1:
            assert len(jobs) > 1
        firsts = np.cumsum([0] + [len(j.blocks) for j in jobs])
        assert firsts[-1] == len(blocks)
        assert all(group_start[firsts[:-1]])
        for j, a in zip(jobs, firsts[:-1]):
            assert j.blocks[0, OUT] == 0
            assert list(j.blocks[:, OUT] + out[a]) == list(out[a : a + len(j.blocks)])
        check_split(s, runs, jobs)


def merge_corpus(name):
    """(set, shard sizes) of a split corpus or a 20,000-string set."""
    if name in SPLIT_CORPORA:
        return split_corpus(name)
    s = url_like_set(20_000) if name == "url" else random_set(20_000, seed=3)
    return s, [3000, 9000, 1000, 7000]


@functools.cache
def merge_shards(name):
    """(set, sorted runs) of merge_corpus(name), built once: the runs are
    sorted by LCP insertion sort, which takes seconds at 20,000 strings."""
    s, sizes = merge_corpus(name)
    return s, sorted_runs(s, sizes)


@pytest.mark.parametrize("corpus", SPLIT_CORPORA + ("url", "random"))
def test_kway_word_fetches_within_budget(corpus):
    # a string is fetched only at depths its group shares with another
    # string, so never deeper than its larger output LCP
    s, runs = merge_shards(corpus)
    stats = SortStats()
    h, l = kway_lcp_merge(runs, stats=stats)
    want = ref_sorted_strings(s)
    assert ref_strings(s.with_handles(h)) == want
    assert list(l) == ref_lcps(want)
    assert 0 < stats.word_fetches <= fetch_budget(l)
    assert stats.char_cmps == 0


@pytest.mark.parametrize("target", [1, 3, 16, 1000])
def test_runs_first_lcps_are_never_read(target):
    # every run's first LCP holds garbage, and empty runs lie between the
    # others: a merge that read a first LCP would cut its run's first block
    # wrongly, index past the buffer, or write the garbage out
    s = from_strings(ref_strings(url_like_set(300)) + [b"", b"http", b"http:/"] * 5)
    n = len(s)
    runs = sorted_runs(s, [0, 90, 0, 0, 130, n - 260, 40, 0])
    firsts = runs.starts[:-1][np.diff(runs.starts) > 0]
    runs.lcps[firsts] = np.resize([2**40, -5], len(firsts))
    want = ref_sorted_strings(s)
    h, l = kway_lcp_merge(runs)
    assert ref_strings(s.with_handles(h)) == want
    assert np.array_equal(l, lcp_array_oracle(s.with_handles(h)))
    out_h = np.empty(n, dtype=np.int64)
    out_l = np.empty(n, dtype=np.int64)
    pos = 0
    for job in split_merge_jobs(runs, target):
        end = pos + job.size
        assert run_merge_job(runs, job, SortStats(), out_h[pos:end], out_l[pos:end]) == (job.size, None)
        pos = end
    assert pos == n
    out_l[0] = LCP_UNDEF
    assert ref_strings(s.with_handles(out_h)) == want
    assert np.array_equal(out_l, lcp_array_oracle(s.with_handles(out_h)))


class TestRefine:
    @pytest.mark.parametrize("corpus", SPLIT_CORPORA + ("url", "random"))
    def test_refined_table_has_no_pending_group(self, monkeypatch, corpus):
        s, runs = merge_shards(corpus)
        pending = []
        real = lcpmerge._refine

        def spy(runs, blocks, stats):
            refined = real(runs, blocks, stats)
            pending.append((int((blocks[:, DEPTH] >= 0).sum()), int((refined[:, DEPTH] >= 0).sum())))
            return refined

        monkeypatch.setattr(lcpmerge, "_refine", spy)
        h, l = kway_lcp_merge(runs)
        want = ref_sorted_strings(s)
        assert ref_strings(s.with_handles(h)) == want
        assert list(l) == ref_lcps(want)
        assert pending and all(after == 0 for _, after in pending)
        if corpus in ("equal_long", "long_prefixes", "mixed", "url"):
            assert pending[0][0] > 0  # groups from several runs share a word

    @pytest.mark.parametrize("corpus", SPLIT_CORPORA + ("url", "random"))
    def test_pool_refined_table_has_no_pending_group(self, monkeypatch, corpus):
        # the spy runs in the forked workers: a pending row left in a refined
        # table fails the sort, and a shared flag shows that a job had
        # pending groups to refine at all
        s, _ = merge_corpus(corpus)
        seen = shared_array(1, np.int64)
        seen[0] = 0
        real = lcpmerge._refine

        def spy(runs, blocks, stats):
            refined = real(runs, blocks, stats)
            if (refined[:, DEPTH] >= 0).any():
                raise AssertionError("a refined table holds a pending group")
            if (blocks[:, DEPTH] >= 0).any():
                seen[0] = 1
            return refined

        monkeypatch.setattr(lcpmerge, "_refine", spy)
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        res = partitioned_merge_sort(s, K=4, p=2, want_lcps=True)
        want = ref_sorted_strings(s)
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)
        if corpus == "url":
            assert seen[0] == 1


EQUAL_VALUES = (b"", b"q" * 30, b"abcdefgh9")


class TestEqualGroups:
    def test_copied_in_stream_order_with_exact_lcps(self):
        # each equal value is spread over uneven runs, among distinct strings
        rng = np.random.default_rng(5)
        items = [v for v, m in zip(EQUAL_VALUES, (13, 11, 9)) for _ in range(m)]
        items += [b"abcdefgh%d" % i for i in range(10, 40)] + [b"q" * 29, b"q" * 31, b"r"]
        items = [items[i] for i in rng.permutation(len(items))]
        s = from_strings(items)
        runs = sorted_runs(s, [7, 25, 3, len(items) - 35])
        # stable: equal strings in run order, then position in the run,
        # which is their order in the runs' arrays
        strings = ref_strings(s.with_handles(runs.handles))
        keyed = [(x, i, int(h)) for i, (x, h) in enumerate(zip(strings, runs.handles))]
        stable = [h for *_, h in sorted(keyed)]
        for target in (1, 3, 1000):
            jobs = split_merge_jobs(runs, target)
            check_split(s, runs, jobs)
            got = np.concatenate([merge_job(runs, job)[0] for job in jobs])
            assert list(got) == stable
        h, l = kway_lcp_merge(runs)
        assert list(h) == stable
        assert list(l) == ref_lcps(sorted(items))

    @pytest.mark.parametrize("value", EQUAL_VALUES)
    def test_all_equal_is_one_job(self, value):
        s = from_strings([value] * 40)
        runs = sorted_runs(s, [11, 0, 25, 4])
        for target in (1, 2, 8, 1000):
            jobs = split_merge_jobs(runs, target)
            assert len(jobs) == 1
            h, l, emitted, rest = merge_job(runs, jobs[0])
            assert (emitted, rest) == (40, None)
            assert list(h) == list(s.handles)
            assert list(l[1:]) == [len(value)] * 39


def test_poll_stops_at_group_boundary():
    # every value appears 6 times, in one run or as an equal group of
    # several: all groups are copied, and polls fire between them
    rng = np.random.default_rng(8)
    items = [b"%05d" % (i // 6) for i in range(25_200)]
    items = [items[i] for i in rng.permutation(len(items))]
    s = from_strings(items)
    runs = sorted_runs(s, even(len(s), 3))
    n = len(s)
    assert (np.diff(runs.starts) > 2 * MERGE_POLL_INTERVAL).all()
    full_h, full_l = kway_lcp_merge(runs)
    (job,) = split_merge_jobs(runs, 1)
    h, l, emitted, rest = merge_job(runs, job, poll=lambda e: True)
    assert MERGE_POLL_INTERVAL <= emitted < n
    want = sorted(items)
    assert want[emitted - 1] != want[emitted]  # a group boundary
    assert list(h[:emitted]) == list(full_h[:emitted])
    subs = pack_merge_jobs(rest, 3)
    assert sorted({k for sub in subs for k in run_of(sub.blocks[:, POS], runs).tolist()}) == [0, 1, 2]
    assert sum(sub.size for sub in subs) == n - emitted
    pos = emitted
    for sub in subs:
        th, tl, _, _ = merge_job(runs, sub)
        # the LCP at a subjob's start is exact too
        assert list(th) == list(full_h[pos : pos + sub.size])
        assert list(tl) == list(full_l[pos : pos + sub.size])
        pos += sub.size
    assert pos == n


def test_poll_stops_before_the_last_group():
    # two copied groups of 5,000 equal strings: the first crosses the poll
    # mark, so the job stops where the last group starts
    s = from_strings([b"a"] * 5000 + [b"b"] * 5000)
    runs = sorted_runs(s, [5000, 5000])
    (job,) = split_merge_jobs(runs, 1)
    h, l, emitted, rest = merge_job(runs, job, poll=lambda e: True)
    assert emitted == 5000
    assert rest.tolist() == [[5000, 5000, 0, 0, -1]]  # run 1 from its start, LCP 0 to "a"
    assert list(h[:emitted]) == list(s.handles[:5000])


def test_mergesort_is_lcp_exact_on_duplicates():
    s = from_strings([b"dup", b"dup", b"dup", b"a", b"dup"])
    out, lcps, _ = binary_lcp_mergesort(s)
    want = sorted(ref_strings(s))
    assert ref_strings(out) == want
    assert list(lcps) == ref_lcps(want)
