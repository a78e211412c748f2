import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_set, ref_lcps, ref_sorted_strings, ref_strings
from strsort import basecase, mkqs, radix
from strsort.basecase import (
    LEAF_FLUSH,
    LEAF_THRESHOLD,
    LeafCollector,
    insertion_sort,
    lcp_insertion_sort,
    range_rows,
    stable_word_order,
    word_leaves,
)
from strsort.counters import SortStats
from strsort.mkqs import mkqs_cached
from strsort.strset import LCP_UNDEF, WORD_CHARS, extract_keys, from_strings, lcp_sum

text_bytes = st.binary(min_size=0, max_size=10).map(
    lambda b: bytes(c if c != 0 else 1 for c in b)
)


class TestInsertionSort:
    def test_two_elements(self):
        s = from_strings([b"b", b"a"])
        assert ref_strings(insertion_sort(s)) == [b"a", b"b"]

    def test_already_sorted_with_depth(self):
        s = from_strings([b"xa", b"xb"])
        out = insertion_sort(s, depth=1)
        assert ref_strings(out) == [b"xa", b"xb"]

    def test_random_matches_reference(self):
        s = random_set(100, seed=1)
        assert ref_strings(insertion_sort(s)) == sorted(ref_strings(s))


class TestLcpInsertionSort:
    def test_example_with_duplicate(self):
        s = from_strings([b"ab", b"abc", b"ab"])
        res = lcp_insertion_sort(s)
        assert ref_strings(res.set) == [b"ab", b"ab", b"abc"]
        assert list(res.lcps) == [LCP_UNDEF, 2, 2]

    def test_singleton(self):
        res = lcp_insertion_sort(from_strings([b"q"]))
        assert list(res.lcps) == [LCP_UNDEF]

    def test_empty(self):
        res = lcp_insertion_sort(from_strings([]))
        assert len(res.set) == 0 and len(res.lcps) == 0

    def test_identical_strings_bound(self):
        n = 20
        s = from_strings([b"aaa"] * n)
        res = lcp_insertion_sort(s)
        L = lcp_sum(res.lcps)
        assert L == 3 * (n - 1)
        assert res.stats.char_cmps <= L + n * (n - 1) // 2

    def test_depth_offset(self):
        s = from_strings([b"zzb", b"zza"])
        res = lcp_insertion_sort(s, depth=2)
        assert ref_strings(res.set) == [b"zza", b"zzb"]
        assert list(res.lcps) == [LCP_UNDEF, 2]

    @given(st.lists(text_bytes, max_size=24))
    @settings(max_examples=150)
    def test_matches_oracle(self, items):
        s = from_strings(items)
        res = lcp_insertion_sort(s)
        assert ref_strings(res.set) == sorted(items)
        assert list(res.lcps) == ref_lcps(sorted(items))

    @given(st.lists(text_bytes, max_size=24), st.integers(0, 3))
    @settings(max_examples=100)
    def test_comparison_budget(self, tails, depth):
        prefix = b"x" * depth
        items = [prefix + t for t in tails]
        s = from_strings(items)
        stats = SortStats()
        res = lcp_insertion_sort(s, depth=depth, stats=stats)
        n = len(items)
        assert stats.char_cmps <= lcp_sum(res.lcps) + n * (n - 1) // 2

    def test_random_batch(self):
        for seed in range(5):
            s = random_set(80, seed=seed)
            res = lcp_insertion_sort(s)
            want = sorted(ref_strings(s))
            assert ref_strings(res.set) == want
            assert list(res.lcps) == ref_lcps(want)


def leaf_ranges() -> list[tuple[int, list[bytes]]]:
    """(depth, strings) of each range: every range shares `depth` characters."""
    rng = np.random.default_rng(5)
    long = b"x" * 30  # ties that last more than three words
    ranges = [
        (0, [b"", b"b", b"", b"a", b""]),  # empty strings
        (0, [b"q", b"p"]),  # two strings
        (3, [b"abc" + t for t in (b"", b"d", b"", b"dd")]),
        (8, [b"prefix--" + long + t for t in (b"b", b"a", b"", b"a", b"b", b"")]),
        (13, [b"p" * 13 + t for t in (long + long + b"q", long + long + b"p", long, long)]),
        (0, [bytes(range(1, 256)), bytes(range(255, 0, -1)), b"\xff" * 9, b"\xff\x01", b"\x01\xff"]),
        (2, [b"zz"]),  # a single string is already sorted
    ]
    ranges.append((0, [bytes(rng.integers(1, 4, size=rng.integers(0, 20), dtype=np.uint8)) for _ in range(300)]))
    ranges.append((5, [b"same!" * 4] * 7))  # equal strings
    return ranges


class TestWordLeaves:
    def _run(self, ranges, order):
        items, strings = [], []
        for depth, strs in ranges:
            items.append((len(strings), len(strings) + len(strs), depth))
            strings += strs
        s = from_strings(strings)
        work = s.handles.copy()
        for lo, hi, _ in items:
            work[lo:hi] = work[lo:hi][np.random.default_rng(lo).permutation(hi - lo)]
        start = work.copy()
        cache = np.zeros(len(work), dtype=np.uint64)
        for lo, hi, depth in items:
            cache[lo:hi] = extract_keys(s, work[lo:hi], depth)
        lcps = np.full(len(work), -7, dtype=np.int64)
        stats = SortStats()
        word_leaves(s, work, cache, [items[i] for i in order], lcps, stats)
        return s, items, start, work, lcps, stats

    def test_many_ranges_in_one_call(self):
        ranges = leaf_ranges()
        order = np.random.default_rng(2).permutation(len(ranges))
        s, items, start, work, lcps, stats = self._run(ranges, order)
        fetches = cmps = 0
        for lo, hi, depth in items:
            out = s.with_handles(work[lo:hi])
            want = ref_sorted_strings(s.with_handles(start[lo:hi]))
            assert ref_strings(out) == want
            # stable: equal strings keep their order in the range
            stable = sorted(start[lo:hi], key=lambda h: ref_strings(s.with_handles(np.array([h])))[0])
            assert list(work[lo:hi]) == stable
            expect = ref_lcps(want)
            assert lcps[lo] == -7  # the boundary entry belongs to the caller
            assert list(lcps[lo + 1 : hi]) == expect[1:]
            inner = [depth] + expect[1:] + [depth]
            fetches += sum((max(a, b) - depth) // WORD_CHARS for a, b in zip(inner, inner[1:]))
            cmps += sum(x - depth + 1 for x in expect[1:])
        assert stats.word_fetches == fetches
        assert stats.char_cmps == cmps
        assert fetches > 0

    def test_range_order_does_not_matter(self):
        ranges = leaf_ranges()
        a = self._run(ranges, range(len(ranges)))
        b = self._run(ranges, range(len(ranges))[::-1])
        assert np.array_equal(a[3], b[3]) and np.array_equal(a[4], b[4])
        assert a[5] == b[5]

    def test_no_ranges(self):
        s = from_strings([b"b", b"a"])
        work = s.handles.copy()
        word_leaves(s, work, np.zeros(2, np.uint64), [], None, SortStats())
        assert list(work) == list(s.handles)


@st.composite
def grouped_words(draw):
    """(words, group) with nondecreasing groups and words of one of four kinds."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=12))
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
    # groups past 2^62 need more than 64 key bits: the lexsort fallback
    offset = draw(st.sampled_from([0, 1 << 40, (1 << 62) + 7]))
    group = np.repeat(offset + np.cumsum(np.asarray(gaps, dtype=np.int64)), sizes)
    n = len(group)
    kind = draw(st.sampled_from(["any", "few", "equal", "low_byte"]))
    if kind == "any":
        words = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=n, max_size=n))
    elif kind == "few":
        pool = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=3))
        words = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif kind == "equal":
        words = [draw(st.integers(0, (1 << 64) - 1))] * n
    else:  # words that differ only in their last character
        high = draw(st.integers(0, (1 << 56) - 1)) << 8
        words = [high | low for low in draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))]
    return np.asarray(words, dtype=np.uint64), group


class TestStableWordOrder:
    @given(grouped_words())
    @settings(max_examples=300)
    def test_matches_lexsort(self, case):
        words, group = case
        assert np.array_equal(stable_word_order(words, group), np.lexsort((words, group)))

    @pytest.mark.parametrize("words, group", [
        ([], []),
        ([5], [3]),
        ([9, 2], [0, 0]),  # n = 2, one group
        ([2, 9], [0, 1]),
        ([7, 7, 7, 7], [1, 1, 1, 1]),  # all equal, one group
        ([0x61FF, 0x6100, 0x61FF, 0x6101, 0x6100], [0, 0, 0, 0, 0]),  # low byte only
    ])
    def test_small_cases(self, words, group):
        words, group = np.asarray(words, dtype=np.uint64), np.asarray(group, dtype=np.int64)
        assert np.array_equal(stable_word_order(words, group), np.lexsort((words, group)))

    @pytest.mark.parametrize("top_group, falls_back", [((1 << 60) - 1, False), (1 << 60, True)])
    def test_lexsort_fallback_from_large_groups(self, monkeypatch, top_group, falls_back):
        # 3 distinct words take 2 rank bits and 4 entries 2 index bits, so a
        # group of 2^60 makes the key 65 bits wide and one of 2^60 - 1 fits 64
        words = np.asarray([3, 1, 2, 1], dtype=np.uint64)
        group = np.asarray([0, 0, top_group, top_group], dtype=np.int64)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        assert list(stable_word_order(words, group)) == [1, 0, 3, 2]
        assert bool(calls) == falls_back


def count_calls(monkeypatch, module, name) -> list:
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_mkqs_cached_flushes_its_leaves_once(monkeypatch):
    s = random_set(20_000, seed=3)
    calls = count_calls(monkeypatch, mkqs, "word_leaves")
    res = mkqs_cached(s)
    assert len(calls) <= 1 + len(s) // LEAF_FLUSH
    want = ref_sorted_strings(s)
    assert ref_strings(res.set) == want
    assert list(res.lcps) == ref_lcps(want)


@pytest.mark.parametrize("module, sort, n", [
    (radix, radix.radix16_adaptive, 20_000),
    # a 16-bit step hands its leaf buckets, 17 strings on average, to the
    # sort's one collector at once, which sorts them LEAF_FLUSH at a time
    (radix, radix.radix16_adaptive, 70_000),
    (radix, radix.radix16_adaptive, 150_000),
    (radix, radix.radix8_inplace, 20_000),
    (mkqs, mkqs.mkqs, 20_000),
])
def test_plain_drivers_flush_their_leaves_once(monkeypatch, module, sort, n):
    # the drivers keep no word cache, so word_leaves fetches the first words
    s = random_set(n, seed=5, max_len=5)
    calls = count_calls(monkeypatch, module, "word_leaves")
    out = sort(s)
    assert 1 <= len(calls) <= 1 + n // LEAF_FLUSH
    assert all(args[2] is None for args in calls)
    # every step and leaf is stable, so equal strings keep their input order
    strings = ref_strings(s)
    assert list(out.handles) == list(s.handles[sorted(range(n), key=strings.__getitem__)])


def test_take_many_flushes_where_take_would():
    # the same ranges, one take() at a time and in take_many() batches,
    # reach word_leaves in the same groups, and both give back the same
    # ranges of at least LEAF_THRESHOLD strings
    rng = np.random.default_rng(4)
    sizes = rng.integers(0, 1200, size=400)
    hi = np.cumsum(sizes)
    lo, depth = hi - sizes, rng.integers(0, 3, size=400)
    flushes, rest = {}, {}
    for how in ("one", "many"):
        seen = []
        leaves = LeafCollector(None, None, None, None, None, lambda *args: seen.append(args[3].tolist()))
        if how == "one":
            rows = zip(lo.tolist(), hi.tolist(), depth.tolist())
            rest[how] = [row for row in rows if not leaves.take(*row)]
        else:
            rest[how] = [
                tuple(row)
                for cut in np.split(np.arange(400), [1, 7, 150, 151, 320])
                for row in leaves.take_many(range_rows(lo[cut], hi[cut], depth[cut])).tolist()
            ]
        leaves.flush()
        flushes[how] = [sorted(map(tuple, rows)) for rows in seen]
    assert flushes["one"] == flushes["many"]
    assert rest["one"] == rest["many"]
    big = sizes >= basecase.LEAF_THRESHOLD
    assert 0 < len(rest["one"]) == big.sum() < 400
    assert len(flushes["one"]) == 1 + int(sizes[~big & (sizes > 1)].sum()) // LEAF_FLUSH
    assert all(sum(b - a for a, b, _ in rows) < LEAF_FLUSH + LEAF_THRESHOLD for rows in flushes["one"])


def test_distinct_leaves_keep_flushes_within_bound(monkeypatch):
    # caching mkqs also keeps ranges of LEAF_THRESHOLD to LEAF_FLUSH strings
    # whose sampled words are distinct, flushing the pending leaves first,
    # so no flush sorts LEAF_FLUSH + LEAF_THRESHOLD strings
    monkeypatch.setattr(basecase, "LEAF_THRESHOLD", 32)
    monkeypatch.setattr(basecase, "LEAF_FLUSH", 256)
    s = random_set(6000, seed=8)
    calls = count_calls(monkeypatch, mkqs, "word_leaves")
    res = mkqs_cached(s)
    sizes = [[b - a for a, b, _ in np.asarray(args[3]).tolist()] for args in calls]
    assert any(max(rows) >= basecase.LEAF_THRESHOLD for rows in sizes)
    assert all(sum(rows) < basecase.LEAF_FLUSH + basecase.LEAF_THRESHOLD for rows in sizes)
    want = ref_sorted_strings(s)
    assert ref_strings(res.set) == want
    assert list(res.lcps) == ref_lcps(want)
