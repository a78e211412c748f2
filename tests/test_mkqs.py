import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    all_equal_set,
    random_set,
    ref_lcps,
    ref_strings,
    url_like_set,
)
from strsort.basecase import INSERTION_THRESHOLD
from strsort.counters import SortStats
from strsort.mkqs import mkqs, mkqs_cached
from strsort.strset import WORD_CHARS, dist_stats, from_strings, verify

text_bytes = st.binary(min_size=0, max_size=12).map(
    lambda b: bytes(c if c != 0 else 1 for c in b)
)


class TestMkqs:
    def test_three_way_partition(self):
        s = from_strings([b"b", b"a", b"c"])
        assert ref_strings(mkqs(s)) == [b"a", b"b", b"c"]

    def test_all_equal(self):
        s = all_equal_set(100, b"zz")
        out = mkqs(s)
        assert verify(s, out).ok

    def test_random_thousand(self):
        s = random_set(1000, seed=2)
        out = mkqs(s)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))

    @given(st.lists(text_bytes, max_size=40))
    @settings(max_examples=60)
    def test_matches_reference(self, items):
        s = from_strings(items)
        assert ref_strings(mkqs(s)) == sorted(items)


class TestMkqsCached:
    def test_empty(self):
        res = mkqs_cached(from_strings([]))
        assert len(res.set) == 0

    def test_matches_plain_variant(self):
        for seed in range(4):
            s = random_set(400, seed=seed)
            assert ref_strings(mkqs(s)) == ref_strings(mkqs_cached(s).set)

    def test_lcp_output_exact(self):
        for seed in range(4):
            s = random_set(300, seed=seed)
            res = mkqs_cached(s)
            want = sorted(ref_strings(s))
            assert ref_strings(res.set) == want
            assert list(res.lcps) == ref_lcps(want)

    @given(st.lists(text_bytes, max_size=40))
    @settings(max_examples=60)
    def test_lcp_oracle_property(self, items):
        res = mkqs_cached(from_strings(items))
        want = sorted(items)
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)

    def test_one_refill_per_string_for_shared_prefix_level(self):
        # exactly one full word shared, then unique distinct tails
        rng = np.random.default_rng(0)
        tails = set()
        while len(tails) < 200:
            tails.add(bytes(rng.integers(33, 127, size=3, dtype=np.uint8)))
        items = [b"aaaaaaaa" + t for t in tails]
        s = from_strings(items)
        res = mkqs_cached(s)
        n = len(items)
        # one initial fill plus exactly one refill per string at depth 8
        assert res.stats.word_fetches == 2 * n

    def test_base_case_fetches_each_word_it_reads(self):
        # fewer strings than INSERTION_THRESHOLD: the whole sort is one base
        # case, whose comparisons read every string through depth 21
        tails = [bytes([a, b]) for a in b"bcdefgh" for b in b"stuvwxyz"][:40]
        items = [b"a" * 20 + t for t in tails]
        rng = np.random.default_rng(1)
        s = from_strings([items[i] for i in rng.permutation(len(items))])
        assert len(s) < INSERTION_THRESHOLD
        res = mkqs_cached(s)
        # the cached word plus the words at depths 8 and 16
        assert res.stats.word_fetches == 3 * len(items)
        assert ref_strings(res.set) == sorted(items)
        assert list(res.lcps) == ref_lcps(sorted(items))

    def test_access_bound_random(self):
        s = random_set(3000, seed=9)
        res = mkqs_cached(s)
        d = dist_stats(s)
        assert res.stats.word_fetches <= d.D // WORD_CHARS + len(s)

    def test_access_bound_all_equal(self):
        s = all_equal_set(500, b"abcabc")
        res = mkqs_cached(s)
        d = dist_stats(s)
        assert res.stats.word_fetches <= d.D // WORD_CHARS + len(s)

    def test_access_bound_url_like(self):
        s = url_like_set(2000, seed=4)
        res = mkqs_cached(s)
        d = dist_stats(s)
        assert res.stats.word_fetches <= d.D // WORD_CHARS + len(s)
        assert list(res.lcps) == ref_lcps(sorted(ref_strings(s)))

    def test_distinct_first_chars(self):
        items = [bytes([c]) * 3 for c in range(33, 127)]
        s = from_strings(items)
        res = mkqs_cached(s)
        d = dist_stats(s)
        assert res.stats.word_fetches <= d.D // WORD_CHARS + len(s)
        assert ref_strings(res.set) == sorted(items)

    def test_dchar(self):
        s = random_set(120, seed=3)
        res = mkqs_cached(s, want_dchar=True)
        arr = res.set.char_array()
        for i in range(1, len(s)):
            h = int(res.set.handles[i])
            assert res.dchar[i] == arr[h + int(res.lcps[i])]
