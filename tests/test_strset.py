import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_set, ref_lcps, ref_strings
from strsort.strset import (
    LCP_UNDEF,
    dist_stats,
    extract_key,
    extract_keys,
    first_diff_byte,
    first_zero_byte,
    from_strings,
    lcp,
    lcp_array_oracle,
    lcp_sum,
    load_delimited,
    shared_chars,
    sorted_copy,
    verify,
)

text_bytes = st.binary(min_size=0, max_size=12).map(
    lambda b: bytes(c if c != 0 else 1 for c in b)
)


class TestLoadDelimited:
    def test_zero_delimited(self):
        s = load_delimited(b"a\0b\0", 0)
        assert list(s.handles) == [0, 2]
        assert len(s) == 2

    def test_empty_input(self):
        assert len(load_delimited(b"")) == 0

    def test_newline_delimiter_remapped(self):
        s = load_delimited(b"ab\ncd\n", ord("\n"))
        assert ref_strings(s) == [b"ab", b"cd"]
        assert b"\n" not in s.buffer

    def test_trailing_delimiter_appended(self):
        s = load_delimited(b"ab\ncd", ord("\n"))
        assert ref_strings(s) == [b"ab", b"cd"]

    @given(st.lists(text_bytes.filter(lambda b: b"\n" not in b), max_size=8))
    def test_scan_matches_split(self, items):
        raw = b"\n".join(items) + b"\n" if items else b""
        s = load_delimited(raw, ord("\n"))
        assert ref_strings(s) == items


class TestExtractKey:
    def test_byte_layout(self):
        s = from_strings([b"ab"])
        key = extract_key(s, 0, 0)
        assert key.to_bytes(8, "big") == bytes([0x61, 0x62, 0, 0, 0, 0, 0, 0])

    def test_empty_string_key_is_zero(self):
        s = from_strings([b"", b"x"])
        assert extract_key(s, int(s.handles[0]), 0) == 0
        assert extract_key(s, int(s.handles[0]), 5) == 0

    def test_key_does_not_leak_into_next_string(self):
        s = from_strings([b"ab", b"cd"])
        key = extract_key(s, 0, 0)
        assert key.to_bytes(8, "big") == b"ab" + b"\0" * 6

    @given(st.lists(text_bytes, min_size=2, max_size=2), st.integers(0, 10))
    def test_order_isomorphism(self, pair, h):
        a, b = pair
        s = from_strings([a, b])
        ka = extract_key(s, int(s.handles[0]), min(h, len(a)))
        kb = extract_key(s, int(s.handles[1]), min(h, len(b)))
        sa = a[min(h, len(a)) : min(h, len(a)) + 8]
        sb = b[min(h, len(b)) : min(h, len(b)) + 8]
        sa += b"\0" * (8 - len(sa))
        sb += b"\0" * (8 - len(sb))
        assert (ka <= kb) == (sa <= sb)

    def test_batch_matches_scalar(self):
        s = random_set(50, seed=11)
        keys = extract_keys(s, s.handles, 2)
        for i, h in enumerate(s.handles):
            assert int(keys[i]) == extract_key(s, int(h), 2)


class TestLcp:
    def test_examples(self):
        s = from_strings([b"abc", b"abd", b"", b"xyz", b"aaa", b"aaa"])
        h = s.handles
        assert lcp(s, int(h[0]), int(h[1])) == 2
        assert lcp(s, int(h[2]), int(h[3])) == 0
        assert lcp(s, int(h[4]), int(h[5])) == 3

    @given(st.lists(text_bytes, min_size=2, max_size=2))
    def test_symmetry(self, pair):
        s = from_strings(pair)
        a, b = int(s.handles[0]), int(s.handles[1])
        assert lcp(s, a, b) == lcp(s, b, a)
        assert lcp(s, a, a) == len(pair[0])


class TestLcpArrayOracle:
    def test_example(self):
        s = from_strings([b"ab", b"abc", b"abd"])
        assert list(lcp_array_oracle(s)) == [LCP_UNDEF, 2, 2]

    def test_singleton(self):
        s = from_strings([b"a"])
        assert list(lcp_array_oracle(s)) == [LCP_UNDEF]

    def test_duplicates(self):
        s = from_strings([b"x", b"x"])
        assert list(lcp_array_oracle(s)) == [LCP_UNDEF, 1]

    def test_unsorted_reports_index(self):
        s = from_strings([b"b", b"a"])
        with pytest.raises(ValueError, match="index 1"):
            lcp_array_oracle(s)


class TestVerify:
    def test_identity_passes(self):
        s = from_strings([b"a", b"b"])
        assert verify(s, s).ok

    def test_missing_handle_fails(self):
        s = from_strings([b"a", b"b"])
        bad = s.with_handles(np.array([s.handles[0], s.handles[0]]))
        rep = verify(s, bad)
        assert not rep.ok and not rep.permutation_ok

    def test_swapped_fails_with_index(self):
        s = from_strings([b"a", b"b", b"c"])
        bad = s.with_handles(s.handles[[0, 2, 1]])
        rep = verify(s, bad)
        assert not rep.ok and not rep.order_ok and rep.first_violation == 2


class TestDistStats:
    def test_two_distinct(self):
        d = dist_stats(from_strings([b"a", b"b"]))
        assert (d.L, d.D) == (0, 2)

    def test_two_equal(self):
        d = dist_stats(from_strings([b"ab", b"ab"]))
        assert (d.L, d.D) == (2, 6)

    def test_empty(self):
        d = dist_stats(from_strings([]))
        assert (d.L, d.D) == (0, 0)

    @given(st.lists(text_bytes, max_size=12))
    @settings(max_examples=60)
    def test_d_at_least_l(self, items):
        d = dist_stats(from_strings(items))
        assert d.D >= d.L


def _words(*items: bytes) -> np.ndarray:
    return np.array([int.from_bytes(b.ljust(8, b"\0"), "big") for b in items], dtype=np.uint64)


class TestWordHelpers:
    def test_shared_chars_plain(self):
        assert shared_chars(_words(b"abcdefgh"), _words(b"abcxefgh"))[0] == 3

    def test_equal_words_cap_at_terminator(self):
        a = _words(b"ab")
        assert shared_chars(a, a)[0] == 2

    def test_fully_equal_no_terminator(self):
        a = _words(b"abcdefgh")
        assert shared_chars(a, a)[0] == 8

    def test_scalars(self):
        a, b = _words(b"abc", b"abd")
        assert shared_chars(a, b) == 2
        assert first_zero_byte(a) == 3

    def test_first_diff_byte(self):
        a = _words(b"abcdefgh", b"", b"\xff", b"a\x01")
        b = _words(b"abcdefgx", b"", b"\x01", b"a")
        assert list(first_diff_byte(a, b)) == [7, 8, 0, 1]

    def test_first_zero_byte_of_any_word(self):
        # an exact test per byte: a zero byte after a 0x01 byte, or before
        # nonzero bytes, is found as the first zero
        words = np.array(
            [0, 1 << 56, 0x0100000000000000 + 0x01, 0xFFFFFFFFFFFFFFFF, 0x01FF00FF01000000],
            dtype=np.uint64,
        )
        assert list(first_zero_byte(words)) == [0, 1, 1, 8, 2]

    @given(st.lists(text_bytes, min_size=2, max_size=2), st.integers(0, 4))
    @settings(max_examples=200)
    def test_match_the_strings(self, pair, depth):
        s = from_strings(pair)
        a, b = extract_keys(s, s.handles, depth)
        x, y = (p[depth : depth + 8] for p in pair)
        k = 0
        while k < min(len(x), len(y)) and x[k] == y[k]:
            k += 1
        assert shared_chars(a, b) == k
        assert first_zero_byte(a) == min(len(x), 8)
        assert first_diff_byte(a, b) == (8 if x.ljust(8, b"\0") == y.ljust(8, b"\0") else k)


def test_sorted_copy_matches_reference():
    s = random_set(200, seed=5)
    out = sorted_copy(s)
    assert ref_strings(out) == sorted(ref_strings(s))
    assert list(lcp_array_oracle(out)) == ref_lcps(ref_strings(out))
    assert lcp_sum(lcp_array_oracle(out)) >= 0
