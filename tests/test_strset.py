import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_set, ref_lcps, ref_strings, suffix_set
from strsort.strset import (
    LCP_UNDEF,
    WORD_CHARS,
    StringSet,
    dist_stats,
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
# bytes 0x80-0xFF put the sign bit of a word key at stake
high_bytes = st.binary(min_size=0, max_size=20).map(lambda b: b.replace(b"\0", b"\x80"))


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
        key = int(extract_keys(s, s.handles[:1], 0)[0])
        assert key.to_bytes(8, "big") == bytes([0x61, 0x62, 0, 0, 0, 0, 0, 0])

    def test_empty_string_key_is_zero(self):
        # an empty string reaches only depth 0; the strings after it fill
        # the rest of its word, and the key must not read them
        s = from_strings([b"", b"x", b"yyyyyyy"])
        assert extract_keys(s, s.handles[:1], 0)[0] == 0

    def test_key_does_not_leak_into_next_string(self):
        s = from_strings([b"ab", b"cd"])
        key = int(extract_keys(s, s.handles[:1], 0)[0])
        assert key.to_bytes(8, "big") == b"ab" + b"\0" * 6

    @given(st.lists(text_bytes, min_size=2, max_size=2), st.integers(0, 10))
    def test_order_isomorphism(self, pair, h):
        a, b = pair
        s = from_strings([a, b])
        ka = int(extract_keys(s, s.handles[:1], min(h, len(a)))[0])
        kb = int(extract_keys(s, s.handles[1:], min(h, len(b)))[0])
        sa = a[min(h, len(a)) : min(h, len(a)) + 8]
        sb = b[min(h, len(b)) : min(h, len(b)) + 8]
        sa += b"\0" * (8 - len(sa))
        sb += b"\0" * (8 - len(sb))
        assert (ka <= kb) == (sa <= sb)

    def test_batch_matches_scalar(self):
        s = random_set(50, seed=11)
        keys = extract_keys(s, s.handles, 2)
        for i, h in enumerate(s.handles):
            assert keys[i] == extract_keys(s, np.array([h]), 2)[0]


def _oracle_end(buf: bytes, h: int) -> int:
    return buf.index(b"\0", h)


def _oracle_key(buf: bytes, h: int, depth: int) -> int:
    """The key from the bytes alone: the string sliced up to its terminator."""
    string = buf[h : _oracle_end(buf, h)]
    return int.from_bytes(string[depth : depth + 8].ljust(8, b"\0"), "big")


# an empty buffer; buffers shorter than a word; a last string that ends in
# the buffer's final 7 bytes; empty strings; high bytes
EDGE_SETS = [[], [b""], [b"ab"], [b"\xff" * 6], [b"\xff" * 7], [b"a" * 11, b"\x80\xfe"],
             [b"", b"", b"q" * 9], [b"\x01" * 16, b"\xff"]]
with_depth = high_bytes.flatmap(lambda x: st.tuples(st.just(x), st.integers(0, len(x) + 9)))


class TestWordView:
    @pytest.mark.parametrize("items", EDGE_SETS)
    def test_edge_sets_match_bytes_oracle(self, items):
        s = from_strings(items)
        lens = np.array([len(x) for x in items], dtype=np.int64)
        assert s.ends().tolist() == [_oracle_end(s.buffer, h) for h in s.handles.tolist()]
        for depth in range(max(map(len, items), default=0) + 10):
            depths = np.minimum(depth, lens)
            expect = [_oracle_key(s.buffer, h, d) for h, d in zip(s.handles.tolist(), depths.tolist())]
            assert extract_keys(s, s.handles, depths).tolist() == expect
        assert extract_keys(s, s.handles, lens).tolist() == [0] * len(items)

    @given(st.lists(high_bytes, max_size=6), st.integers(0, 29))
    @settings(max_examples=150)
    def test_keys_match_bytes_oracle(self, items, depth):
        s = from_strings(items)
        depths = np.array([min(depth, len(x)) for x in items[::-1]], dtype=np.int64)
        keys = extract_keys(s, s.handles[::-1], depths)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            _oracle_key(s.buffer, h, d) for h, d in zip(s.handles[::-1].tolist(), depths.tolist())
        ]

    @given(st.lists(with_depth, max_size=6))
    @settings(max_examples=150)
    def test_per_handle_depths_match_bytes_oracle(self, pairs):
        s = from_strings([x for x, _ in pairs])
        depths = np.array([min(d, len(x)) for x, d in pairs], dtype=np.int64)
        expect = [_oracle_key(s.buffer, h, d) for h, d in zip(s.handles.tolist(), depths.tolist())]
        assert extract_keys(s, s.handles, depths).tolist() == expect

    @given(st.lists(high_bytes, max_size=8))
    def test_ends_match_bytes_oracle(self, items):
        s = from_strings(items)
        assert s.ends().tolist() == [_oracle_end(s.buffer, h) for h in s.handles.tolist()]
        assert s.strings() == items

    def test_ends_of_suffixes(self):
        # every suffix ends at the one terminator, many words away
        s = suffix_set(300, seed=2)
        assert s.ends().tolist() == [300] * 300
        assert extract_keys(s, s.handles, 0).tolist() == [
            _oracle_key(s.buffer, h, 0) for h in range(300)
        ]

    def test_view_is_the_buffer(self):
        s = from_strings([b"abcdefgh", b"ij"])
        assert s._view.base is s.buffer and not s._view.flags.writeable
        assert s.words_at(np.array([0, 9, 11])).tolist() == [
            int.from_bytes(b"abcdefgh", "big"),
            int.from_bytes(b"ij\0".ljust(8, b"\0"), "big"),
            0,
        ]

    def test_table_costs_four_bytes_per_word(self):
        s = random_set(500, seed=4)
        assert s._next.dtype == np.int32
        assert len(s._next) == (len(s.buffer) + 7) // 8 + 1

    def test_with_handles_shares_view_and_table(self):
        s = random_set(20, seed=9)
        t = s.with_handles(s.handles[::-1])
        assert t._view is s._view and t._next is s._next and t.buffer is s.buffer

    def test_unterminated_buffer_rejected(self):
        with pytest.raises(ValueError, match="zero-terminated"):
            StringSet(b"ab", np.array([0]))


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

    def test_first_diff_byte_at_every_bit(self):
        # the highest differing bit at each of the 64 positions, alone or
        # with every bit below it set; arrays and single words alike
        xs = [0] + [1 << b for b in range(64)] + [(1 << b) - 1 for b in range(1, 65)]
        want = [WORD_CHARS - (x.bit_length() + 7) // 8 for x in xs]
        words = np.array(xs, dtype=np.uint64)
        assert list(first_diff_byte(words, np.uint64(0))) == want
        assert [first_diff_byte(w, np.uint64(0)) for w in words] == want

    @given(st.lists(text_bytes, min_size=2, max_size=2), st.integers(0, 4))
    @settings(max_examples=200)
    def test_match_the_strings(self, pair, depth):
        s = from_strings(pair)
        depths = [min(depth, len(p)) for p in pair]
        a, b = extract_keys(s, s.handles, np.array(depths, dtype=np.int64))
        x, y = (p[d : d + 8] for p, d in zip(pair, depths))
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
