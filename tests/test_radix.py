import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import all_equal_set, random_set, ref_strings
from strsort import radix as radix_mod
from strsort.counters import SortStats
from strsort.mkqs import mkqs
from strsort.radix import radix8_inplace, radix16_adaptive
from strsort.strset import from_strings, verify

text_bytes = st.binary(min_size=0, max_size=12).map(
    lambda b: bytes(c if c != 0 else 1 for c in b)
)


class TestRadix8:
    def test_two(self):
        s = from_strings([b"b", b"a"])
        assert ref_strings(radix8_inplace(s)) == [b"a", b"b"]

    def test_all_equal(self):
        s = all_equal_set(300, b"mnop")
        assert verify(s, radix8_inplace(s)).ok

    def test_random_large(self):
        s = random_set(10_000, seed=6)
        out = radix8_inplace(s)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))

    @given(st.lists(text_bytes, max_size=40))
    @settings(max_examples=60)
    def test_matches_mkqs(self, items):
        s = from_strings(items)
        assert ref_strings(radix8_inplace(s)) == ref_strings(mkqs(s))

    def test_no_handle_scratch(self):
        s = random_set(500, seed=1)
        stats = SortStats()
        # the in-place variant has no swap array to account for
        radix8_inplace(s)
        assert stats.scratch_words == 0


class TestRadix16:
    def test_two_char_distinct_single_pass(self):
        items = [bytes([a, b]) for a in range(65, 91) for b in range(65, 91)]
        s = from_strings(items)
        out = radix16_adaptive(s)
        assert ref_strings(out) == sorted(items)

    def test_small_delegates_to_radix8(self):
        s = random_set(200, seed=2)
        stats = SortStats()
        out = radix16_adaptive(s, stats=stats)
        assert stats.scratch_words == 0  # no swap allocated below the threshold
        assert verify(s, out).ok

    def test_mixed_lengths(self):
        s = random_set(3_000, seed=8, max_len=6)
        assert verify(s, radix16_adaptive(s)).ok

    def test_large_uses_swap(self):
        s = random_set(70_000, seed=3, max_len=5)
        stats = SortStats()
        out = radix16_adaptive(s, stats=stats)
        assert stats.scratch_words == len(s)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))

    def test_caller_swap_reused(self):
        s = random_set(70_000, seed=4, max_len=5)
        swap = np.empty(len(s), dtype=np.int64)
        stats = SortStats()
        out = radix16_adaptive(s, swap=swap, stats=stats)
        assert stats.scratch_words == 0
        assert verify(s, out).ok

    @given(st.lists(text_bytes, max_size=40))
    @settings(max_examples=40)
    def test_matches_mkqs(self, items):
        s = from_strings(items)
        assert ref_strings(radix16_adaptive(s)) == ref_strings(mkqs(s))


@given(st.lists(text_bytes, min_size=1, max_size=8), st.integers(0, 12))
@settings(max_examples=100)
def test_digits16_match_characters(items, depth):
    # the two characters at depth, the second zero once the first ends the string
    s = from_strings(items)
    keep = [h for h, x in zip(s.handles.tolist(), items) if depth <= len(x)]
    seg = np.array(keep, dtype=np.int64)
    expect = []
    for h in keep:
        c1 = s.buffer[h + depth]
        expect.append(c1 << 8 | (s.buffer[h + depth + 1] if c1 else 0))
    digits = radix_mod._digits16(s, seg, depth)
    assert digits.dtype == np.uint16 and digits.tolist() == expect


def test_terminator_bucket_never_touched_again():
    # strings that end exactly at depth 1 go to the terminator bucket and
    # must not be read at deeper levels; above LEAF_THRESHOLD strings, so
    # radix steps (not one word_leaves leaf) read them
    items = [b"a"] * 600 + [b"a" + bytes([c]) for c in range(65, 91)] * 24
    s = from_strings(items)

    touched = []
    orig = radix_mod._digits8

    def spy(sset, work, lo, hi, depth):
        digs = orig(sset, work, lo, hi, depth)
        touched.append((depth, [int(x) for x in work[lo:hi]]))
        return digs

    radix_mod._digits8 = spy
    try:
        out = radix8_inplace(s)
    finally:
        radix_mod._digits8 = orig
    assert verify(s, out).ok
    # the depth-1 read routes b"a" into the terminator bucket; after that
    # the handle must never be read again
    short = {int(h) for h, it in zip(s.handles, items) if it == b"a"}
    last_touch = {}
    for depth, handles in touched:
        for h in handles:
            last_touch[h] = max(last_touch.get(h, 0), depth)
    for h in short:
        assert last_touch[h] <= 1
