import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import all_equal_set, random_set, ref_strings
from strsort import radix as radix_mod
from strsort.bench import ALGORITHMS
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

    @pytest.mark.parametrize("algo", ["radix8", "radix16"])
    def test_no_handle_scratch(self, monkeypatch, algo):
        # both sorts run in place on their one handle copy; with 16-bit
        # steps taken, radix16 still charges no swap array
        monkeypatch.setattr(radix_mod, "RADIX16_THRESHOLD", 2048)
        s = random_set(5000, seed=1)
        stats = SortStats()
        out = ALGORITHMS[algo](s, 1, 1, stats)
        assert verify(s, out).ok
        assert stats == SortStats()


class TestRadix16:
    def test_two_char_distinct_single_pass(self):
        items = [bytes([a, b]) for a in range(65, 91) for b in range(65, 91)]
        s = from_strings(items)
        out = radix16_adaptive(s)
        assert ref_strings(out) == sorted(items)

    def test_small_delegates_to_radix8(self):
        s = random_set(200, seed=2)
        out = radix16_adaptive(s)
        assert verify(s, out).ok
        assert np.array_equal(out.handles, radix8_inplace(s).handles)

    def test_mixed_lengths(self):
        s = random_set(3_000, seed=8, max_len=6)
        assert verify(s, radix16_adaptive(s)).ok

    def test_large_takes_16bit_steps(self):
        s = random_set(70_000, seed=3, max_len=5)
        out = radix16_adaptive(s)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))

    @given(st.lists(text_bytes, max_size=40))
    @settings(max_examples=40)
    def test_matches_mkqs(self, items):
        s = from_strings(items)
        assert ref_strings(radix16_adaptive(s)) == ref_strings(mkqs(s))

    def test_equal_range_after_a_16bit_step_is_finished(self, monkeypatch):
        # the root's 16-bit step gathers 3000 copies of one string in one
        # bucket; their next step finds all digits equal and finishes them
        rng = np.random.default_rng(9)
        others = [bytes(rng.integers(97, 120, size=5, dtype=np.uint8)) for _ in range(2000)]
        items = [b"y" * 30] * 3000 + others
        s = from_strings([items[i] for i in rng.permutation(len(items))])
        monkeypatch.setattr(radix_mod, "RADIX16_THRESHOLD", 1024)
        out = radix16_adaptive(s)
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(items)


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


def ref_skip(strings, depth):
    """First depth >= `depth` where the strings' characters (terminator
    included) are not all the same, or None when the strings end together."""
    i = depth
    while True:
        chars = {s[i] if i < len(s) else 0 for s in strings}
        if len(chars) > 1:
            return i
        if chars == {0}:
            return None
        i += 1


@given(
    st.sampled_from([0, 1, 7, 8, 9, 16, 17]),
    st.lists(text_bytes, min_size=1, max_size=5),
    st.lists(st.integers(0, 17), max_size=3),
    st.lists(text_bytes, max_size=4),
    st.booleans(),
    st.data(),
)
@settings(max_examples=300)
def test_skip_shared_matches_characters(shared, tails, cuts, others, group_last, data):
    # a group sharing `shared` characters, some ending inside that prefix,
    # among strings outside the group; with group_last the group sits at
    # the buffer's end, so its last words come from the words_at tail
    prefix = (b"abcdefghijklmnopq" * 2)[:shared]
    group = [prefix + t for t in tails] + [prefix[:c] for c in cuts]
    items = others + group if group_last else group + others
    s = from_strings(items)
    first = len(others) if group_last else 0
    seg = s.handles[first : first + len(group)]
    depth = data.draw(st.integers(0, min(len(x) for x in group)))
    assert radix_mod.skip_shared(s, seg, depth) == ref_skip(group, depth)


def test_skip_shared_reads_the_buffer_tail():
    # the two strings fill the buffer's last 7 bytes; equal ones end together
    s = from_strings([b"x" * 20, b"ab", b"ac"])
    assert radix_mod.skip_shared(s, s.handles[1:], 0) == 1
    s = from_strings([b"x" * 20, b"ab", b"ab"])
    assert radix_mod.skip_shared(s, s.handles[1:], 0) is None
    s = from_strings([b"", b""])
    assert radix_mod.skip_shared(s, s.handles, 0) is None


def url_like(n, seed=5):
    """URLs sharing 23 characters, then a section and a page id; some repeat."""
    rng = np.random.default_rng(seed)
    sections = [b"news/", b"sport/", b"blog/archive/"]
    return [
        b"http://www.example.com/" + sections[int(w)] + b"%d" % int(p)
        for w, p in zip(rng.integers(0, 3, size=n), rng.integers(0, 4000, size=n))
    ]


def test_no_step_distributes_into_one_bucket(monkeypatch):
    items = url_like(8000)
    s = from_strings(items)
    expect = s.handles[sorted(range(len(items)), key=items.__getitem__)]
    widths = []
    orig = radix_mod.distribute

    def spy(seg, digs, k):
        bounds = orig(seg, digs, k)
        widths.append((k.bit_length() - 1, int(np.count_nonzero(np.diff(bounds)))))
        return bounds

    monkeypatch.setattr(radix_mod, "distribute", spy)
    assert np.array_equal(radix8_inplace(s).handles, expect)
    monkeypatch.setattr(radix_mod, "RADIX16_THRESHOLD", 2048)  # 16-bit steps run
    assert np.array_equal(radix16_adaptive(s).handles, expect)
    assert {w for w, _ in widths} == {8, 16}
    assert all(buckets > 1 for _, buckets in widths)


def test_strings_ending_in_a_skipped_prefix_are_not_read_again(monkeypatch):
    # the short strings end at depth 10, inside the prefix the first step
    # skips; the depth-10 step routes them into the terminator bucket
    items = [b"abcdefghij"] * 600 + [b"abcdefghij" + bytes([c]) for c in range(65, 91)] * 24
    s = from_strings(items)
    touched = []
    digits8, skip = radix_mod._digits8, radix_mod.skip_shared

    def spy_digits(sset, work, lo, hi, depth):
        touched.append((depth, work[lo:hi].tolist()))
        return digits8(sset, work, lo, hi, depth)

    def spy_skip(sset, seg, depth):
        found = skip(sset, seg, depth)
        touched.append((depth if found is None else found, seg.tolist()))
        return found

    monkeypatch.setattr(radix_mod, "_digits8", spy_digits)
    monkeypatch.setattr(radix_mod, "skip_shared", spy_skip)
    out = radix8_inplace(s)
    assert verify(s, out).ok
    assert ref_strings(out) == sorted(items)
    short = {int(h) for h, it in zip(s.handles, items) if it == b"abcdefghij"}
    last_touch = {}
    for depth, handles in touched:
        for h in handles:
            last_touch[h] = max(last_touch.get(h, 0), depth)
    assert all(last_touch[h] == 10 for h in short)


def test_width_follows_range_size(monkeypatch):
    # radix16 takes 16-bit steps exactly on the ranges of at least
    # RADIX16_THRESHOLD strings; radix8 takes 8-bit steps everywhere.  The
    # 6000 strings share a prefix, then split four ways on two characters
    # into ranges of about 1500 strings, between LEAF_THRESHOLD and 2048
    rng = np.random.default_rng(23)
    heads = rng.choice([b"ax", b"ay", b"bx", b"by"], size=6000)
    items = [b"http://x/" + h + bytes(rng.integers(97, 123, size=6, dtype=np.uint8)) for h in heads]
    s = from_strings(items)
    sizes = {8: [], 16: []}
    digits8, digits16 = radix_mod._digits8, radix_mod._digits16

    def spy8(sset, work, lo, hi, depth):
        sizes[8].append(hi - lo)
        return digits8(sset, work, lo, hi, depth)

    def spy16(sset, seg, depth):
        sizes[16].append(len(seg))
        return digits16(sset, seg, depth)

    monkeypatch.setattr(radix_mod, "_digits8", spy8)
    monkeypatch.setattr(radix_mod, "_digits16", spy16)
    assert ref_strings(radix8_inplace(s)) == sorted(items)
    assert sizes[8] and not sizes[16]
    sizes[8].clear()
    monkeypatch.setattr(radix_mod, "RADIX16_THRESHOLD", 2048)
    assert ref_strings(radix16_adaptive(s)) == sorted(items)
    assert sizes[16] and min(sizes[16]) >= 2048
    assert sizes[8] and max(sizes[8]) < 2048
