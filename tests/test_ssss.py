import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    all_equal_set,
    random_set,
    ref_lcps,
    ref_strings,
    shared_prefix_clusters,
)
from strsort import ssss
from strsort.ssss import (
    SplitterTree,
    child_depths,
    classify_keys,
    draw_sample,
    s5_sort,
    select_splitters,
    tree_capacity,
)
from strsort.parallel import prefix_offsets, scatter
from strsort.strset import WORD_CHARS, extract_keys, from_strings, lcp, verify

text_bytes = st.binary(min_size=0, max_size=12).map(
    lambda b: bytes(c if c != 0 else 1 for c in b)
)


def record_steps(monkeypatch) -> list:
    """Record (lo, depth, bounds, child depths, tree) of every s5_step call."""
    records = []
    step = ssss.s5_step

    def recording(ctx, src, dst, lo, hi, depth):
        bounds, tree = step(ctx, src, dst, lo, hi, depth)
        records.append((lo, depth, bounds, child_depths(tree, depth), tree))
        return bounds, tree

    monkeypatch.setattr(ssss, "s5_step", recording)
    return records


def word(b: bytes) -> int:
    return int.from_bytes((b + b"\0" * 8)[:8], "big")


class TestDrawSample:
    def test_count(self):
        s = random_set(50, seed=0)
        rng = np.random.default_rng(1)
        sample = draw_sample(s, s.handles, 0, 1, rng)
        assert len(sample) == 3  # v*alpha + alpha - 1

    def test_single_string(self):
        s = from_strings([b"only"])
        rng = np.random.default_rng(1)
        sample = draw_sample(s, s.handles, 0, 3, rng)
        assert set(int(x) for x in sample) == {word(b"only")}

    def test_deterministic(self):
        s = random_set(100, seed=0)
        a = draw_sample(s, s.handles, 0, 7, np.random.default_rng(42))
        b = draw_sample(s, s.handles, 0, 7, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestSelectSplitters:
    def test_distinct_sample_recursive_medians(self):
        # v=3, sample of 9 distinct keys: middle of [0,9) is 4, then the
        # middles of the left/right subranges [0,4) and [5,9)
        sample = np.array([word(bytes([c])) for c in range(65, 74)], dtype=np.uint64)
        tree = select_splitters(sample, 3)
        assert [int(x) for x in tree.inorder] == [
            int(sample[2]),
            int(sample[4]),
            int(sample[7]),
        ]

    def test_all_equal_sample(self):
        k = word(b"same")
        sample = np.full(9, k, dtype=np.uint64)
        tree = select_splitters(sample, 3)
        assert all(int(x) == k for x in tree.inorder)
        # the splitter covers the terminator, so equality buckets are final
        assert tree.eq_final.all()

    def test_dominant_key_skipped_where_possible(self):
        dom = word(b"mm")
        sample = np.array(
            sorted([word(b"aa"), word(b"bb")] + [dom] * 5 + [word(b"yy"), word(b"zz")]),
            dtype=np.uint64,
        )
        tree = select_splitters(sample, 3)
        assert int(tree.inorder[1]) == dom  # dominant key at the root slot
        assert int(tree.inorder[0]) != dom
        assert int(tree.inorder[2]) != dom

    def test_slcp(self):
        sample = np.array(
            sorted([word(b"abcx"), word(b"abcy"), word(b"q")] * 3), dtype=np.uint64
        )
        tree = select_splitters(sample, 3)
        # in-order: abcx, abcy, q
        assert list(tree.slcp) == [0, 3, 0, 0]

    def test_inorder_sorted_and_tree_layout(self):
        sample = np.array(sorted(word(bytes([c, c])) for c in range(40, 55)), np.uint64)
        tree = select_splitters(sample, 7)
        assert (np.diff(tree.inorder.astype(object)) >= 0).all()
        # level-order: root is the middle in-order splitter
        assert int(tree.tree[1]) == int(tree.inorder[3])


class TestClassify:
    def test_single_splitter_semantics(self):
        s = from_strings([b"a", b"m", b"z"])
        sample = np.full(3, word(b"m"), dtype=np.uint64)
        tree = select_splitters(sample, 1)
        oracle = classify_keys(extract_keys(s, s.handles, 0), tree, "unroll")
        assert list(oracle) == [0, 1, 2]

    def test_bucket_count_v7(self):
        tree = select_splitters(
            np.array(sorted(word(bytes([c])) for c in range(60, 75)), np.uint64), 7
        )
        assert tree.num_buckets == 15

    @given(st.lists(text_bytes, min_size=1, max_size=60), st.integers(0, 5))
    @settings(max_examples=80)
    def test_unroll_equals_equal(self, items, seed):
        s = from_strings(items)
        rng = np.random.default_rng(seed)
        v = tree_capacity(len(items), 7)
        sample = draw_sample(s, s.handles, 0, v, rng)
        tree = select_splitters(sample, v)
        keys = extract_keys(s, s.handles, 0)
        a = classify_keys(keys, tree, "unroll")
        b = classify_keys(keys, tree, "equal")
        assert np.array_equal(a, b)

    def test_unroll_equals_equal_with_duplicate_splitters(self):
        dup = word(b"kk")
        inorder = np.array(
            sorted([word(b"aa"), dup, dup, dup, word(b"pp"), word(b"tt"), word(b"zz")]),
            dtype=np.uint64,
        )
        tree = select_splitters(inorder, 7)
        keys = np.array(
            [word(x) for x in (b"a", b"aa", b"kk", b"kkk", b"pp", b"zz", b"zzz")],
            dtype=np.uint64,
        )
        a = classify_keys(keys, tree, "unroll")
        b = classify_keys(keys, tree, "equal")
        assert np.array_equal(a, b)

    def test_classification_brackets_order(self):
        s = random_set(500, seed=12)
        v = 7
        rng = np.random.default_rng(0)
        tree = select_splitters(draw_sample(s, s.handles, 0, v, rng), v)
        keys = extract_keys(s, s.handles, 0)
        oracle = classify_keys(keys, tree, "unroll")
        for i in range(len(s)):
            b = int(oracle[i])
            k = int(keys[i])
            j = b // 2
            if b % 2 == 1:
                assert k == int(tree.inorder[j])
            else:
                if j > 0:
                    assert k > int(tree.inorder[j - 1])
                if j < v:
                    assert k < int(tree.inorder[j])


def distribute(handles, oracle, num_buckets):
    """One-shard run of the phased engine's prefix sum and scatter."""
    oracle = np.asarray(oracle, dtype=np.uint16)
    counts = np.bincount(oracle, minlength=num_buckets)[None, :]
    offsets, bounds = prefix_offsets(counts)
    out = np.empty(len(handles), dtype=np.int64)
    scatter(handles, oracle, offsets[0][counts[0] > 0], out)
    return out, bounds


class TestDistribute:
    def test_counting_example(self):
        handles = np.array([10, 20, 30], dtype=np.int64)
        oracle = np.array([1, 0, 1])
        out, bounds = distribute(handles, oracle, 3)
        assert list(bounds) == [0, 1, 3, 3]
        assert list(out) == [20, 10, 30]

    def test_single_bucket(self):
        handles = np.array([5, 6, 7], dtype=np.int64)
        out, bounds = distribute(handles, np.zeros(3, dtype=np.int64), 3)
        assert sorted(out) == [5, 6, 7]
        assert list(bounds) == [0, 3, 3, 3]

    @given(st.lists(st.integers(0, 6), max_size=50))
    def test_conservation(self, oracle):
        handles = np.arange(len(oracle), dtype=np.int64)
        out, bounds = distribute(handles, np.asarray(oracle, dtype=np.int64), 7)
        assert bounds[-1] == len(oracle)
        assert sorted(out) == list(range(len(oracle)))


class TestS5Sort:
    def test_tiny_delegates_to_base_case(self):
        s = random_set(10, seed=0)
        out = s5_sort(s)
        assert ref_strings(out) == sorted(ref_strings(s))

    def test_verify_and_lcp_oracle(self):
        for seed in range(3):
            s = random_set(2000, seed=seed)
            res = s5_sort(s, want_lcps=True, t_medium=256)
            assert verify(s, res.set).ok
            want = sorted(ref_strings(s))
            assert ref_strings(res.set) == want
            assert list(res.lcps) == ref_lcps(want)

    def test_both_variants_sort(self):
        s = random_set(3000, seed=5)
        a = s5_sort(s, variant="unroll", t_medium=256)
        b = s5_sort(s, variant="equal", t_medium=256)
        assert ref_strings(a) == ref_strings(b) == sorted(ref_strings(s))

    def test_equality_buckets_advance_depth_by_word(self, monkeypatch):
        s = shared_prefix_clusters(4000, seed=1, prefix_len=8)
        records = record_steps(monkeypatch)
        res = s5_sort(s, want_lcps=True, t_medium=512)
        assert verify(s, res.set).ok
        assert records, "expected at least one classification step"
        # clusters share exactly 8 characters: every deep recursion entered
        # through an equality bucket must advance by WORD_CHARS
        _, root_depth, _, root_child_depths, _ = records[0]
        odd_depths = root_child_depths[1::2]
        assert (odd_depths == root_depth + WORD_CHARS).all()
        deeper = [r for r in records[1:] if r[1] == WORD_CHARS]
        assert deeper, "expected recursion into an equality bucket at depth 8"

    def test_all_equal_terminates(self):
        s = all_equal_set(5000, b"abcdefghijxyz")
        res = s5_sort(s, want_lcps=True, t_medium=512)
        assert verify(s, res.set).ok
        assert list(res.lcps) == ref_lcps(sorted(ref_strings(s)))

    def test_deterministic_with_seed(self):
        s = random_set(2000, seed=4)
        a = s5_sort(s, seed=77, t_medium=256)
        b = s5_sort(s, seed=77, t_medium=256)
        assert np.array_equal(a.handles, b.handles)

    def test_bucket_lcp_property(self, monkeypatch):
        # within every produced bucket, pairs share at least the documented
        # prefix credit
        s = random_set(10_000, seed=13)
        records = record_steps(monkeypatch)
        res = s5_sort(s, t_medium=1024)
        assert verify(s, res).ok
        rng = np.random.default_rng(0)
        checked = 0
        for step_lo, _, bounds, depths, tree in records:
            # bucket member handles were written into the destination array;
            # recompute membership from bounds against the *final* sorted set
            for i in range(tree.num_buckets):
                lo = step_lo + int(bounds[i])
                hi = step_lo + int(bounds[i + 1])
                if hi - lo < 2:
                    continue
                credit = int(depths[i])
                take = min(20, hi - lo)
                idx = rng.integers(lo, hi, size=(take, 2))
                for a, b in idx:
                    ha = int(res.handles[int(a)])
                    hb = int(res.handles[int(b)])
                    assert lcp(s, ha, hb) >= credit
                    checked += 1
        assert checked > 100

    @given(st.lists(text_bytes, max_size=80), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_property_sort_and_lcps(self, items, seed):
        s = from_strings(items)
        res = s5_sort(s, want_lcps=True, seed=seed, t_medium=16)
        want = sorted(items)
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)
