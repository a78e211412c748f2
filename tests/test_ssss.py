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
from strsort.basecase import distribute, local_classifier
from strsort.counters import SortStats
from strsort.ssss import (
    S5Context,
    SplitterTree,
    child_depths,
    classify_keys,
    draw_sample,
    finish_buckets,
    s5_buckets,
    s5_sort,
    select_splitters,
    step_tree,
    tree_capacity,
)
from strsort.strset import (
    LCP_UNDEF,
    WORD_CHARS,
    extract_keys,
    first_zero_byte,
    from_strings,
    lcp,
    shared_chars,
    verify,
)

text_bytes = st.binary(min_size=0, max_size=12).map(
    lambda b: bytes(c if c != 0 else 1 for c in b)
)


def record_steps(monkeypatch) -> list:
    """Record (lo, depth, bounds, child depths, tree) of every step, as s5_step
    hands them to finish_buckets."""
    records = []
    finish = ssss.finish_buckets

    def recording(ctx, tree, bounds, lo, depth):
        records.append((lo, depth, bounds, child_depths(tree, depth), tree))
        return finish(ctx, tree, bounds, lo, depth)

    monkeypatch.setattr(ssss, "finish_buckets", recording)
    return records


def word(b: bytes) -> int:
    return int.from_bytes((b + b"\0" * 8)[:8], "big")


def recursive_splitters(sample: np.ndarray, v: int) -> SplitterTree:
    """Reference select_splitters: one recursive call per splitter and node."""
    inorder = np.empty(v, dtype=np.uint64)
    parent = [sample[len(sample) // 2]]

    def fill(slot_lo: int, slot_hi: int, a: int, b: int) -> None:
        if slot_lo >= slot_hi:
            return
        mid_slot = (slot_lo + slot_hi) // 2
        if a >= b:
            # subrange exhausted by duplicate skipping; reuse the parent pick
            inorder[slot_lo:slot_hi] = parent[0]
            return
        m = (a + b) // 2
        x = sample[m]
        inorder[mid_slot] = x
        b2 = m
        while b2 > a and sample[b2 - 1] == x:
            b2 -= 1
        a2 = m + 1
        while a2 < b and sample[a2] == x:
            a2 += 1
        keep, parent[0] = parent[0], x
        fill(slot_lo, mid_slot, a, b2)
        fill(mid_slot + 1, slot_hi, a2, b)
        parent[0] = keep

    fill(0, v, 0, len(sample))
    tree = np.zeros(v + 1, dtype=np.uint64)
    node_to_inorder = np.zeros(v + 1, dtype=np.int64)

    def build(node: int, lo: int, hi: int) -> None:
        if lo >= hi:
            return
        mid = (lo + hi) // 2
        tree[node] = inorder[mid]
        node_to_inorder[node] = mid
        build(2 * node, lo, mid)
        build(2 * node + 1, mid + 1, hi)

    build(1, 0, v)
    slcp = np.zeros(v + 1, dtype=np.int64)
    slcp[1:v] = shared_chars(inorder[:-1], inorder[1:])
    term_pos = first_zero_byte(inorder).astype(np.int64)
    eq_leftmost = np.zeros(v, dtype=np.int64)
    for i in range(1, v):
        eq_leftmost[i] = eq_leftmost[i - 1] if inorder[i] == inorder[i - 1] else i
    return SplitterTree(
        v, tree, inorder, node_to_inorder, slcp, term_pos < WORD_CHARS, eq_leftmost, term_pos
    )


def assert_same_tree(got: SplitterTree, want: SplitterTree) -> None:
    assert got.v == want.v
    for name in ("tree", "inorder", "node_to_inorder", "slcp", "eq_final", "eq_leftmost", "term_pos"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


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
        v = min(tree_capacity(len(items)), 7)
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

    @given(
        st.integers(1, 8),
        st.lists(st.binary(min_size=0, max_size=10).map(lambda b: b.replace(b"\0", b"a")),
                 min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_reference(self, d, pool, data):
        # few distinct words, some ending inside the word: heavy duplicates
        v = (1 << d) - 1
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2 * v + 1))
        sample = np.array(sorted(word(b) for b in picks), dtype=np.uint64)
        assert_same_tree(select_splitters(sample, v), recursive_splitters(sample, v))

    @pytest.mark.parametrize("v", [ssss.DEFAULT_V, 8191])  # and the paper's tree size
    @pytest.mark.parametrize("distinct", [40, 20_000])
    def test_matches_recursive_reference_full_tree(self, distinct, v):
        s = random_set(distinct, seed=3, max_len=12, lo=97, hi=100)
        sample = draw_sample(s, s.handles, 0, v, np.random.default_rng(5))
        assert_same_tree(select_splitters(sample, v), recursive_splitters(sample, v))

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


def finish_per_bucket(ctx, tree, bounds, lo, depth):
    """Reference finish_buckets: one pass per nonempty bucket."""
    depths = child_depths(tree, depth)
    children = []
    for i in np.flatnonzero(np.diff(bounds)):
        clo, chi = lo + int(bounds[i]), lo + int(bounds[i + 1])
        equal = i % 2 == 1 and tree.eq_final[i // 2]
        if not equal and chi - clo > 1:
            children.append((clo, chi, int(depths[i])))
            continue
        if equal and ctx.lcps is not None and chi - clo > 1:
            ctx.lcps[clo + 1 : chi] = depth + int(tree.term_pos[i // 2])
    return children


class TestFinishBuckets:
    @pytest.mark.parametrize("want_lcps", [True, False])
    def test_matches_per_bucket_loop(self, want_lcps):
        # repeated short strings fill final equality buckets, distinct ones
        # singletons, and a shared 8-character prefix recursing children
        rng = np.random.default_rng(4)
        items = [b"%d" % (i % 30) for i in range(1500)]
        items += [b"%x" % x for x in rng.integers(1 << 40, 1 << 48, size=1500)]
        items += [b"prefix.." + b"%d" % (i % 700) for i in range(1000)]
        rng.shuffle(items)
        s = from_strings(items)
        n, lo, hi = len(s), 7, len(s) - 5
        src = np.where(np.arange(n) % 2 == 0, s.handles, -1)  # untouched outside [lo, hi)
        src[lo:hi] = s.handles[lo:hi]

        def context():
            lcps = np.full(n, LCP_UNDEF, dtype=np.int64) if want_lcps else None
            return S5Context(s, src.copy(), np.zeros(n, np.uint64), lcps, SortStats(), 1, "unroll")

        got, want = context(), context()
        results = []
        for ctx, finish in ((got, finish_buckets), (want, finish_per_bucket)):
            tree = step_tree(ctx, lo, hi, 0)
            bounds, _ = local_classifier(s5_buckets, ctx)(lo, hi, tree.num_buckets, (0, tree))
            results.append(finish(ctx, tree, bounds, lo, 0))
        assert results[0].dtype == np.int64 and results[0].shape == (len(results[1]), 3)
        assert results[0].tolist() == [list(child) for child in results[1]]
        assert np.array_equal(got.cur, want.cur)
        assert np.array_equal(got.cur[:lo], src[:lo]) and np.array_equal(got.cur[hi:], src[hi:])
        if want_lcps:
            assert np.array_equal(got.lcps, want.lcps)
        sizes = np.diff(bounds)
        final = np.zeros(tree.num_buckets, dtype=bool)
        final[1::2] = tree.eq_final
        assert (final & (sizes > 1)).any()  # settled runs of equal strings
        assert (~final & (sizes == 1)).any()  # settled singletons
        assert len(results[0])  # and children left to sort


class TestDistribute:
    """basecase.distribute, the stable distribution of every step."""

    def test_counting_example(self):
        handles = np.array([10, 20, 30], dtype=np.int64)
        bounds = distribute(handles, np.array([1, 0, 1], dtype=np.uint16), 3)
        assert list(bounds) == [0, 1, 3, 3]
        assert list(handles) == [20, 10, 30]

    def test_single_bucket(self):
        # read-only arrays: one bucket moves nothing
        handles = np.array([5, 6, 7], dtype=np.int64)
        words = np.array([9, 8, 7], dtype=np.uint64)
        for arr in (handles, words):
            arr.flags.writeable = False
        bounds = distribute(handles, np.zeros(3, dtype=np.uint16), 3, words)
        assert list(handles) == [5, 6, 7] and list(words) == [9, 8, 7]
        assert list(bounds) == [0, 3, 3, 3]

    @given(st.lists(st.integers(0, 6), max_size=50))
    def test_conservation(self, oracle):
        keys = np.asarray(oracle, dtype=np.uint16)
        handles = np.arange(len(oracle), dtype=np.int64)
        words = handles.astype(np.uint64) * 3
        bounds = distribute(handles, keys, 7, words)
        assert bounds[-1] == len(oracle)
        assert list(handles) == sorted(range(len(oracle)), key=lambda i: oracle[i])
        assert np.array_equal(words, handles.astype(np.uint64) * 3)


class TestS5Sort:
    def test_tiny_delegates_to_base_case(self):
        s = random_set(10, seed=0)
        out = s5_sort(s)
        assert ref_strings(out) == sorted(ref_strings(s))

    def test_verify_and_lcp_oracle(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 256)
        for seed in range(3):
            s = random_set(2000, seed=seed)
            res = s5_sort(s, want_lcps=True)
            assert verify(s, res.set).ok
            want = sorted(ref_strings(s))
            assert ref_strings(res.set) == want
            assert list(res.lcps) == ref_lcps(want)

    def test_both_variants_sort(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 256)
        s = random_set(3000, seed=5)
        a = s5_sort(s, variant="unroll")
        b = s5_sort(s, variant="equal")
        assert ref_strings(a) == ref_strings(b) == sorted(ref_strings(s))

    def test_equality_buckets_advance_depth_by_word(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = shared_prefix_clusters(4000, seed=1, prefix_len=8)
        records = record_steps(monkeypatch)
        res = s5_sort(s, want_lcps=True)
        assert verify(s, res.set).ok
        assert records, "expected at least one classification step"
        # clusters share exactly 8 characters: every deep recursion entered
        # through an equality bucket must advance by WORD_CHARS
        _, root_depth, _, root_child_depths, _ = records[0]
        odd_depths = root_child_depths[1::2]
        assert (odd_depths == root_depth + WORD_CHARS).all()
        deeper = [r for r in records[1:] if r[1] == WORD_CHARS]
        assert deeper, "expected recursion into an equality bucket at depth 8"

    @pytest.mark.parametrize("variant", ["unroll", "equal"])
    def test_steps_distribute_stably_by_bucket(self, monkeypatch, variant):
        # 40,000 strings give the root step a full tree of DEFAULT_V
        # splitters; every step must move its strings as a stable sort of
        # their int64 bucket ids would, so the sort is stable
        s = random_set(40_000, seed=21, max_len=4)
        steps = []
        step = ssss.s5_step

        def recording(ctx, lo, hi, depth, classify):
            def spy(lo, hi, k, arg):
                seg = ctx.cur[lo:hi].copy()
                out = classify(lo, hi, k, arg)
                steps.append((seg, ctx.cur[lo:hi].copy(), *arg))
                return out

            return step(ctx, lo, hi, depth, spy)

        monkeypatch.setattr(ssss, "s5_step", recording)
        monkeypatch.setattr(ssss, "T_MEDIUM", 1024)
        res = s5_sort(s, want_lcps=True, variant=variant)
        assert steps[0][3].v == ssss.DEFAULT_V
        for seg, moved, depth, tree in steps:
            oracle = classify_keys(extract_keys(s, seg, depth), tree, variant)
            assert np.array_equal(moved, seg[np.argsort(oracle, kind="stable")])
        assert classify_keys(extract_keys(s, steps[0][0], 0), steps[0][3], variant).max() > ssss.DEFAULT_V
        strings = ref_strings(s)
        order = sorted(range(len(s)), key=strings.__getitem__)
        assert np.array_equal(res.set.handles, s.handles[order])
        assert list(res.lcps) == ref_lcps([strings[i] for i in order])

    def test_all_equal_terminates(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 512)
        s = all_equal_set(5000, b"abcdefghijxyz")
        res = s5_sort(s, want_lcps=True)
        assert verify(s, res.set).ok
        assert list(res.lcps) == ref_lcps(sorted(ref_strings(s)))

    def test_deterministic_with_seed(self, monkeypatch):
        monkeypatch.setattr(ssss, "T_MEDIUM", 256)
        s = random_set(2000, seed=4)
        a = s5_sort(s, seed=77)
        b = s5_sort(s, seed=77)
        assert np.array_equal(a.handles, b.handles)

    def test_bucket_lcp_property(self, monkeypatch):
        # within every produced bucket, pairs share at least the documented
        # prefix credit
        monkeypatch.setattr(ssss, "T_MEDIUM", 1024)
        s = random_set(10_000, seed=13)
        records = record_steps(monkeypatch)
        res = s5_sort(s)
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
        with pytest.MonkeyPatch.context() as patch:  # hypothesis reuses function fixtures
            patch.setattr(ssss, "T_MEDIUM", 16)
            res = s5_sort(s, want_lcps=True, seed=seed)
        want = sorted(items)
        assert ref_strings(res.set) == want
        assert list(res.lcps) == ref_lcps(want)
