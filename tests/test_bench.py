import csv
import io
import sys

import numpy as np
import pytest

from corpus import (
    all_empty_set,
    all_equal_set,
    random_set,
    ref_strings,
    shared_prefix_clusters,
    suffix_set,
    url_like_set,
)
from strsort import basecase, bench, mkqs
from strsort.bench import (
    ALGORITHMS,
    RunConfig,
    VerificationError,
    gen_random,
    gen_suffixes,
    run,
)
from strsort.cli import main
from strsort.counters import SortStats
from strsort.mkqs import mkqs_cached
from strsort.parallel import parallel_s5, partitioned_merge_sort, shared_array
from strsort.ssss import s5_sort
from strsort.strset import dist_stats, extract_keys, from_strings, lcp_array_oracle, verify


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


ADVERSARIAL = {
    "bytes_1_255": lambda: from_strings(
        [bytes(range(1, 256)), bytes(range(255, 0, -1)), b"\xff" * 9, b"\xff\x01", b"\x01\xff"]
        + ref_strings(random_set(500, seed=4, lo=1, hi=256))
    ),
    "suffixes_a700": lambda: gen_suffixes(b"a" * 700),
    "one_huge_among_tiny": lambda: from_strings(
        [bytes([97 + i % 26]) for i in range(400)] + [b"m" * 5000]
        + [bytes([97 + i % 26]) for i in range(400)]
    ),
    "all_equal": lambda: all_equal_set(600, b"same-string"),
    "all_empty": lambda: all_empty_set(300),
    "empty_set": lambda: from_strings([]),
}


STABLE = (
    "mkqs", "mkqs-cached", "radix8", "radix16", "s5-unroll", "s5-equal", "kway-merge",
    "ps5", "pmkqs", "pradix", "pmergesort",
)
DUPLICATES = {
    "few_values": lambda: random_set(3000, seed=6, max_len=4, lo=97, hi=100),
    "long_ties": lambda: from_strings(
        [b"w" * 40 + bytes([97 + i % 3]) * (i % 4) for i in range(1500)]
        + [b"w" * (i % 50) for i in range(1500)]
    ),
    "urls": lambda: url_like_set(4000),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("corpus", sorted(DUPLICATES))
@pytest.mark.parametrize("name", STABLE)
def test_word_cached_sorters_keep_equal_strings_in_input_order(name, corpus, threads):
    s = DUPLICATES[corpus]()
    s = s.with_handles(s.handles[np.random.default_rng(3).permutation(len(s))])
    strings = ref_strings(s)
    stable = s.handles[sorted(range(len(s)), key=strings.__getitem__)]
    out = ALGORITHMS[name](s, threads, 2, SortStats())
    assert np.array_equal(out.handles, stable)


REFERENCES = ("insertion", "lcp-insertion", "lcp-mergesort")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("corpus", sorted(ADVERSARIAL))
@pytest.mark.parametrize("name", sorted(set(ALGORITHMS) - set(REFERENCES)))
def test_only_the_references_run_the_lcp_insertion_sort(name, corpus, threads, monkeypatch):
    # every other sorter ends its small ranges in word_leaves
    def refuse(*args):
        raise AssertionError("lcp_insertion_core called outside the references")

    core = basecase.lcp_insertion_core
    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "strsort":
            for attr, value in list(vars(mod).items()):
                if value is core:
                    monkeypatch.setattr(mod, attr, refuse)
    s = ADVERSARIAL[corpus]()
    out = ALGORITHMS[name](s, threads, 2, SortStats())
    assert ref_strings(out) == sorted(ref_strings(s))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("corpus", sorted({**ADVERSARIAL, **DUPLICATES}))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_no_sorter_fetches_a_word_past_a_terminator(name, corpus, threads, monkeypatch):
    # extract_keys finds no string end: each string must reach the depth it
    # is read at, or its key would run into the next string
    def checked(sset, handles, depth):
        h = np.asarray(handles, dtype=np.int64)
        if np.any(h + depth > sset.ends(h)):
            raise AssertionError("extract_keys read a word past a terminator")
        return extract_keys(sset, handles, depth)

    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "strsort":
            for attr, value in list(vars(mod).items()):
                if value is extract_keys:
                    monkeypatch.setattr(mod, attr, checked)
    s = {**ADVERSARIAL, **DUPLICATES}[corpus]()
    out = ALGORITHMS[name](s, threads, 2, SortStats())
    assert ref_strings(out) == sorted(ref_strings(s))


SMALL = {
    "random": lambda: random_set(400, seed=11),
    "bytes_1_255": lambda: from_strings(
        [bytes(range(1, 256)), b"\xff" * 9, b"\x01\xff"]
        + ref_strings(random_set(300, seed=12, lo=1, hi=256))
    ),
    "urls": lambda: url_like_set(400, seed=13),
    "suffixes": lambda: suffix_set(400, seed=14),
    "clusters": lambda: shared_prefix_clusters(400, seed=15),
    "all_equal": lambda: all_equal_set(200, b"one-string-longer-than-a-word"),
    "empty_set": lambda: from_strings([]),
}


def small_corpus(corpus):
    """A SMALL corpus with its handles in a seeded random order."""
    s = SMALL[corpus]()
    return s.with_handles(s.handles[np.random.default_rng(5).permutation(len(s))])


# the ids that end ranges in mkqs.mkqs_cached_items
CACHING_MKQS = ("mkqs-cached", "s5-unroll", "s5-equal", "kway-merge", "ps5", "pmkqs", "pmergesort")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("corpus", sorted(SMALL))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_id_sorts_at_small_thresholds(name, corpus, threads, small_knobs, monkeypatch):
    # a differential test: with the knobs this small, a few hundred strings
    # take phased steps, 16-bit and sample-sort steps, leaf flushes, merge
    # polls and caching-mkqs ranges of distinct words taken as leaves
    leaf_ranges = shared_array(1, np.int64)  # forked workers count here too
    distinct = mkqs.distinct_words

    def counting(words, lo, hi):
        found = distinct(words, lo, hi)
        leaf_ranges[0] += found
        return found

    monkeypatch.setattr(mkqs, "distinct_words", counting)
    s = small_corpus(corpus)
    strings = ref_strings(s)
    out = ALGORITHMS[name](s, threads, 2, SortStats())
    if name in STABLE:
        stable = s.handles[sorted(range(len(s)), key=strings.__getitem__)]
        assert np.array_equal(out.handles, stable)
    else:
        assert ref_strings(out) == sorted(strings)
    if name in CACHING_MKQS and corpus not in ("all_equal", "empty_set"):
        assert leaf_ranges[0] > 0


LCP_SORTERS = {
    "s5": lambda s, p: s5_sort(s, want_lcps=True),
    "mkqs_cached": lambda s, p: mkqs_cached(s),
    "parallel_s5": lambda s, p: parallel_s5(s, p, want_lcps=True),
    "partitioned_merge_sort": lambda s, p: partitioned_merge_sort(s, K=3, p=p, want_lcps=True),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("corpus", sorted(SMALL))
@pytest.mark.parametrize("sorter", sorted(LCP_SORTERS))
def test_lcps_at_small_thresholds(sorter, corpus, threads, small_knobs):
    s = small_corpus(corpus)
    res = LCP_SORTERS[sorter](s, threads)
    assert ref_strings(res.set) == sorted(ref_strings(s))
    assert np.array_equal(res.lcps, lcp_array_oracle(res.set))


class TestGenRandom:
    def test_empty(self):
        assert len(gen_random(0, seed=1)) == 0

    def test_deterministic(self):
        a = gen_random(500, seed=42)
        b = gen_random(500, seed=42)
        assert a.buffer == b.buffer
        assert np.array_equal(a.handles, b.handles)

    def test_lengths_and_alphabet(self):
        s = gen_random(2000, seed=0)
        lens = s.ends() - s.handles
        assert lens.min() >= 0 and lens.max() < 20
        arr = np.frombuffer(s.buffer, dtype=np.uint8)
        chars = arr[arr != 0]
        assert chars.min() >= 33 and chars.max() < 127

    def test_char_histogram_roughly_uniform(self):
        s = gen_random(100_000, seed=3)
        arr = np.frombuffer(s.buffer, dtype=np.uint8)
        chars = arr[arr != 0]
        counts = np.bincount(chars, minlength=127)[33:127]
        expected = len(chars) / 94
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 93 degrees of freedom; far beyond any sane quantile means a bug
        assert chi2 < 200


class TestGenSuffixes:
    def test_ab(self):
        s = gen_suffixes(b"ab")
        assert ref_strings(s) == [b"ab", b"b"]

    def test_banana_sorted(self):
        s = gen_suffixes(b"banana")
        assert sorted(ref_strings(s)) == [
            b"a", b"ana", b"anana", b"banana", b"na", b"nana",
        ]

    def test_limit(self):
        s = gen_suffixes(b"banana", 3)
        assert ref_strings(s) == [b"banana", b"anana", b"nana"]

    def test_zero_byte_rejected(self):
        with pytest.raises(ValueError, match="byte 0"):
            gen_suffixes(b"a\0b")


class TestRun:
    def test_end_to_end_parallel(self):
        cfg = RunConfig(
            algorithm="ps5", generator="random", n=10_000,
            threads=2, reps=3, seed=5, verify=True,
        )
        res = run(cfg)
        assert len(res.times) == 3
        assert res.verify_ok is True
        assert res.median > 0

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            run(RunConfig(algorithm="nope", generator="random", n=10))

    def test_broken_algorithm_fails_verification(self, monkeypatch):
        def broken(sset, threads, seed, stats):
            return sset.with_handles(sset.handles[::-1].copy())

        monkeypatch.setitem(ALGORITHMS, "test-broken", broken)
        with pytest.raises(VerificationError):
            run(RunConfig(algorithm="test-broken", generator="random",
                          n=100, verify=True))

    def test_counters_match_dist_stats(self):
        cfg = RunConfig(
            algorithm="mkqs-cached", generator="random", n=2000,
            seed=9, counters=True,
        )
        res = run(cfg)
        d = dist_stats(gen_random(2000, seed=9))
        assert (res.D, res.L) == (d.D, d.L)

    def test_sequential_counters_deterministic(self):
        cfg = RunConfig(algorithm="s5-unroll", generator="random", n=5000, seed=4)
        a = run(cfg)
        b = run(cfg)
        assert a.counters == b.counters

    def test_every_registered_algorithm_sorts(self):
        for name in sorted(ALGORITHMS):
            cfg = RunConfig(algorithm=name, generator="random", n=300,
                            threads=2, seed=2, verify=True)
            res = run(cfg)
            assert res.verify_ok, name

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("corpus", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_registered_algorithm_sorts_adversarial(self, name, corpus, threads):
        s = ADVERSARIAL[corpus]()
        out = ALGORITHMS[name](s, threads, 2, SortStats())
        assert verify(s, out).ok
        assert ref_strings(out) == sorted(ref_strings(s))


class TestOutputFormats:
    def _result(self):
        return run(RunConfig(algorithm="mkqs", generator="random", n=500,
                             reps=2, seed=1, verify=True, counters=True))

    def test_csv_round_trip(self):
        res = self._result()
        rows = read_csv(res.to_csv())
        assert len(rows) == 3  # two reps + median
        assert rows[0]["algo"] == "mkqs"
        assert rows[-1]["rep"] == "median"
        # seconds are frozen at microsecond precision in the CSV
        assert float(rows[-1]["seconds"]) == pytest.approx(res.median, abs=1e-6)
        assert int(rows[0]["n"]) == res.n
        assert int(rows[0]["D"]) == res.D
        re_rows = read_csv(res.to_csv())
        assert re_rows == rows

    def test_table_contains_fields(self):
        text = self._result().to_table()
        assert "median" in text and "verify    : pass" in text


class TestCli:
    def test_ok_run(self, capsys):
        rc = main(["--algo", "radix8", "--gen", "random", "--n", "2000",
                   "--reps", "2", "--verify", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = read_csv(out)
        assert rows[-1]["rep"] == "median"
        assert all(r["verify"] == "pass" for r in rows)

    def test_unknown_algo_exit_code(self, capsys):
        assert main(["--algo", "bogus", "--gen", "random", "--n", "10"]) == 1

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        def broken(sset, threads, seed, stats):
            h = sset.handles.copy()
            if len(h) > 1:
                h[0], h[1] = h[1], h[0]
            return sset.with_handles(h)

        monkeypatch.setitem(ALGORITHMS, "test-broken-cli", broken)
        rc = main(["--algo", "test-broken-cli", "--gen", "random",
                   "--n", "64", "--seed", "3", "--verify"])
        assert rc == 2

    def test_file_input_newline(self, tmp_path, capsys):
        f = tmp_path / "words.txt"
        f.write_bytes(b"pear\napple\nfig\n")
        rc = main(["--algo", "insertion", "--input", str(f), "--verify"])
        assert rc == 0

    def test_file_input_binary(self, tmp_path, capsys):
        f = tmp_path / "words.bin"
        f.write_bytes(b"pear\0apple\0fig\0")
        rc = main(["--algo", "mkqs", "--input", str(f), "--verify"])
        assert rc == 0

    def test_missing_file(self, capsys):
        assert main(["--algo", "mkqs", "--input", "/nonexistent/x", "--verify"]) == 1

    def test_suffix_generator(self, capsys):
        rc = main(["--algo", "s5-unroll", "--gen", "suffix", "--bytes", "3000",
                   "--verify"])
        assert rc == 0

    @pytest.mark.parametrize("args", [
        ["--input", "FILE", "--n", "-3"],
        ["--gen", "suffix", "--n", "-3"],
        ["--input", "FILE", "--bytes", "-1"],
        ["--gen", "random", "--n", "10", "--threads", "0"],
    ])
    def test_out_of_range_sizes_exit_1(self, args, tmp_path, capsys, monkeypatch):
        f = tmp_path / "five.txt"
        f.write_bytes(b"e\nd\nc\nb\na\n")

        def no_corpus(cfg):
            raise AssertionError("a corpus was built")

        monkeypatch.setattr(bench, "_load_corpus", no_corpus)
        assert main(["--algo", "pradix", "--verify"] + [str(f) if a == "FILE" else a for a in args]) == 1
        assert "must be >=" in capsys.readouterr().err

    def test_empty_suffix_text_exit_1(self, capsys):
        # a byte limit of 0 is an empty text, not the default size
        assert main(["--algo", "mkqs", "--gen", "suffix", "--bytes", "0"]) == 1

    def test_random_generator_refuses_a_byte_limit(self, capsys):
        assert main(["--algo", "mkqs", "--gen", "random", "--n", "10", "--bytes", "5"]) == 1
        assert "byte limit" in capsys.readouterr().err

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "ps5" in out and "mkqs-cached" in out
