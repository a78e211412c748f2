import numpy as np
import pytest

from corpus import all_empty_set, all_equal_set, random_set, ref_strings, url_like_set
from strsort.bench import (
    ALGORITHMS,
    RunConfig,
    RunResult,
    VerificationError,
    gen_random,
    gen_suffixes,
    run,
)
from strsort.cli import main
from strsort.counters import SortStats
from strsort.strset import dist_stats, from_strings, verify

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


WORD_CACHED = ("mkqs-cached", "s5-unroll", "s5-equal", "kway-merge", "ps5", "pmkqs", "pmergesort")
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
@pytest.mark.parametrize("name", WORD_CACHED)
def test_word_cached_sorters_keep_equal_strings_in_input_order(name, corpus, threads):
    s = DUPLICATES[corpus]()
    s = s.with_handles(s.handles[np.random.default_rng(3).permutation(len(s))])
    strings = ref_strings(s)
    stable = s.handles[sorted(range(len(s)), key=strings.__getitem__)]
    out = ALGORITHMS[name](s, threads, 2, SortStats())
    assert np.array_equal(out.handles, stable)


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
        rows = RunResult.parse_csv(res.to_csv())
        assert len(rows) == 3  # two reps + median
        assert rows[0]["algo"] == "mkqs"
        assert rows[-1]["rep"] == "median"
        # seconds are frozen at microsecond precision in the CSV
        assert float(rows[-1]["seconds"]) == pytest.approx(res.median, abs=1e-6)
        assert int(rows[0]["n"]) == res.n
        assert int(rows[0]["D"]) == res.D
        re_rows = RunResult.parse_csv(res.to_csv())
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
        rows = RunResult.parse_csv(out)
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

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "ps5" in out and "mkqs-cached" in out
