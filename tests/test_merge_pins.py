"""The K-way LCP merge's outputs and word fetches, pinned on the benchmark's
corpora, and stopped jobs checked against an oracle.

Each perfbench workload (seed 1, 30,000 strings) is cut into 4
byte-balanced parts, as partitioned_merge_sort cuts it, and each part is
sorted with its LCPs by s5.  Both the one-job merge of kway_lcp_merge and
16 jobs of split_merge_jobs must return the stable order by (string, run),
exact LCPs, and the word fetches counted before the merge's level was
rewritten.
"""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ref_strings, sorted_runs
from strsort import lcpmerge
from strsort.counters import SortStats
from strsort.lcpmerge import LcpRuns, kway_lcp_merge, pack_merge_jobs, run_merge_job, split_merge_jobs
from strsort.ssss import s5_sort
from strsort.strset import LCP_UNDEF, from_strings, lcp_array_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# word fetches of (kway_lcp_merge, 16 jobs) per workload
FETCHES = {"random": (27259, 27259), "url": (34870, 34364), "suffix": (35407, 32156)}

_runs = {}


def perfbench_runs(monkeypatch, workload):
    """(set, runs): 4 byte-balanced parts of the workload, each sorted by s5."""
    if workload not in _runs:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import corpora

        s = corpora.make(workload, 1, 30_000)
        lens = s.ends() - s.handles + 1
        cum = np.cumsum(lens)
        cuts = np.concatenate(([0], np.searchsorted(cum, int(cum[-1]) * np.arange(1, 4) / 4), [len(s)]))
        handles = np.empty(len(s), dtype=np.int64)
        lcps = np.empty(len(s), dtype=np.int64)
        for lo, hi in zip(cuts.tolist(), cuts[1:].tolist()):
            res = s5_sort(s.with_handles(s.handles[lo:hi]), want_lcps=True)
            handles[lo:hi] = res.set.handles
            lcps[lo:hi] = res.lcps
        _runs[workload] = (s, LcpRuns(s, handles, lcps, cuts))
    return _runs[workload]


def stable_order(sset, handles, cap=256) -> list[int]:
    """handles sorted by (string, position): runs lie end to end, so this
    is the stable order by (string, run).  Strings are compared on their
    first `cap` bytes, and no two of them may tie there unless equal."""
    buf = sset.buffer
    keys = []
    for h in handles.tolist():
        end = buf.find(b"\0", h, h + cap)
        keys.append(buf[h:end] if end >= 0 else buf[h : h + cap])
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    ties = [a for a, b in zip(order, order[1:]) if keys[a] == keys[b]]
    assert all(len(keys[a]) < cap for a in ties)
    return handles[order].tolist()


def merge_jobs(runs, jobs, stats, stop=lambda job, emitted: False, target=2):
    """Run jobs into fresh arrays, in queue order; a job that stop(job,
    emitted) ends at a poll hands its rest back as pack_merge_jobs(rest,
    target) jobs at the end of the queue.  Returns (handles, lcps)."""
    n = len(runs.handles)
    out_h = np.empty(n, dtype=np.int64)
    out_l = np.empty(n, dtype=np.int64)
    queue, pos = [], 0
    for job in jobs:
        queue.append((job, pos))
        pos += job.size
    assert pos == n
    while queue:
        job, pos = queue.pop(0)
        end = pos + job.size
        emitted, rest = run_merge_job(
            runs, job, stats, out_h[pos:end], out_l[pos:end], functools.partial(stop, job)
        )
        if rest is not None:
            pos += emitted
            for sub in pack_merge_jobs(rest, target):
                queue.append((sub, pos))
                pos += sub.size
            assert pos == end
    out_l[:1] = LCP_UNDEF
    return out_h, out_l


@pytest.mark.parametrize("jobs", [1, 16])
@pytest.mark.parametrize("workload", ["random", "url", "suffix"])
def test_merge_pinned_on_perfbench_corpora(monkeypatch, workload, jobs):
    s, runs = perfbench_runs(monkeypatch, workload)
    stats = SortStats()
    if jobs == 1:
        h, l = kway_lcp_merge(runs, stats)
    else:
        h, l = merge_jobs(runs, split_merge_jobs(runs, jobs), stats)
    assert h.tolist() == stable_order(s, runs.handles)
    assert np.array_equal(l, lcp_array_oracle(s.with_handles(h)))
    assert stats.word_fetches == FETCHES[workload][jobs > 1]
    assert stats.char_cmps == stats.merge_buffer_cmps == 0


ALPHABETS = {"bytes_1_255": (1, 256), "small": (97, 100)}


@st.composite
def merge_inputs(draw):
    """(strings, run sizes) of one shape the merge must survive."""
    shape = draw(st.sampled_from(["empty", "equal", "bytes_1_255", "words", "spread", "prefix"]))
    lo, hi = ALPHABETS["bytes_1_255" if shape == "bytes_1_255" else "small"]
    text = st.binary(max_size=20).map(lambda b: bytes(lo + c % (hi - lo) for c in b))
    if shape == "empty":  # mostly empty strings
        items = draw(st.lists(st.one_of(st.just(b""), text), max_size=60))
    elif shape == "equal":  # one string, many times
        items = [draw(text)] * draw(st.integers(0, 60))
    elif shape == "words":  # lengths at exact multiples of 8
        items = draw(st.lists(st.integers(0, 3).flatmap(
            lambda k: st.binary(min_size=8 * k, max_size=8 * k).map(
                lambda b: bytes(97 + c % 2 for c in b))), max_size=60))
    elif shape == "spread":  # a few values, each in several runs
        values = draw(st.lists(text, min_size=1, max_size=4))
        items = draw(st.lists(st.sampled_from(values), max_size=60))
    else:  # long shared prefixes, one longer than the split's first 8-word read
        prefix = draw(st.sampled_from([b"p" * 8, b"shared-prefix-of-more-than-3-words/", b"w" * 70 + b"/"]))
        items = [prefix + t for t in draw(st.lists(text, max_size=60))]
    items = draw(st.permutations(items))
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), min_size=1, max_size=5)))
    return items, np.diff([0] + cuts + [len(items)])


@settings(max_examples=300, deadline=None)
@given(merge_inputs(), st.lists(st.booleans(), max_size=20), st.integers(1, 5), st.integers(1, 8))
def test_stopped_jobs_merge_to_the_oracle(case, stops, target, poll_interval):
    # every poll may stop a job, and each stopped job's rest is re-split:
    # the output still equals sorted() with exact LCPs, and the rest is
    # copying work only, so no word is fetched twice
    items, sizes = case
    s = from_strings(items)
    runs = sorted_runs(s, sizes)
    polls = iter(stops)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcpmerge, "MERGE_POLL_INTERVAL", poll_interval)
        jobs = split_merge_jobs(runs, target)
        once = SortStats()
        merge_jobs(runs, jobs, once)
        stats = SortStats()
        h, l = merge_jobs(runs, jobs, stats, lambda job, emitted: next(polls, False), target)
    out = s.with_handles(h)
    assert ref_strings(out) == sorted(items)
    assert h.tolist() == stable_order(s, runs.handles)
    assert np.array_equal(l, lcp_array_oracle(out))
    assert stats.as_dict() == once.as_dict()
