"""Instrumentation counters shared by all sorters and mergers.

The counters make the package's comparison/access budgets executable:
tests assert the recorded values against the documented bounds instead of
trusting asymptotic arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class SortStats:
    """Mutable tally of the events the library accounts for.

    char_cmps
        Ternary character comparisons.  lcp_insertion_core, the reference
        base case, charges exactly one per character position it examines;
        basecase.word_leaves charges each adjacent pair of a leaf once, its
        LCP - leaf depth + 1.
    word_fetches
        Random accesses fetching one word of characters from the buffer:
        one per key a sample-sort step samples or classifies, one per string
        when caching mkqs first caches its word or refetches it for an equal
        partition, and one per string and tied level in word_leaves.
    merge_buffer_cmps
        Character comparisons during merging that had to read the buffer
        (i.e. were not answered from a cached distinguishing character).
    scratch_words
        Words of handle-sized scratch allocated by a sorter.
    jobs_enqueued / jobs_executed
        Scheduler job accounting.
    share_events
        Times a busy worker donated pending subproblems to the pool.
    """

    char_cmps: int = 0
    word_fetches: int = 0
    merge_buffer_cmps: int = 0
    scratch_words: int = 0
    jobs_enqueued: int = 0
    jobs_executed: int = 0
    share_events: int = 0

    def add(self, other: "SortStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "SortStats":
        return cls(**{k: int(v) for k, v in d.items()})
