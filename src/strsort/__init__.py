"""Parallel string sorting with LCP-aware merging.

Sorters permute handle arrays over a shared immutable character buffer.
Sequential algorithms live in basecase, mkqs, radix, ssss and lcpmerge;
process-parallel variants and the work pool live in parallel; corpus
generation and the benchmark harness live in bench and cli.
"""

from .strset import (
    DistStats,
    StringSet,
    dist_stats,
    extract_keys,
    from_strings,
    lcp,
    lcp_array_oracle,
    load_delimited,
    verify,
)

__all__ = [
    "DistStats",
    "StringSet",
    "dist_stats",
    "extract_keys",
    "from_strings",
    "lcp",
    "lcp_array_oracle",
    "load_delimited",
    "verify",
]
