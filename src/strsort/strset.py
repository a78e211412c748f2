"""String sets over a shared character buffer, plus brute-force verification oracles.

A string set is an ordered sequence of *handles* (byte offsets) into one
immutable buffer of zero-terminated strings.  Sorting a set only permutes
the handle array; the buffer is never touched.  Handles being plain offsets
keeps permutations serializable and lets independent oracles re-derive every
string from scratch.

Conventions used throughout the package:

* characters are 8-bit, the terminator is byte 0 and never occurs inside a
  string;
* a *word key* packs the next ``WORD_CHARS`` characters of a string at some
  depth into one unsigned integer, first character in the most significant
  byte, zero-padded past the terminator, so that integer comparison of two
  keys equals lexicographic comparison of the corresponding substrings.
  ``extract_keys`` needs no string end, as a key is read only at a depth
  the string reaches: a range's strings share its depth's characters, and
  sorters read a range one word deeper only after a word with no terminator;
* an LCP array stores, for a sorted set, the longest-common-prefix length of
  each string with its predecessor; index 0 holds the sentinel ``LCP_UNDEF``.

Every set carries two per-buffer structures, built once when the set is
made over a buffer and shared by ``with_handles`` and by forked workers:

* a *word view*: a read-only ``>u8`` view over the buffer itself with a
  stride of one byte, so ``view[p]`` is the 8 bytes at position p read as
  one big-endian unsigned integer.  It ends at the last full word;
  ``words_at`` serves the last 7 positions by reading that word and
  shifting it left, so bytes past the buffer read as zero.  Only a buffer
  shorter than 8 bytes is copied, padded with zeros;
* a *next-terminator table*: ``next[b]`` is the position of the first
  terminator at or after byte 8b, one int32 per 8 buffer bytes (half the
  buffer's size).  With it ``ends`` finds every string's terminator in
  two gathers, one word and one table entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

WORD_CHARS = 8

LCP_UNDEF = -1


class StringSet:
    """Ordered handles into an immutable zero-terminated character buffer."""

    __slots__ = ("buffer", "handles", "_arr", "_view", "_next")

    def __init__(self, buffer: bytes, handles: np.ndarray):
        if len(buffer) and buffer[-1] != 0:
            raise ValueError("buffer is not zero-terminated")
        self.buffer = buffer
        self.handles = np.ascontiguousarray(handles, dtype=np.int64)
        self._arr = np.frombuffer(buffer, dtype=np.uint8)
        padded = buffer if len(buffer) >= WORD_CHARS else bytes(buffer).ljust(WORD_CHARS, b"\0")
        self._view = np.ndarray(
            shape=(len(padded) - WORD_CHARS + 1,), dtype=">u8", buffer=padded, strides=(1,)
        )
        self._view.flags.writeable = False
        zeros = np.flatnonzero(self._arr == 0)
        # block b repeats the first terminator at or after 8b; one spare
        # entry past the last block keeps ends' table gather in bounds
        counts = np.diff(zeros >> 3, prepend=-1)
        counts[-1:] += 1
        dtype = np.int32 if len(buffer) <= np.iinfo(np.int32).max else np.int64
        self._next = np.repeat(zeros.astype(dtype), counts)

    def __len__(self) -> int:
        return len(self.handles)

    def with_handles(self, handles: np.ndarray) -> "StringSet":
        """A sibling set over the same buffer, word view and terminator table."""
        out = StringSet.__new__(StringSet)
        out.buffer = self.buffer
        out.handles = np.ascontiguousarray(handles, dtype=np.int64)
        out._arr = self._arr
        out._view = self._view
        out._next = self._next
        return out

    def char_array(self) -> np.ndarray:
        return self._arr

    def words_at(self, pos: np.ndarray) -> np.ndarray:
        """The 8 buffer bytes at each position as one big-endian uint64.

        A position in the last 7 bytes reads the last full word shifted
        left, so the bytes past the buffer are zero.  Nothing is masked at
        terminators: the word may run into the next string.
        """
        last = len(self._view) - 1
        words = self._view[np.minimum(pos, last)].astype(np.uint64)
        tail = np.flatnonzero(pos > last)
        if len(tail):
            words[tail] <<= ((pos[tail] - last) * 8).astype(np.uint64)
        return words

    def ends(self, handles: np.ndarray | None = None) -> np.ndarray:
        """Terminator position for each handle (string end, exclusive).

        One gather from the word view reads each string's first 8 bytes
        (near the buffer's end, its last word shifted left); a terminator
        among them is the end.  Otherwise the end is the first terminator
        at or after the next 8-byte block boundary, one gather from the
        next-terminator table, which holds 4 bytes per 8 buffer bytes.
        """
        h = self.handles if handles is None else np.asarray(handles, dtype=np.int64)
        first = first_zero_byte(self.words_at(h))
        return np.where(first < WORD_CHARS, h + first, self._next[(h + WORD_CHARS) >> 3])

    def length_of(self, handle: int) -> int:
        return int(self.ends(np.asarray([handle], dtype=np.int64))[0]) - handle

    def string_at(self, i: int) -> bytes:
        """Bytes of the i-th string (terminator excluded)."""
        h = int(self.handles[i])
        return self.buffer[h : h + self.length_of(h)]

    def strings(self) -> list[bytes]:
        return [self.string_at(i) for i in range(len(self))]


@dataclass
class DistStats:
    """Distinguishing-prefix total, LCP sum, and mean string length."""

    D: int
    L: int
    avg_len: float


@dataclass
class VerifyReport:
    ok: bool
    permutation_ok: bool
    order_ok: bool
    first_violation: int | None
    message: str

    def __bool__(self) -> bool:
        return self.ok


def load_delimited(data: bytes, delimiter: int = 0) -> StringSet:
    """Build a StringSet from delimiter-separated bytes.

    The delimiter is remapped to the terminator byte 0; a trailing delimiter
    is appended when absent.  Empty input yields an empty set.
    """
    if not (0 <= delimiter < 256):
        raise ValueError("delimiter must be a byte value")
    if len(data) == 0:
        return StringSet(b"", np.zeros(0, dtype=np.int64))
    if delimiter != 0:
        if 0 in data:
            raise ValueError("input contains byte 0, which is reserved as terminator")
        data = data.replace(bytes([delimiter]), b"\0")
    if not data.endswith(b"\0"):
        data = data + b"\0"
    arr = np.frombuffer(data, dtype=np.uint8)
    zeros = np.flatnonzero(arr == 0)
    starts = np.empty(len(zeros), dtype=np.int64)
    starts[0] = 0
    starts[1:] = zeros[:-1] + 1
    return StringSet(data, starts)


def from_strings(strings: Iterable[bytes]) -> StringSet:
    """Convenience constructor packing byte strings into a fresh buffer."""
    items = list(strings)
    for s in items:
        if 0 in s:
            raise ValueError("string contains the terminator byte")
    buf = b"\0".join(items) + b"\0" if items else b""
    offs = np.zeros(len(items), dtype=np.int64)
    pos = 0
    for i, s in enumerate(items):
        offs[i] = pos
        pos += len(s) + 1
    return StringSet(buf, offs)


def extract_keys(sset: StringSet, handles: np.ndarray, depth) -> np.ndarray:
    """Word keys (uint64) for the given handles at character depth `depth`.

    Reads WORD_CHARS characters from position depth of each string, zeroed
    from its terminator on, so the keys order exactly like the terminator-
    padded substrings.  `depth` is one int or one depth per handle.  Each
    string must have at least `depth` characters, so that the word's first
    zero byte is its own terminator.  Sorters meet this: a range's strings
    share `depth` characters, and a range is refetched one word deeper only
    after a word without a terminator.
    """
    words = sset.words_at(np.asarray(handles, dtype=np.int64) + depth)
    words &= _KEEP[first_zero_byte(words)]
    return words


_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_ALL = np.uint64((1 << 64) - 1)
_KEEP = np.array(  # _KEEP[k] keeps the first k bytes of a word
    [(1 << 64) - (1 << (64 - 8 * k)) for k in range(WORD_CHARS + 1)], dtype=np.uint64
)


def _leading_zero_bytes(x) -> np.ndarray:
    """Zero bytes above the highest set bit of each uint64 (WORD_CHARS for 0).

    Clearing every set bit that has a set bit above it leaves the highest
    one and a clear bit below it, so float64 holds the value exactly and
    its exponent field is 1023 + that bit's index.  Each pass but the cast
    works in place: at 150k words, fresh temporaries cost more here than
    the arithmetic.  One word, as the sorters' per-step calls pass, takes
    Python's int.bit_length, which costs less than one numpy call.
    """
    x = np.asarray(x, dtype=np.uint64)
    if x.ndim == 0:
        return WORD_CHARS - (int(x).bit_length() + 7) // 8
    top = np.right_shift(x, np.uint64(1), out=np.empty_like(x))
    np.invert(top, out=top)
    top &= x
    exp = top.astype(np.float64).view(np.int64)
    exp >>= 52
    exp += 1
    exp >>= 3  # 128 + bit // 8 for a set bit, 0 for x = 0
    np.subtract(135, exp, out=exp)
    np.minimum(exp, WORD_CHARS, out=exp)
    return exp


def first_diff_byte(a, b) -> np.ndarray:
    """Index of the first byte where word keys a and b differ (WORD_CHARS where equal).

    Works elementwise on uint64 arrays or scalars.
    """
    return _leading_zero_bytes(np.bitwise_xor(a, b, dtype=np.uint64))


def first_zero_byte(words) -> np.ndarray:
    """Characters before the first terminator byte of each word key (WORD_CHARS if none).

    Adding 0x7F to the low seven bits of every byte sets its high bit
    unless the byte is zero, without a carry into the next byte.
    """
    w = np.asarray(words, dtype=np.uint64)
    flags = w & _LOW7  # the only temporary: the other passes work in place
    flags += _LOW7
    flags |= w
    flags |= _LOW7
    flags ^= _ALL  # the high bit of each zero byte
    return _leading_zero_bytes(flags)


def shared_chars(a, b) -> np.ndarray:
    """Leading characters word keys a and b share, capped at a's terminator.

    For differing keys this is the count of equal leading bytes; for equal
    keys it stops at the first terminator byte, matching the LCP of the
    underlying strings.  Works elementwise on uint64 arrays or scalars.
    """
    return np.minimum(first_diff_byte(a, b), first_zero_byte(a))


def lcp(sset: StringSet, ha: int, hb: int) -> int:
    """Longest common prefix length of the strings at two handles."""
    buf = sset.buffer
    i = 0
    while True:
        ca = buf[ha + i]
        if ca == 0 or ca != buf[hb + i]:
            return i
        i += 1


def lcp_array_oracle(sorted_set: StringSet) -> np.ndarray:
    """Reference LCP array computed character by character.

    Independent of any sorter's bookkeeping.  Raises ValueError naming the
    first out-of-order index when the input is not sorted.
    """
    n = len(sorted_set)
    out = np.full(max(n, 1), LCP_UNDEF, dtype=np.int64)[:n]
    if n == 0:
        return out
    out[0] = LCP_UNDEF
    buf = sorted_set.buffer
    handles = sorted_set.handles
    for i in range(1, n):
        a = int(handles[i - 1])
        b = int(handles[i])
        h = lcp(sorted_set, a, b)
        if buf[a + h] > buf[b + h]:
            raise ValueError(f"input not sorted: order violated at index {i}")
        out[i] = h
    return out


def lcp_sum(lcps: np.ndarray) -> int:
    """L: the sum of all defined LCP entries (index 0 excluded)."""
    if len(lcps) <= 1:
        return 0
    return int(lcps[1:].sum())


def verify(inp: StringSet, out: StringSet) -> VerifyReport:
    """Check that `out` is a permutation of `inp` in non-descending order."""
    if inp.buffer is not out.buffer and inp.buffer != out.buffer:
        return VerifyReport(False, False, False, None, "output uses a different buffer")
    if len(inp) != len(out):
        return VerifyReport(
            False, False, False, None,
            f"size mismatch: {len(inp)} in, {len(out)} out",
        )
    perm_ok = bool(
        np.array_equal(np.sort(inp.handles), np.sort(out.handles))
    )
    order_ok = True
    first = None
    buf = out.buffer
    handles = out.handles
    for i in range(1, len(out)):
        a = int(handles[i - 1])
        b = int(handles[i])
        h = lcp(out, a, b)
        if buf[a + h] > buf[b + h]:
            order_ok = False
            first = i
            break
    if perm_ok and order_ok:
        return VerifyReport(True, True, True, None, "ok")
    msg = []
    if not perm_ok:
        msg.append("handle multiset not preserved")
    if not order_ok:
        msg.append(f"order violated at index {first}")
    return VerifyReport(False, perm_ok, order_ok, first, "; ".join(msg))


def sorted_copy(sset: StringSet) -> StringSet:
    """Reference sort by full string content (timsort on raw bytes)."""
    order = sorted(range(len(sset)), key=sset.string_at)
    return sset.with_handles(sset.handles[order])


def dist_stats(sset: StringSet) -> DistStats:
    """Distinguishing-prefix statistics of a set.

    D charges each string the characters a comparison-based sorter must
    inspect: one past the longer of its two neighbor LCPs in sorted order,
    capped at the string length plus its terminator.  Neighbor LCPs outside
    the range count as 0.  D >= L always holds.
    """
    n = len(sset)
    if n == 0:
        return DistStats(0, 0, 0.0)
    srt = sorted_copy(sset)
    lcps = lcp_array_oracle(srt)
    h = np.zeros(n + 1, dtype=np.int64)
    if n > 1:
        h[1:n] = lcps[1:]
    neighbor = np.maximum(h[:n], h[1 : n + 1])
    lens = srt.ends() - srt.handles
    d = int(np.minimum(lens + 1, neighbor + 1).sum())
    return DistStats(d, lcp_sum(lcps), float(lens.mean()))
