"""Small helpers for working with byte ranges and block arithmetic."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterator, List, Sequence, Tuple

#: ``(at, data, start, stop)``: ``data[start:stop]`` shows at offset ``at``
#: (named by the object and the bounds, not copied out).
Piece = Tuple[int, bytes, int, int]


def block_count(size: int, block_size: int) -> int:
    """Number of blocks needed to cover ``size`` bytes."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return (size + block_size - 1) // block_size


def block_range(offset: int, length: int, block_size: int) -> range:
    """Indices of the blocks touched by the byte range ``[offset, offset+length)``."""
    if length <= 0:
        return range(0)
    first = offset // block_size
    last = (offset + length - 1) // block_size
    return range(first, last + 1)


def iter_blocks(data: bytes, block_size: int) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(block_index, block_bytes)`` pairs; the final block may be short."""
    for i in range(0, len(data), block_size):
        yield i // block_size, data[i : i + block_size]


def apply_write(base: bytes, offset: int, data: bytes) -> bytes:
    """Return ``base`` with ``data`` written at ``offset``.

    Writing past the current end zero-fills the gap, mirroring POSIX sparse
    file semantics.
    """
    if offset < 0:
        raise ValueError("negative offset")
    if offset > len(base):
        base = base + b"\x00" * (offset - len(base))
    return base[:offset] + data + base[offset + len(data) :]


def truncate(base: bytes, length: int) -> bytes:
    """POSIX ``truncate``: shrink, or zero-extend when growing."""
    if length < 0:
        raise ValueError("negative length")
    if length <= len(base):
        return base[:length]
    return base + b"\x00" * (length - len(base))


def merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce overlapping/adjacent ``(offset, length)`` ranges."""
    if len(ranges) == 1:  # one write, the usual node: nothing to sort
        offset, length = ranges[0]
        return [(offset, length)] if length > 0 else []
    if not ranges:
        return []
    spans = sorted((off, off + ln) for off, ln in ranges if ln > 0)
    if not spans:
        return []
    merged = [spans[0]]
    for start, end in spans[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return [(start, end - start) for start, end in merged]


def overlay(writes: Sequence[Tuple[int, bytes]]) -> List[Piece]:
    """The slices of ``writes`` that show once they are replayed in order,
    a later write winning where writes overlap: :data:`Piece` s in offset
    order, tiling the runs :func:`merge_ranges` gives for the writes.

    Writes are visited newest first against the ranges the newer ones
    already cover, so a slice some later write hid is never named, and
    :func:`join_pieces` copies each byte that shows once.
    """
    if len(writes) == 1:
        offset, data = writes[0]
        return [(offset, data, 0, len(data))] if data else []
    # The ranges covered so far: sorted, disjoint and never adjacent.
    starts: List[int] = []
    ends: List[int] = []
    shown: List[Piece] = []
    for offset, data in reversed(writes):
        end = offset + len(data)
        if end == offset:
            continue
        lo = bisect_left(ends, offset)  # the first range it touches
        hi = bisect_right(starts, end)  # past the last one
        at = offset
        for i in range(lo, hi):  # the gaps between those ranges show
            if starts[i] > at:
                shown.append((at, data, at - offset, starts[i] - offset))
            at = ends[i]
        if at < end:
            shown.append((at, data, at - offset, len(data)))
        if lo < hi:
            starts[lo:hi] = [min(offset, starts[lo])]
            ends[lo:hi] = [max(end, ends[hi - 1])]
        else:
            starts.insert(lo, offset)
            ends.insert(lo, end)
    shown.sort(key=itemgetter(0))
    return shown


def join_pieces(pieces: List[Piece]) -> bytes:
    """The bytes ``pieces`` tile. One piece that is a whole ``bytes`` write
    is that object itself; several are joined with one copy of each byte."""
    if len(pieces) == 1:
        _, data, start, stop = pieces[0]
        if start == 0 and stop == len(data):
            return bytes(data)  # the object itself when it is ``bytes``
    return b"".join([
        data if start == 0 and stop == len(data) else memoryview(data)[start:stop]
        for _, data, start, stop in pieces
    ])


def changed_fraction(ranges: List[Tuple[int, int]], file_size: int) -> float:
    """Fraction of a ``file_size``-byte file covered by the written ranges.
    The tests hold ``WriteNode.rewritten_fraction`` to it."""
    if file_size <= 0:
        return 1.0
    covered = sum(length for _, length in merge_ranges(ranges))
    return min(1.0, covered / file_size)
