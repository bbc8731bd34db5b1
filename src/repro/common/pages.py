"""``Pages``: immutable file content whose updates cost what they change.

The in-memory stores (``MemoryFileSystem`` inodes, the cloud's
``StoredFile`` and its snapshot window) hold file content as this one
value. A value never changes after it is made: ``write`` and ``truncate``
return a *new* value that shares every 4 KB page the update did not touch,
so a 4 KB write into a 4 MB file copies one or two pages, the one leaf of
the page table that holds them and the short top tuple over the leaves,
and keeping the old version (a snapshot) is keeping a reference.
This is the metadata-over-pages representation of *DeltaFS* (PAPERS.md),
at the block size Section III-E already checksums and SQLite already
writes — an aligned page write reads nothing.

A value has one representation, fixed when it is made:

- *flat* — it wraps the ``bytes`` it was built from (a preload, an
  ``UploadFull``, ``apply_delta`` output, any write that replaces the whole
  content) and is what every content no longer than :data:`FLAT_MAX` is.
  ``bytes(flat)`` is that object, free.
- *paged* — a two-level page table: a top tuple of leaves, each leaf a
  tuple of :data:`LEAF_PAGES` pages (the last leaf may be short), each
  page exactly :data:`PAGE` bytes but the last. It is the product of a
  partial write or truncate that leaves more than :data:`FLAT_MAX` bytes.
  A write rebuilds the leaf or leaves it touches and the top tuple and
  shares every other leaf: it copies one reference per page of a leaf and
  one per 256 KB of file, where a flat table copied one per page (33 448
  per write of a 137 MB file). ``bytes(paged)`` joins the pages and keeps
  nothing: caching the join beside the pages was measured to raise peak
  RSS by half where many replicas are read back (docs/performance.md,
  deliberate rejections).

Replicas share values, not only ``bytes``. A value remembers its last
write weakly — the offset, the length and a weak reference to the result
— and asked for that write again with the same bytes it returns the same
result. The cloud and every client it forwards one update to apply the
same run to the same value, so they all end up holding one successor and
its pages, computed once; ``truncate`` to 0 returns the one :data:`EMPTY`,
so a forwarded full-content update (``write_file``) does not split them.
A remembered result also keeps the ``bytes`` object it was made from, and
a repeat that passes that very object is known by identity, with no byte
compare; any other payload, and any ``bytearray`` or ``memoryview``, is
compared in place. So a payload lives exactly as long as the result it
made (a whole-content result already *is* its payload), and the memo
keeps no successor alive (docs/performance.md, deliberate rejections).
Only results over :data:`FLAT_MAX` are remembered: a smaller one costs
less to splice again than its weak reference costs to make.

``write`` and ``truncate`` have exactly the semantics of
``bytesutil.apply_write`` / ``bytesutil.truncate`` on plain ``bytes`` —
those two stay as the reference ``tests/common/test_pages.py`` diffs this
type against.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Optional, Tuple
from weakref import ref

PAGE_SHIFT = 12
PAGE = 1 << PAGE_SHIFT
# Up to here a content stays flat and a write splices it as apply_write
# does: copying at most 64 KB costs what a paged write's fixed work does
# (a few microseconds either way; the curves cross between 32 and 64 KB),
# and a page table would only tax small files, a one-page file most of all.
FLAT_MAX = 16 * PAGE
# Pages per leaf of the table. A power of two, so a page index splits into
# leaf and slot with a shift and a mask; 64, 128 and 256 were measured
# (docs/performance.md).
LEAF_PAGES = 64

Leaves = Tuple[Tuple[bytes, ...], ...]


def _split(flat: bytes) -> Tuple[bytes, ...]:
    return tuple([flat[i : i + PAGE] for i in range(0, len(flat), PAGE)])


def _leaves(pages: Tuple[bytes, ...]) -> Leaves:
    """``pages`` grouped into leaves from the first: all full but the last."""
    width = LEAF_PAGES
    if len(pages) <= width:
        return (pages,)
    return tuple([pages[i : i + width] for i in range(0, len(pages), width)])


class Pages:
    """File content: ``len``, ``read``/index/slice, ``bytes``,
    ``==``/``hash`` as the ``bytes`` it stands for; ``write``/``truncate``
    return new values.

    ``Pages(data)`` is the flat value around ``data``. ``size`` is there to
    be read, never assigned: the length in bytes (what ``len`` returns,
    without the call). ``table`` is the pages of a paged value as one flat
    tuple, built on each read (for inspection, not for a hot path), and
    ``None`` for a flat one.
    """

    __slots__ = ("_flat", "_top", "size", "_next", "_payload", "__weakref__")

    def __init__(
        self, data: Optional[bytes] = b"", top: Optional[Leaves] = None, size=None
    ):
        self._flat = data  # the whole content, or None when paged
        self._top = top  # the leaves of a paged value, or None when flat
        self.size: int = len(data) if size is None else size
        # The last write made from this value whose result is over
        # FLAT_MAX: (offset, length, weak reference to the result), or None.
        self._next = None
        # The ``bytes`` a remembered write made this value from, or None:
        # a repeat that passes the same object is known without a compare.
        self._payload = None

    @property
    def table(self) -> Optional[Tuple[bytes, ...]]:
        top = self._top
        return None if top is None else tuple(chain.from_iterable(top))

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        flat = self._flat
        return flat if flat is not None else b"".join(chain.from_iterable(self._top))

    def __eq__(self, other) -> bool:
        if isinstance(other, (Pages, bytes, bytearray)):
            return len(other) == self.size and bytes(self) == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(bytes(self))

    def __repr__(self) -> str:
        top = self._top
        kind = "flat" if top is None else f"{len(self.table)} pages, {len(top)} leaves"
        return f"Pages({self.size} bytes, {kind})"

    def __getitem__(self, key):
        if not isinstance(key, slice):
            index = operator.index(key)
            if index < 0:
                index += self.size
            if not 0 <= index < self.size:
                raise IndexError("file content index out of range")
            return self.read(index, 1)[0]
        start, stop, step = key.indices(self.size)
        if step != 1:
            raise ValueError("only contiguous slices of file content")
        return self.read(start, max(0, stop - start))

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        """``length`` bytes at ``offset`` (to the end when ``None``),
        clipped to the content."""
        if offset < 0:
            raise ValueError("negative offset")
        flat = self._flat
        if flat is not None:
            return flat[offset:] if length is None else flat[offset : offset + length]
        size = self.size
        stop = size if length is None else min(offset + length, size)
        if offset >= stop:
            return b""
        top = self._top
        shift, mask = LEAF_PAGES.bit_length() - 1, LEAF_PAGES - 1
        first, last = offset >> PAGE_SHIFT, (stop - 1) >> PAGE_SHIFT
        if first == last:
            base = first << PAGE_SHIFT
            return top[first >> shift][first & mask][offset - base : stop - base]
        head, tail = first >> shift, last >> shift
        if head == tail:
            parts = list(top[head][first & mask : (last & mask) + 1])
        else:  # whole leaves between the two ends, sliced, not indexed
            parts = list(top[head][first & mask :])
            parts.extend(chain.from_iterable(top[head + 1 : tail]))
            parts.extend(top[tail][: (last & mask) + 1])
        parts[0] = parts[0][offset - (first << PAGE_SHIFT) :]
        parts[-1] = parts[-1][: stop - (last << PAGE_SHIFT)]
        return b"".join(parts)

    def _holds(self, offset: int, data: bytes) -> bool:
        """Whether this content's ``len(data)`` bytes at ``offset`` are
        ``data`` — which must lie inside it — compared in place, page by
        page: no join, no slice copy."""
        flat = self._flat
        if flat is not None:
            return flat.startswith(data, offset)
        top = self._top
        shift, mask = LEAF_PAGES.bit_length() - 1, LEAF_PAGES - 1
        index, at = offset >> PAGE_SHIFT, offset & (PAGE - 1)
        if len(data) <= PAGE - at:  # inside one page (or empty): no view
            return not data or top[index >> shift][index & mask].startswith(data, at)
        leaf, slot = index >> shift, index & mask
        pages = top[leaf]
        with memoryview(data) as view:
            done, total = 0, len(view)
            while done < total:
                if slot > mask:  # on into the next leaf
                    leaf, slot = leaf + 1, 0
                    pages = top[leaf]
                take = PAGE - at
                if not pages[slot].startswith(view[done : done + take], at):
                    return False
                done += take
                slot += 1
                at = 0
        return True

    def write(self, offset: int, data: bytes) -> "Pages":
        """The content with ``data`` written at ``offset``; a gap past the
        end is zero-filled (POSIX sparse semantics), also for empty data.
        Asked again for its last write, with the same bytes, a value
        returns that write's result while anything keeps it alive."""
        if offset < 0:
            raise ValueError("negative offset")
        length = len(data)
        last = self._next
        # A value made from this one by ``length`` bytes at ``offset`` is
        # this write's result exactly when those bytes are ``data``: surely
        # so when ``data`` is the very ``bytes`` it was made from.
        if last is not None and last[0] == offset and last[1] == length:
            known = last[2]()
            if known is not None and (
                data is known._payload or known._holds(offset, data)
            ):
                return known
        size = self.size
        end = offset + length
        if offset == 0 and end >= size:
            # Whole content replaced: flat around the payload itself, so
            # replicas of one upload keep sharing one bytes object.
            result = Pages(bytes(data))
            if length > FLAT_MAX:
                self._next = (offset, length, ref(result))
                result._payload = result._flat  # no second object held
            return result
        flat = self._flat
        if flat is not None and end <= FLAT_MAX and size <= FLAT_MAX:
            # Small content: spliced exactly as apply_write does. Not
            # remembered: splicing again costs less than a weak reference.
            if offset > size:
                flat = flat + bytes(offset - size)
            return Pages(flat[:offset] + data + flat[end:])
        start = offset if offset < size else size  # a gap changes bytes too
        if end == start:
            return self
        top = self._top if flat is None else _leaves(_split(flat))
        shift, mask = LEAF_PAGES.bit_length() - 1, LEAF_PAGES - 1
        lo, hi = start >> PAGE_SHIFT, (end - 1) >> PAGE_SHIFT
        first, at = lo >> shift, lo & mask
        chunk = b""
        if start > lo << PAGE_SHIFT:
            chunk = top[first][at][: start - (lo << PAGE_SHIFT)]
        if offset > size:
            chunk += bytes(offset - size)
        chunk += data
        if end < size:  # in place: the touched leaves keep their width
            last, slot = hi >> shift, hi & mask
            leaf = top[last]
            chunk += leaf[slot][end - (hi << PAGE_SHIFT) :]
            new = (chunk,) if len(chunk) <= PAGE else _split(chunk)
            if first == last:
                leaves = (leaf[:at] + new + leaf[slot + 1 :],)
            else:
                leaves = _leaves(top[first][:at] + new + leaf[slot + 1 :])
            top = top[:first] + leaves + top[last + 1 :]
        else:  # on to the new end: the last leaves are rebuilt
            new = (chunk,) if len(chunk) <= PAGE else _split(chunk)
            top = top[:first] + _leaves(top[first][:at] + new if at else new)
        result = Pages(None, top, end if end > size else size)
        self._next = (offset, length, ref(result))
        if type(data) is bytes:  # immutable: the same object, the same bytes
            result._payload = data
        return result

    def truncate(self, length: int) -> "Pages":
        """The content cut, or zero-extended, to ``length``."""
        if length < 0:
            raise ValueError("negative length")
        if length == 0:
            return EMPTY  # one empty value, so replicas keep sharing
        if length >= self.size:
            return self if length == self.size else self.write(length, b"")
        if length <= FLAT_MAX:
            return Pages(self.read(0, length))
        top = self._top if self._flat is None else _leaves(_split(self._flat))
        shift, mask = LEAF_PAGES.bit_length() - 1, LEAF_PAGES - 1
        keep, cut = length >> PAGE_SHIFT, length & (PAGE - 1)
        leaf, at = keep >> shift, keep & mask
        # Whole leaves before the cut are kept by reference.
        part = top[leaf][:at] if at else ()
        if cut:
            part += (top[leaf][at][:cut],)
        return Pages(None, top[:leaf] + (part,) if part else top[:leaf], length)


EMPTY = Pages()
