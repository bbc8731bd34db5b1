"""The Checksum Store (paper Section III-E).

Per-file, per-4KB-block checksums kept in a key-value store, maintained
inline as operations pass through DeltaCFS:

- on write/truncate, checksums of the touched blocks are recomputed;
- on read, the blocks covering the read are verified — a mismatch means
  *silent corruption* (the change did not come through the operation path);
- after a crash, recently-modified files are swept and mismatches reported
  as *crash inconsistency*.

The checksum is the rsync weak rolling checksum — "since rsync also uses
the same way to split a file, we can reuse the rolling checksum in rsync as
the block checksum, which further reduces the computational cost."

The KV holds one record per group of :data:`GROUP` blocks of a file (256
KB at 4 KB blocks, one ``Pages`` leaf): key ``<path> 0x00 <group index>``,
value a presence bitmap (bit ``i``: block ``group * GROUP + i`` is
checksummed) and the group's big-endian u32 checksums, one slot per block
up to the highest checksummed one. A write, a read and an unlink of a
small file each touch one record, not one per block: the cost of an
update is the metadata it writes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chunking._fast import block_weak_checksums_array
from repro.common import wire
from repro.common.bytesutil import block_range
from repro.common.errors import CorruptionDetected, InconsistencyDetected
from repro.cost.meter import CostMeter, NULL_METER
from repro.kvstore import KVStore, MemoryKV

# Blocks per KV record; a power of two no wider than the u64 bitmap.
GROUP = 64
_SLOT = 4  # bytes of one block's checksum in a record

_INDEX = wire.Schema("group index", wire.u64be("index"), scalar=True)
_RECORD = wire.Schema("checksum group", wire.u64be("present"), wire.rest("slots"))
_EMPTY = (0, b"")  # a group with no record: no block checksummed


def _key(path: str, group: int) -> bytes:
    return path.encode() + b"\x00" + _INDEX.encode(group)


def _bits(first: int, count: int) -> int:
    """The bitmap of slots ``first .. first+count-1``."""
    return ((1 << count) - 1) << first


def _groups(first: int, last: int) -> List[Tuple[int, int, int, int]]:
    """``(group, slot, count, at)`` for each group that blocks
    ``first..last`` touch: the run of ``count`` blocks from ``slot`` in
    the group, which is the run from ``at`` in the range."""
    if first // GROUP == last // GROUP:  # the usual op: one group
        return [(first // GROUP, first % GROUP, last - first + 1, 0)]
    runs = []
    for group in range(first // GROUP, last // GROUP + 1):
        base = group * GROUP
        lo, hi = max(first, base), min(last, base + GROUP - 1)
        runs.append((group, lo - base, hi - lo + 1, lo - first))
    return runs


def _merged(
    record: Tuple[int, bytes], slot: int, count: int, fresh: bytes
) -> Tuple[int, bytes]:
    """``record`` with the run of ``count`` slots from ``slot`` replaced:
    its first ``len(fresh) // 4`` blocks take the checksums ``fresh``, the
    rest (the file ends before them) lose theirs."""
    present, held = record
    have = len(fresh) // _SLOT
    present = present & ~_bits(slot, count) | _bits(slot, have)
    if have == count and (slot + count) * _SLOT <= len(held):
        # Blocks the record already covers, all of them with bytes: the
        # record keeps its length, and the run is spliced in.
        return present, held[: slot * _SLOT] + fresh + held[(slot + count) * _SLOT :]
    slots = bytearray(held)
    if len(slots) < slot * _SLOT:
        slots.extend(bytes(slot * _SLOT - len(slots)))
    slots[slot * _SLOT : (slot + count) * _SLOT] = fresh + bytes((count - have) * _SLOT)
    del slots[present.bit_length() * _SLOT :]
    return present, bytes(slots)


def _disagreeing(
    record: Tuple[int, bytes], slot: int, count: int, fresh: bytes
) -> List[int]:
    """Slots of the run of ``count`` from ``slot`` where ``record`` and the
    checksums ``fresh`` disagree (``fresh`` covers the run's blocks that
    have bytes, a prefix of it): one comparison of bytes when they agree,
    a walk of the run only when they do not."""
    present, held = record
    have = len(fresh) // _SLOT
    if (
        present & _bits(slot, count) == _bits(slot, have)
        and held[slot * _SLOT : (slot + have) * _SLOT] == fresh
    ):
        return []
    bad = []
    for index in range(slot, slot + count):
        has = index - slot < have
        if bool(present >> index & 1) != has or (
            has
            and held[index * _SLOT : (index + 1) * _SLOT]
            != fresh[(index - slot) * _SLOT : (index - slot + 1) * _SLOT]
        ):
            bad.append(index)
    return bad


class ChecksumStore:
    """Block-checksum bookkeeping over a :class:`KVStore`."""

    def __init__(
        self,
        kv: KVStore | None = None,
        *,
        block_size: int = 4096,
        meter: CostMeter = NULL_METER,
    ):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.kv = kv if kv is not None else MemoryKV()
        self.block_size = block_size
        self.meter = meter

    # -- maintenance -------------------------------------------------------

    def span_of(self, offset: int, length: int | None) -> Tuple[int, int | None]:
        """``(start, size)`` of the block-aligned byte span covering
        ``[offset, offset+length)`` (``size`` ``None``: to the end of the
        file, like ``length``) — all of the file :meth:`update_blocks` /
        :meth:`verify_read` look at, so a caller can hand them that span
        (``start=``) instead of the whole file."""
        bs = self.block_size
        start = offset - offset % bs
        if length is None:
            return start, None
        return start, -(-(offset + length) // bs) * bs - start

    def _span_slots(
        self, content: bytes, first: int, last: int, start: int = 0
    ) -> bytes:
        """Checksums of blocks ``first..last`` in one vectorized sweep, as
        record slots.

        ``content`` holds the file from byte ``start`` (block-aligned) on.
        Returns one slot per block that has bytes — a prefix of the range,
        empty past the end of the file. The cost charged equals the sum of
        the per-block charges a block-at-a-time loop would make.
        """
        bs = self.block_size
        span = content[first * bs - start : (last + 1) * bs - start]
        if not span:
            return b""
        self.meter.charge_bytes("rolling_checksum", len(span))
        return block_weak_checksums_array(span, bs).astype(">u4").tobytes()

    def _record(self, key: bytes) -> Tuple[int, bytes]:
        value = self.kv.get(key)
        return _EMPTY if value is None else _RECORD.decode(value)

    def _records(self, path: str) -> Dict[int, Tuple[int, bytes]]:
        """All of ``path``'s records as ``{group: (present, slots)}``, in
        group order, from one prefix scan."""
        prefix = path.encode() + b"\x00"
        return {
            _INDEX.decode(key[len(prefix) :]): _RECORD.decode(value)
            for key, value in self.kv.items(prefix)
        }

    def update_blocks(
        self, names, content: bytes, offset: int, length: int, *, start: int = 0
    ) -> None:
        """Recompute checksums for the blocks touched by a write.

        ``content`` is the file content *after* the write, from byte
        ``start`` on (the whole file, or just :meth:`span_of` the write).
        The cost charged covers only the touched blocks — this is the
        "little overhead" the paper claims for checksum maintenance. The
        touched span is checksummed in one bulk pass, not block-by-block,
        once for all of the file's synced ``names`` (a ``str`` is one name);
        each name's touched groups take one read and one write each.
        """
        if length <= 0:
            return
        blocks = block_range(offset, length, self.block_size)
        first, last = blocks[0], blocks[-1]
        slots = self._span_slots(content, first, last, start)
        runs = _groups(first, last)
        for name in (names,) if isinstance(names, str) else names:
            for group, slot, count, at in runs:
                key = _key(name, group)
                old = self._record(key)
                fresh = slots[at * _SLOT : (at + count) * _SLOT]
                record = _merged(old, slot, count, fresh)
                if record[0]:
                    self.kv.put(key, _RECORD.encode(record))
                elif old[0]:  # no block of the group left: no record
                    self.kv.delete(key)

    def reindex(self, names, content: bytes) -> None:
        """Recompute the whole file's checksums (truncate, rename-in) under
        each of its synced ``names``, computed once."""
        slots = b""
        if content:
            self.meter.charge_bytes("rolling_checksum", len(content))
            slots = block_weak_checksums_array(content, self.block_size)
            slots = slots.astype(">u4").tobytes()
        blocks = len(slots) // _SLOT
        records = [
            _RECORD.encode(
                (
                    _bits(0, min(GROUP, blocks - base)),
                    slots[base * _SLOT : (base + GROUP) * _SLOT],
                )
            )
            for base in range(0, blocks, GROUP)
        ]
        for name in (names,) if isinstance(names, str) else names:
            prefix = name.encode() + b"\x00"
            stale = [
                key
                for key, _ in self.kv.items(prefix)
                if _INDEX.decode(key[len(prefix) :]) >= len(records)
            ]
            for key in stale:
                self.kv.delete(key)
            for group, value in enumerate(records):
                self.kv.put(prefix + _INDEX.encode(group), value)

    def rename(self, src: str, dst: str) -> None:
        """Move all checksums from ``src`` to ``dst`` (no recomputation)."""
        if src == dst:
            return
        # Snapshot the source items *before* clearing the destination —
        # otherwise an overlapping rename would read back its own deletes.
        moved = list(self.kv.items(src.encode() + b"\x00"))
        self.kv.delete_prefix(dst.encode() + b"\x00")
        for key, value in moved:
            suffix = key[len(src.encode()) + 1 :]
            self.kv.put(dst.encode() + b"\x00" + suffix, value)
            self.kv.delete(key)

    def drop(self, path: str) -> None:
        """Forget a deleted file's checksums: one record per group."""
        self.kv.delete_prefix(path.encode() + b"\x00")

    # -- verification ------------------------------------------------------

    def verify_read(
        self, path: str, content: bytes, offset: int, length: int, *, start: int = 0
    ) -> None:
        """Verify the blocks covering a read; raise on mismatch.

        ``content`` is the file from byte ``start`` on, as for
        :meth:`update_blocks`. Each covered group is one read of its record
        and one comparison of bytes; blocks are walked only to name the bad
        one.

        Raises:
            CorruptionDetected: a covered block's checksum disagrees with
                the stored one — the content changed beneath DeltaCFS.
        """
        if length <= 0:
            return
        blocks = block_range(offset, length, self.block_size)
        first, last = blocks[0], blocks[-1]
        slots = self._span_slots(content, first, last, start)
        for group, slot, count, at in _groups(first, last):
            fresh = slots[at * _SLOT : (at + count) * _SLOT]
            bad = _disagreeing(self._record(_key(path, group)), slot, count, fresh)
            if not bad:
                continue
            block = group * GROUP + bad[0]
            if (bad[0] - slot) * _SLOT >= len(fresh):
                raise CorruptionDetected(
                    f"{path} block {block}: checksummed but absent", path=path
                )
            raise CorruptionDetected(
                f"{path} block {block}: checksum mismatch",
                path=path,
                block_index=block,
            )

    def mismatched_blocks(self, path: str, content: bytes) -> List[int]:
        """Block indices where ``content`` disagrees with stored checksums
        — the post-crash sweep's one block comparison.

        The whole file is checksummed in one bulk pass and compared, a
        group at a time, against a single prefix scan of the store. A
        block with no stored checksum (or a stored checksum with no block)
        counts as mismatched.
        """
        blocks = -(-len(content) // self.block_size)
        slots = self._span_slots(content, 0, blocks - 1) if blocks else b""
        stored = self._records(path)
        bad: List[int] = []
        for group in sorted(stored.keys() | range(-(-blocks // GROUP))):
            base = group * GROUP
            fresh = slots[base * _SLOT : (base + GROUP) * _SLOT]
            bad.extend(
                base + index
                for index in _disagreeing(stored.get(group, _EMPTY), 0, GROUP, fresh)
            )
        return bad

    def verify_file(self, path: str, content: bytes) -> None:
        """The raising form of :meth:`mismatched_blocks`: ``InconsistencyDetected``
        when some block disagrees (a crash-inconsistent intermediate state)."""
        bad = self.mismatched_blocks(path, content)
        if bad:
            raise InconsistencyDetected(
                f"{path}: blocks {bad} disagree with their checksums", path=path
            )

    def blocks_of(self, path: str) -> List[int]:
        """Indices of the blocks currently checksummed for ``path``."""
        return [
            group * GROUP + index
            for group, (present, _) in self._records(path).items()
            for index in range(present.bit_length())
            if present >> index & 1
        ]
