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
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chunking._fast import block_weak_checksums
from repro.common import wire
from repro.common.bytesutil import block_range
from repro.common.errors import CorruptionDetected, InconsistencyDetected
from repro.cost.meter import CostMeter, NULL_METER
from repro.kvstore import KVStore, MemoryKV


# KV layout: ``<path> 0x00 <block index>`` -> ``<weak checksum>``.
_INDEX = wire.Schema("block index", wire.u64be("index"), scalar=True)
_WEAK = wire.Schema("block checksum", wire.u32be("weak"), scalar=True)
_pack_index, _pack = _INDEX.encode, _WEAK.encode


def _key(path: str, block_index: int) -> bytes:
    return path.encode() + b"\x00" + _pack_index(block_index)


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

    def _span_weaks(
        self, content: bytes, first: int, last: int, start: int = 0
    ) -> List[int | None]:
        """Checksums of blocks ``first..last`` in one vectorized sweep.

        ``content`` holds the file from byte ``start`` (block-aligned) on.
        Returns one entry per block; ``None`` marks a block that has no
        bytes (the file ends before it). The cost charged equals the sum
        of the per-block charges the block-at-a-time loop used to make.
        """
        bs = self.block_size
        span = content[first * bs - start : (last + 1) * bs - start]
        count = last - first + 1
        if not span:
            return [None] * count
        self.meter.charge_bytes("rolling_checksum", len(span))
        weaks: List[int | None] = list(block_weak_checksums(span, bs))
        weaks.extend([None] * (count - len(weaks)))
        return weaks

    def update_blocks(
        self, names, content: bytes, offset: int, length: int, *, start: int = 0
    ) -> None:
        """Recompute checksums for the blocks touched by a write.

        ``content`` is the file content *after* the write, from byte
        ``start`` on (the whole file, or just :meth:`span_of` the write).
        The cost charged covers only the touched blocks — this is the
        "little overhead" the paper claims for checksum maintenance. The
        touched span is checksummed in one bulk pass, not block-by-block,
        once for all of the file's synced ``names`` (a ``str`` is one name).
        """
        if length <= 0:
            return
        indices = block_range(offset, length, self.block_size)
        weaks = self._span_weaks(content, indices[0], indices[-1], start)
        for name in (names,) if isinstance(names, str) else names:
            for rel, index in enumerate(indices):
                weak = weaks[rel]
                if weak is not None:
                    self.kv.put(_key(name, index), _pack(weak))
                else:
                    self.kv.delete(_key(name, index))

    def reindex(self, names, content: bytes) -> None:
        """Recompute the whole file's checksums (truncate, rename-in) under
        each of its synced ``names``, computed once."""
        weaks: List[int] = []
        if content:
            self.meter.charge_bytes("rolling_checksum", len(content))
            weaks = block_weak_checksums(content, self.block_size)
        for name in (names,) if isinstance(names, str) else names:
            self.kv.delete_prefix(name.encode() + b"\x00")
            for index, weak in enumerate(weaks):
                self.kv.put(_key(name, index), _pack(weak))

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
        """Forget a deleted file's checksums."""
        self.kv.delete_prefix(path.encode() + b"\x00")

    # -- verification ------------------------------------------------------

    def _stored_map(self, path: str) -> Dict[int, int]:
        """All stored checksums for ``path`` as ``{block_index: checksum}``.

        One prefix scan instead of one point ``get`` per block — the sweep
        paths compare against this map with plain ``int`` equality.
        """
        prefix = path.encode() + b"\x00"
        return {
            _INDEX.decode(key[len(prefix) :]): _WEAK.decode(value)
            for key, value in self.kv.items(prefix)
        }

    def verify_read(
        self, path: str, content: bytes, offset: int, length: int, *, start: int = 0
    ) -> None:
        """Verify the blocks covering a read; raise on mismatch.

        ``content`` is the file from byte ``start`` on, as for
        :meth:`update_blocks`.

        Raises:
            CorruptionDetected: a covered block's checksum disagrees with
                the stored one — the content changed beneath DeltaCFS.
        """
        if length <= 0:
            return
        indices = block_range(offset, length, self.block_size)
        weaks = self._span_weaks(content, indices[0], indices[-1], start)
        for rel, index in enumerate(indices):
            stored = self.kv.get(_key(path, index))
            actual = weaks[rel]
            if actual is None:
                if stored is not None:
                    raise CorruptionDetected(
                        f"{path} block {index}: checksummed but absent", path=path
                    )
                continue
            if stored != _pack(actual):
                raise CorruptionDetected(
                    f"{path} block {index}: checksum mismatch",
                    path=path,
                    block_index=index,
                )

    def mismatched_blocks(self, path: str, content: bytes) -> List[int]:
        """Block indices where ``content`` disagrees with stored checksums
        — the post-crash sweep's one block comparison.

        The whole file is checksummed in one bulk pass and compared
        against a single prefix scan of the store. A block with no stored
        checksum (or a stored checksum with no block) counts as mismatched.
        """
        n_blocks = (len(content) + self.block_size - 1) // self.block_size
        stored_map = self._stored_map(path)
        weaks = self._span_weaks(content, 0, n_blocks - 1) if n_blocks else []
        bad = [
            index
            for index in range(n_blocks)
            if stored_map.get(index) != weaks[index]
        ]
        bad.extend(index for index in stored_map if index >= n_blocks)
        return sorted(bad)

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
        return list(self._stored_map(path))
