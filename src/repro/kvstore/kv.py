"""The KV store implementations."""

from __future__ import annotations

import os
from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Tuple

from repro.kvstore import wal


class KVStore:
    """Abstract ordered byte-key/byte-value store (the LevelDB contract)."""

    def get(self, key: bytes) -> bytes | None:
        """Value for ``key`` or ``None``."""
        raise NotImplementedError

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite."""
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        """Remove ``key`` if present (idempotent)."""
        raise NotImplementedError

    def items(self, prefix: bytes = b"") -> Iterator[Tuple[bytes, bytes]]:
        """All (key, value) pairs with the given prefix, in key order."""
        raise NotImplementedError

    def delete_prefix(self, prefix: bytes) -> int:
        """Remove every key with ``prefix``; returns the count removed."""
        doomed = [k for k, _ in self.items(prefix)]
        for key in doomed:
            self.delete(key)
        return len(doomed)

    def __len__(self) -> int:
        return sum(1 for _ in self.items())


def _prefix_end(prefix: bytes) -> bytes | None:
    """The smallest key greater than every key starting with ``prefix``
    (``None``: there is none — the prefix is empty or all ``0xff``)."""
    stem = prefix.rstrip(b"\xff")
    if not stem:
        return None
    return stem[:-1] + bytes([stem[-1] + 1])


class MemoryKV(KVStore):
    """Dict-backed store with no persistence.

    The keys are also kept in one sorted list, so a prefix query is a seek
    (two bisections) plus the matches, not a scan of the store. An insert
    or delete of a key shifts the list's tail — a C ``memmove`` of key
    pointers, cheap enough at every size measured (docs/performance.md).
    """

    def __init__(self):
        self._data: Dict[bytes, bytes] = {}
        self._keys: List[bytes] = []  # sorted(self._data), kept by put/delete

    def get(self, key: bytes) -> bytes | None:
        # Normalize like put() does: a bytearray/memoryview key must find
        # (and below, delete) the entry its bytes-typed twin inserted.
        return self._data.get(bytes(key))

    def put(self, key: bytes, value: bytes) -> None:
        key = bytes(key)
        if key not in self._data:
            insort(self._keys, key)
        self._data[key] = bytes(value)

    def delete(self, key: bytes) -> None:
        key = bytes(key)
        if self._data.pop(key, None) is not None:
            del self._keys[bisect_left(self._keys, key)]

    def items(self, prefix: bytes = b"") -> Iterator[Tuple[bytes, bytes]]:
        # A snapshot of the matching keys, taken when iteration starts:
        # callers put and delete while they consume it.
        prefix = bytes(prefix)
        keys = self._keys
        lo = bisect_left(keys, prefix)
        end = _prefix_end(prefix)
        hi = len(keys) if end is None else bisect_left(keys, end, lo)
        for key in keys[lo:hi]:
            yield key, self._data[key]

    def __len__(self) -> int:
        return len(self._data)


class LogStructuredKV(MemoryKV):
    """Durable store: the in-memory index + an append-only checksummed WAL.

    Every mutation appends a WAL record before updating the index; reopen
    replays the log, discarding any torn tail. ``compact()`` rewrites the
    log to current state (atomic via rename) once dead records accumulate.

    ``sync=True`` fsyncs after every append: an acked write then survives a
    power cut, not just a process crash. The recovery journal requires this
    — its whole point is outliving the power cut it models — while the
    checksum store can keep the cheaper flush-only default (a stale
    checksum only ever causes a false *positive* sweep hit).
    """

    def __init__(
        self, path: str, *, auto_compact_ratio: float = 4.0, sync: bool = False
    ):
        super().__init__()
        self._path = path
        self._auto_compact_ratio = auto_compact_ratio
        self._sync = sync
        self._records = 0
        if os.path.exists(path):
            with open(path, "rb") as fh:
                buf = fh.read()
            for op, key, value in wal.iter_records(buf):
                self._records += 1
                if op == wal.PUT:
                    super().put(key, value)
                else:
                    super().delete(key)
            # Drop any torn tail so future appends start on a clean record
            # boundary.
            self._rewrite()
        self._fh = open(path, "ab")

    def put(self, key: bytes, value: bytes) -> None:
        key, value = bytes(key), bytes(value)
        self._append(wal.PUT, key, value)
        super().put(key, value)

    def delete(self, key: bytes) -> None:
        key = bytes(key)
        if key not in self._data:
            return
        self._append(wal.DELETE, key)
        super().delete(key)

    def compact(self) -> None:
        """Rewrite the log to hold exactly the live records."""
        self._fh.close()
        self._rewrite()
        self._fh = open(self._path, "ab")

    def close(self) -> None:
        """Flush, fsync, and close the log file.

        The fsync runs regardless of ``sync`` mode: close is the one point
        where even a flush-only store promises its records are on disk.
        """
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "LogStructuredKV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _append(self, op: int, key: bytes, value: bytes = b"") -> None:
        self._fh.write(wal.encode_record(op, key, value))
        self._fh.flush()
        if self._sync:
            os.fsync(self._fh.fileno())
        self._records += 1
        live = max(1, len(self._data))
        if self._records > live * self._auto_compact_ratio and self._records > 64:
            self.compact()

    def _rewrite(self) -> None:
        tmp_path = self._path + ".compact"
        with open(tmp_path, "wb") as out:
            for key in self._keys:
                out.write(wal.encode_record(wal.PUT, key, self._data[key]))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_path, self._path)
        self._records = len(self._data)
