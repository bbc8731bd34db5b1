"""Write-ahead log record format.

Each record is ``[length u32][crc32 u32][payload]`` where payload is
``[op u8][klen u32][key][value]``. A torn final record (crash mid-append)
fails its CRC or length check and is ignored on replay — the standard WAL
recovery contract.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Tuple

from repro.common import wire

PUT = 1
DELETE = 2

_FRAME = wire.Schema("WAL frame", wire.u32le("length"), wire.u32le("crc32"))
_PAYLOAD = wire.Schema(
    "WAL payload", wire.u8("op"), wire.blob("key", wire.u32le), wire.rest("value")
)


def encode_record(op: int, key: bytes, value: bytes = b"") -> bytes:
    """Serialize one WAL record."""
    if op not in (PUT, DELETE):
        raise ValueError(f"unknown op {op}")
    payload = _PAYLOAD.encode((op, key, value))
    return _FRAME.encode((len(payload), zlib.crc32(payload))) + payload


def iter_records(buf: bytes) -> Iterator[Tuple[int, bytes, bytes]]:
    """Yield ``(op, key, value)`` for every intact record in ``buf``.

    Stops silently at the first torn or corrupt record — everything after
    a partial write is untrustworthy.
    """
    pos = 0
    n = len(buf)
    while pos + _FRAME.fixed_size <= n:
        (length, crc), start = _FRAME.decode_from(buf, pos)
        end = start + length
        if end > n:
            return  # torn tail
        payload = buf[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt tail
        try:
            record = _PAYLOAD.decode(payload)
        except ValueError:
            return  # checksummed but malformed: as untrustworthy as a bad CRC
        yield record
        pos = end
