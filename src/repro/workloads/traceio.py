"""Trace (de)serialization.

The paper publishes its evaluation traces alongside the prototype; this
module provides the equivalent: a compact, versioned binary format for
operation streams (including write payloads), so captured or synthesized
traces can be stored, shared, and replayed byte-identically.

Format (``DCFSTRC1``, little-endian): the 8-byte magic+version, a
length-prefixed JSON metadata block (name, stats, sorted preload paths,
op count), one length-prefixed content blob per preload path, then one
record per operation. The records are the field tables the operations
declare on themselves (:data:`repro.vfs.ops.OP_RECORD`); the framing
around them is the two tables below — nothing here knows an op's layout.

Loading is strict: a short read, an unknown kind tag, a byte after the
last record, a count or length that disagrees with the bytes, and a
metadata block of the wrong shape are all ``ValueError``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import BinaryIO, Dict, Iterator

from repro.common import wire
from repro.vfs import ops
from repro.workloads.traces import Trace, TraceStats

_MAGIC = b"DCFSTRC1"
_META = wire.Schema("trace metadata", wire.blob("json", wire.u32le), scalar=True)
_PRELOAD = wire.Schema("preload content", wire.blob("content", wire.u32le), scalar=True)

_META_SHAPE = {"name": str, "stats": dict, "preload_paths": list, "op_records": int}
_STATS_SHAPE = {f.name: int for f in fields(TraceStats)}


def _shaped(obj: object, shape: Dict[str, type], what: str) -> dict:
    """``obj``, if it is a JSON object with exactly ``shape``'s keys and types."""
    if not isinstance(obj, dict) or obj.keys() != shape.keys():
        raise ValueError(f"malformed trace {what}: want an object with keys {list(shape)}")
    for key, kind in shape.items():
        if type(obj[key]) is not kind:  # exact: JSON ``true`` is not a count
            raise ValueError(f"malformed trace {what}: {key!r} is not {kind.__name__}")
    return obj


def _records(trace: Trace) -> Iterator[bytes]:
    """The file, piece by piece: magic, metadata, preload blobs, op records."""
    paths = sorted(trace.preload)
    meta = {
        "name": trace.name,
        "stats": asdict(trace.stats),
        "preload_paths": paths,
        "op_records": len(trace.ops),
    }
    yield _MAGIC
    yield _META.encode(json.dumps(meta).encode())
    for path in paths:
        yield _PRELOAD.encode(trace.preload[path])
    yield from map(ops.OP_RECORD.encode, trace.ops)


def trace_to_bytes(trace: Trace) -> bytes:
    """Serialize ``trace`` (ops, stats, and preload content)."""
    return b"".join(_records(trace))


def trace_from_bytes(raw: bytes) -> Trace:
    """Parse what :func:`trace_to_bytes` wrote; ``ValueError`` on anything else."""
    if not raw.startswith(_MAGIC):
        raise ValueError(f"not a DeltaCFS trace (magic {raw[:len(_MAGIC)]!r})")
    block, pos = _META.decode_from(raw, len(_MAGIC))
    meta = _shaped(json.loads(block), _META_SHAPE, "metadata")
    stats = TraceStats(**_shaped(meta["stats"], _STATS_SHAPE, "stats"))
    paths, op_records = meta["preload_paths"], meta["op_records"]
    if not all(isinstance(p, str) for p in paths) or paths != sorted(set(paths)):
        raise ValueError("malformed trace metadata: preload paths not sorted unique strings")
    if op_records < 0:
        raise ValueError(f"malformed trace metadata: {op_records} op records")
    trace = Trace(name=meta["name"], stats=stats)
    for path in paths:
        trace.preload[path], pos = _PRELOAD.decode_from(raw, pos)
    for _ in range(op_records):
        op, pos = ops.OP_RECORD.decode_from(raw, pos)
        trace.ops.append(op)
    if pos != len(raw):
        raise ValueError(f"{len(raw) - pos} trailing byte(s) after the last trace record")
    return trace


def dump_trace(trace: Trace, out: BinaryIO) -> None:
    """Write ``trace`` to a binary stream, one record at a time."""
    out.writelines(_records(trace))


def load_trace(buf: BinaryIO) -> Trace:
    """Read a trace from a binary stream (which must end where it does)."""
    return trace_from_bytes(buf.read())


def save_trace_file(trace: Trace, path: str) -> None:
    """Write a trace to ``path``."""
    with open(path, "wb") as fh:
        dump_trace(trace, fh)


def load_trace_file(path: str) -> Trace:
    """Read a trace from ``path``."""
    with open(path, "rb") as fh:
        return load_trace(fh)
