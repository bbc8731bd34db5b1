"""Typed file-operation records: the one definition of a file operation.

These are the events that flow through the interception stack and make up
replayable traces (the Word/WeChat traces of Section IV-A are sequences of
these). ``WriteOp`` carries the written payload — the whole point of
NFS-like file RPC is that the payload is available at interception time.

Each operation states, on its class, the three things there are to know
about it: its fields, its effect on a file system layer (``op.apply(fs)``
— what :func:`repro.workloads.traces.replay` runs) and its record in a
trace file, a :mod:`repro.common.wire` field table

    [kind u8][timestamp f64 LE][path: u16 LE length + UTF-8][fields...]

from which the encoder, the strict decoder and the layout tables in
``docs/wire-protocol.md`` are generated. :data:`OP_RECORD` is the union of
the ten on the kind tag; :mod:`repro.workloads.traceio` frames a stream of
them into a file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union, get_args

from repro.common import wire


def _path(name: str = "path") -> wire.Field:
    return wire.text(name, wire.u16le)


def _op(kind: int, *fields: wire.Field):
    """Class decorator: a frozen dataclass whose trace record is the
    ``kind`` tag, the timestamp, then ``fields``."""

    def declare(cls):
        layout = (wire.u8(const=kind), wire.f64le("timestamp")) + fields
        return wire.record(*layout)(dataclass(frozen=True)(cls))

    return declare


@_op(1, _path())
class CreateOp:
    """Create an empty regular file."""

    path: str
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.create(self.path)


@_op(2, _path(), wire.u64le("offset"), wire.blob("data", wire.u32le))
class WriteOp:
    """Write ``data`` at ``offset``; extends the file if needed."""

    path: str
    offset: int
    data: bytes = field(repr=False)
    timestamp: float = 0.0

    @property
    def length(self) -> int:
        return len(self.data)

    def apply(self, fs) -> None:
        fs.write(self.path, self.offset, self.data)

    def __repr__(self) -> str:  # keep giant payloads out of test output
        return (
            f"WriteOp(path={self.path!r}, offset={self.offset}, "
            f"length={len(self.data)}, timestamp={self.timestamp})"
        )


@_op(3, _path(), wire.u64le("offset"), wire.u64le("length"))
class ReadOp:
    """Read ``length`` bytes at ``offset``."""

    path: str
    offset: int
    length: int
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.read(self.path, self.offset, self.length)


@_op(4, _path(), wire.u64le("length"))
class TruncateOp:
    """Set the file length (shrink or zero-extend)."""

    path: str
    length: int
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.truncate(self.path, self.length)


@_op(5, _path("src"), _path("dst"))
class RenameOp:
    """Atomically rename ``src`` to ``dst`` (replacing ``dst`` if present)."""

    src: str
    dst: str
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.rename(self.src, self.dst)


@_op(6, _path("src"), _path("dst"))
class LinkOp:
    """Create a hard link ``dst`` to the file at ``src``."""

    src: str
    dst: str
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.link(self.src, self.dst)


@_op(7, _path())
class UnlinkOp:
    """Remove the directory entry at ``path``."""

    path: str
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.unlink(self.path)


@_op(8, _path())
class CloseOp:
    """Close the (path-addressed) file — packs its Sync Queue write node."""

    path: str
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.close(self.path)


@_op(9, _path())
class MkdirOp:
    """Create a directory."""

    path: str
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.mkdir(self.path)


@_op(10, _path())
class RmdirOp:
    """Remove an empty directory."""

    path: str
    timestamp: float = 0.0

    def apply(self, fs) -> None:
        fs.rmdir(self.path)


FileOp = Union[
    CreateOp,
    WriteOp,
    ReadOp,
    TruncateOp,
    RenameOp,
    LinkOp,
    UnlinkOp,
    CloseOp,
    MkdirOp,
    RmdirOp,
]

#: One trace-file record: whichever operation its leading kind tag names.
OP_RECORD = wire.Union("trace op", *(op.WIRE for op in get_args(FileOp)))
