"""The sync wire protocol.

Each message computes its own serialized size; the :class:`Channel` charges
those bytes to the traffic counters that reproduce Figures 8 and 9. Header
overhead is deliberately modest and uniform — the paper notes DeltaCFS
uploads slightly more than NFS because it "has to send some control
information such as files' versions", and that is exactly the per-message
version overhead modelled here.

An *update* message is also the one statement of what the update is:
:meth:`Message.touched_paths` says which paths it touches, and the byte-level
kinds (``UploadWrite`` / ``UploadWriteBatch`` / ``UploadTruncate`` /
``UploadFull``) say what they do to a file — ``apply_to(base)``, from one
:class:`~repro.common.pages.Pages` content value to the next — and how
many data bytes that moves — ``data_bytes()``. Server apply, conflict
copies, crash recovery and the NFS baseline all consume these; nothing
else re-derives them. An ``UploadDelta``'s effect is
:func:`repro.delta.patch.apply_delta` over its ``content_base`` snapshot,
which only the server can resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.common import wire
from repro.common.pages import Pages
from repro.common.version import VersionStamp
from repro.delta.format import Delta


def _message(*fields):
    """Class decorator for a message: a frozen dataclass whose layout is
    the uniform 8-byte header, then ``fields``."""
    layout = wire.record(wire.opaque(8, "type tag + length framing"), *fields)
    return lambda cls: layout(dataclass(frozen=True)(cls))


def _path(name: str) -> wire.Field:
    return wire.text(name, wire.u16be)


def _data(name: str) -> wire.Field:
    return wire.blob(name, wire.u32be)


def _version(name: str) -> wire.Field:
    return wire.optional(name, VersionStamp.WIRE)


_RUN = wire.Schema("run", wire.u64be("offset"), _data("data"))
_PATH = wire.Schema("path", _path("path"), scalar=True)
_PATH_VERSION = wire.Schema("path + version", _path("path"), _version("version"))
_FINGERPRINT = wire.Schema("fingerprint", wire.opaque(32, "SHA-256"), scalar=True)
_CHUNK = wire.Schema(
    "chunk", wire.opaque(32, "fingerprint"), _data("data"), scalar=True
)


class Message:
    """Base class; each subclass declares its layout with ``@_message``,
    which derives its ``wire_size()``."""

    def touched_paths(self) -> Tuple[str, ...]:
        """Every path this message touches, in order: its ``path``, a
        :class:`MetaOp`'s ``dest``, and for a :class:`TxnGroup` those of
        each member; empty for a message that updates no file. (Not
        ``paths``: that is :class:`ResyncRequest`'s field.)"""
        members = getattr(self, "members", None)
        if members is not None:
            return tuple(path for member in members for path in member.touched_paths())
        path = getattr(self, "path", "")
        dest = getattr(self, "dest", None)
        if dest:
            return (path, dest) if path else (dest,)
        return (path,) if path else ()


def _apply_runs(message, base: Pages) -> Pages:
    """``base`` with every write run applied, in order."""
    for offset, data in message.runs:
        base = base.write(offset, data)
    return base


def _run_bytes(message) -> int:
    """Data bytes the write carries (what applying it is charged for)."""
    total = 0
    for _, data in message.runs:
        total += len(data)
    return total


@_message(
    _path("path"), _data("data"), _version("base_version"), _version("new_version")
)
class UploadFull(Message):
    """Full-content upload of one file (baselines, and first uploads)."""

    path: str
    data: bytes = field(repr=False)
    base_version: Optional[VersionStamp] = None
    new_version: Optional[VersionStamp] = None

    def apply_to(self, base: Pages) -> Pages:
        """The file after this update: ``data``, whatever it held."""
        return Pages(self.data)

    def data_bytes(self) -> int:
        return len(self.data)


@_message(
    _path("path"),
    wire.u64be("offset"),
    _data("data"),
    _version("base_version"),
    _version("new_version"),
)
class UploadWrite(Message):
    """NFS-like file RPC: one intercepted write (or a coalesced batch)."""

    path: str
    offset: int
    data: bytes = field(repr=False)
    base_version: Optional[VersionStamp] = None
    new_version: Optional[VersionStamp] = None

    @property
    def runs(self) -> Tuple[Tuple[int, bytes], ...]:
        """The write as a one-run batch (see :class:`UploadWriteBatch`)."""
        return ((self.offset, self.data),)

    apply_to = _apply_runs
    data_bytes = _run_bytes


@_message(
    _path("path"),
    wire.items("runs", _RUN, wire.u32be),
    _version("base_version"),
    _version("new_version"),
)
class UploadWriteBatch(Message):
    """A packed write node: several disjoint write runs, applied atomically.

    This is the Sync Queue's "batching" of writes to the same file
    (Section III-B): all runs share one base/new version pair because the
    node is versioned as a unit.
    """

    path: str
    runs: Sequence = ()  # of (offset, bytes)
    base_version: Optional[VersionStamp] = None
    new_version: Optional[VersionStamp] = None

    apply_to = _apply_runs
    data_bytes = _run_bytes


@_message(
    _path("path"),
    wire.u64be("length"),
    _version("base_version"),
    _version("new_version"),
)
class UploadTruncate(Message):
    """Propagate a truncate (WeChat journal pattern: ``truncate f_journal 0``)."""

    path: str
    length: int
    base_version: Optional[VersionStamp] = None
    new_version: Optional[VersionStamp] = None

    def apply_to(self, base: Pages) -> Pages:
        """``base`` cut, or zero-extended, to ``length``."""
        return base.truncate(self.length)

    def data_bytes(self) -> int:
        return 0


@_message(
    _path("path"),
    wire.nested("delta", Delta.WIRE),
    _version("base_version"),
    _version("new_version"),
    _version("content_base"),
)
class UploadDelta(Message):
    """A delta produced by (bitwise) rsync, applied server-side.

    ``base_version`` is the conflict-check version of the target path at
    the apply point; ``content_base`` names the old-version snapshot the
    delta's COPY instructions reference (the server keeps recent versions,
    Section III-C).
    """

    path: str
    delta: Delta
    base_version: Optional[VersionStamp] = None
    new_version: Optional[VersionStamp] = None
    content_base: Optional[VersionStamp] = None


@_message(
    wire.opaque(1, "op-kind tag", "kind"),
    _path("path"),
    wire.when_set("dest", _path("dest"), 1),
    _version("new_version"),
)
class MetaOp(Message):
    """A metadata operation: create/rename/link/unlink/mkdir/rmdir."""

    kind: str
    path: str
    dest: Optional[str] = None
    new_version: Optional[VersionStamp] = None


@_message(wire.items("members", wire.SIZED, wire.u32be))
class TxnGroup(Message):
    """A backindex span: member messages applied transactionally.

    Paper Section III-E: "All the operations covered by the backindex should
    be applied transactionally on the cloud."
    """

    members: Sequence[Message] = ()


@_message(
    _path("path"),
    wire.opaque(8, "block size + block count"),
    wire.times("block_count", 20, "weak + strong checksum"),
)
class SignatureMessage(Message):
    """Block-signature exchange for remote rsync (Dropbox protocol).

    ``block_count`` weak+strong pairs: 4 + 16 bytes each.
    """

    path: str
    block_count: int


@_message(_path("path"), wire.items("fingerprints", _FINGERPRINT, wire.u32be))
class ChunkHave(Message):
    """CDC fingerprint list (Seafile): client asks which chunks are new."""

    path: str
    fingerprints: Sequence[bytes] = ()


@_message(_path("path"), wire.items("chunks", _CHUNK, wire.u32be))
class ChunkData(Message):
    """Chunk payloads the server was missing (Seafile upload)."""

    path: str
    chunks: Sequence[bytes] = field(default=(), repr=False)


@_message(_path("path"), _version("version"))
class Ack(Message):
    """Server acknowledgement (optionally carrying the accepted version)."""

    path: str = ""
    version: Optional[VersionStamp] = None


@_message(_path("path"), _path("conflict_path"), _version("winning_version"))
class ConflictNotice(Message):
    """Server tells a client its update lost first-write-wins."""

    path: str
    conflict_path: str
    winning_version: Optional[VersionStamp] = None


@_message(_path("path"))
class HistoryRequest(Message):
    """Client asks for a path's restorable version list (Section III-C)."""

    path: str


@_message(_path("path"), wire.items("versions", VersionStamp.WIRE, wire.u32be))
class HistoryResponse(Message):
    """The restorable versions, oldest first."""

    path: str
    versions: Sequence[VersionStamp] = ()


@_message(_path("path"), _version("version"))
class RestoreRequest(Message):
    """Client asks the cloud to roll a path back to a recent version."""

    path: str
    version: Optional[VersionStamp] = None


@_message(_path("path"), _data("data"), _version("version"))
class FileDownload(Message):
    """Server-to-client file content (NFS cache refill, conflict recovery)."""

    path: str
    data: bytes = field(repr=False)
    version: Optional[VersionStamp] = None


@_message(wire.items("paths", _PATH, wire.u32be))
class ResyncRequest(Message):
    """Post-crash version renegotiation: which versions does the cloud hold?

    One metadata round trip replaces journaling every synced-version map
    update: the recovering client lists its local paths and learns the
    server's current ``<CliID, VerCnt>`` per path, so post-recovery writes
    name bases the cloud holds and the sweep knows which files it can
    repair from.
    """

    paths: Sequence[str] = ()


@_message(wire.items("versions", _PATH_VERSION, wire.u32be))
class ResyncReply(Message):
    """The server's current version per requested path (None = absent)."""

    versions: Sequence = ()  # of (path, Optional[VersionStamp])


@_message(_path("path"), wire.u64be("offset"), wire.u64be("length"))
class RangeRequest(Message):
    """Client asks for one byte range of a file (bounded crash repair)."""

    path: str
    offset: int
    length: int


@_message(_path("path"), wire.u64be("offset"), _data("data"), _version("version"))
class RangeReply(Message):
    """The requested range's bytes — the whole point of bounded recovery:
    only the damaged span travels, never the whole file."""

    path: str
    offset: int
    data: bytes = field(repr=False)
    version: Optional[VersionStamp] = None


@_message(
    wire.u64be("msg_id"),
    wire.u16be("attempt"),
    wire.nested("inner", wire.SIZED),
)
class Envelope(Message):
    """Reliable-delivery wrapper for one uplink message.

    ``msg_id`` is a per-client monotonic id (from 1); ``attempt`` counts
    transmissions of the same id (1 = first send). The server deduplicates
    by ``(origin_client, msg_id)``, which is what turns the at-least-once
    retransmit loop into exactly-once application.
    """

    msg_id: int
    attempt: int
    inner: Message = field(default=None)  # type: ignore[assignment]


@_message(
    wire.u64be("ack_of"),
    wire.flag("duplicate"),
    wire.items("replies", wire.SIZED),
    wire.u64be("through"),
)
class EnvelopeAck(Message):
    """Downlink acknowledgement of one :class:`Envelope`.

    Carries the server's replies for the acknowledged message (``Ack`` /
    ``ConflictNotice``), so a retransmitted message whose first ack was
    lost still gets its replies delivered. ``duplicate`` marks acks
    produced by the server's dedup table rather than a fresh apply.

    ``through`` is cumulative: the receiver has applied that msg id and
    every id below it, and the sender retires them all. It never passes an
    envelope whose replies hold more than plain ``Ack`` s while the apply
    side can still answer a retransmit of it, so such replies arrive only
    in the envelope's own ack.
    """

    ack_of: int
    replies: Sequence[Message] = ()
    duplicate: bool = False
    through: int = 0


_MSG_ID = wire.Schema("msg id", wire.u64be("msg_id"), scalar=True)


@_message(wire.items("held", _MSG_ID, wire.u32be), wire.u64be("through"))
class EnvelopeSack(Message):
    """Downlink selective ack: the envelopes the receiver holds, unapplied.

    Sent once per delivery round that leaves envelopes parked behind a
    gap in the msg-id sequence. For ``held`` it says "received", not
    "applied": the sender suspends those envelopes' retransmit timers and
    never retires one of them here. ``through`` is the same cumulative
    "applied" mark an :class:`EnvelopeAck` carries, always below the gap,
    and retires what it covers.
    """

    held: Sequence[int] = ()
    through: int = 0


@_message(wire.u32be("origin_client"), wire.nested("inner", wire.SIZED))
class Forward(Message):
    """Cloud-to-client fan-out of another client's incremental data.

    Paper Section III-D: the cloud forwards the same incremental data to
    other shared clients "without additional computation".
    """

    origin_client: int
    inner: Message = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        # The cloud hands one Forward to every recipient's download, so it
        # is sized once, here, by its layout, and ``wire_size()`` answers
        # that figure. Only a Forward caches its size: other messages'
        # ``Sequence`` fields (``paths``, ``members``) may be lists.
        size = self.WIRE.size(self)
        object.__setattr__(self, "wire_size", lambda: size)

