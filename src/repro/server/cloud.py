"""The DeltaCFS cloud server.

Applies incremental data to versioned files, reconciles concurrent updates
with first-write-wins, applies backindex groups transactionally, and
forwards accepted incremental data verbatim to other clients sharing the
namespace (Section III-D — "client B is virtually equivalent to the
cloud").

What an update touches, carries and does to bytes is stated on the message
(:mod:`repro.net.messages`); the server only chooses the starting content:
the path's current content to apply an update, the ``base_version``
snapshot to rebuild a loser's conflict copy, and for a delta, always, its
``content_base`` snapshot ("servers keep recent versions of files, the
incremental data can still be applied to the proper file", Section III-C).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.conflict import conflict_path
from repro.common.pages import EMPTY, Pages
from repro.common.version import VersionStamp
from repro.cost.meter import CostMeter, NULL_METER
from repro.delta.patch import apply_delta
from repro.net.messages import (
    Ack,
    ConflictNotice,
    Envelope,
    FileDownload,
    Forward,
    HistoryRequest,
    HistoryResponse,
    Message,
    MetaOp,
    RangeReply,
    RangeRequest,
    ResyncReply,
    ResyncRequest,
    RestoreRequest,
    TxnGroup,
    UploadDelta,
    UploadFull,
)
from repro.obs import NULL_OBS, Observability
from repro.server.storage import VersionedStore


@dataclass
class ApplyResult:
    """Outcome of applying one message (or group)."""

    status: str  # "applied" | "conflict"
    path: str = ""
    version: Optional[VersionStamp] = None
    conflict_paths: List[str] = field(default_factory=list)
    replies: List[Message] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "applied"


@dataclass(frozen=True)
class Outcome:
    """What ``CloudServer.apply_log`` keeps of one apply: its status. One
    shared value per status, so the log holds no reply, ack or conflict
    list — nothing the cyclic collector has to walk."""

    status: str
    ok: bool


APPLIED = Outcome("applied", True)
CONFLICT = Outcome("conflict", False)


# A forward sink receives (origin_client_id, message) for fan-out.
ForwardSink = Callable[[int, Message], None]


class CloudServer:
    """Message application endpoint.

    Args:
        meter: server-side CPU meter (the Table II "Server" columns).
        store: the versioned backing store (created if not given).
    """

    def __init__(
        self,
        *,
        meter: CostMeter = NULL_METER,
        store: VersionedStore | None = None,
        obs: Observability = NULL_OBS,
    ):
        self.meter = meter
        self.obs = obs
        # Shard identity: 0 for a standalone server; the ShardRouter
        # renumbers its members. Stamped on envelope witness events so
        # the shard-home invariant can audit dedup placement.
        self.shard_id = 0
        self.store = store if store is not None else VersionedStore()
        self.dirs: Set[str] = {"/"}
        self._sinks: Dict[int, ForwardSink] = {}
        self._shares: Dict[int, Tuple[str, ...]] = {}
        # Fan-out index: normalized share prefix -> insertion-ordered set of
        # subscriber ids (dict used as an ordered set). Forwarding walks the
        # touched path's ancestor chain instead of every registered sink,
        # which is what keeps a 10^4-client fleet out of O(clients^2).
        self._share_index: Dict[str, Dict[int, None]] = {}
        # Registration sequence per client: candidate sinks gathered from
        # several index buckets are replayed in registration order so the
        # fan-out order is identical to the pre-index full scan.
        self._reg_seq: Dict[int, int] = {}
        self._reg_counter = 0
        self.apply_log: List[Outcome] = []
        # Order in which paths reached their current content — used by the
        # causal-ordering reliability test (Table IV "Causal" column).
        self.upload_order: List[str] = []
        # Reliable-delivery dedup: (origin_client, msg_id) -> cached replies.
        # Bounded per client; the transport's in-flight window is far
        # smaller, so evicted ids can no longer be retransmitted.
        self._dedup: Dict[int, "OrderedDict[int, Tuple[Message, ...]]"] = {}
        self.dedup_window = 4096
        self.dedup_drops = 0

    # -- client registry (multi-client sync) --------------------------------

    def register_client(
        self,
        client_id: int,
        sink: ForwardSink,
        *,
        shares: Tuple[str, ...] = ("/",),
    ) -> None:
        """Attach a client; it receives forwards of others' updates.

        ``shares`` lists the path prefixes this client subscribes to —
        Section III-D's sharing is selective ("if this client A also
        shares these files with another client B"). The default subscribes
        to everything, matching a whole-account sync folder.
        """
        if client_id in self._sinks:
            # Re-registration replaces the previous subscription in place.
            self._drop_registration(client_id)
        self._sinks[client_id] = sink
        self._shares[client_id] = shares
        self._reg_seq[client_id] = self._reg_counter
        self._reg_counter += 1
        for prefix in shares:
            bucket = self._share_index.setdefault(self._norm_prefix(prefix), {})
            bucket[client_id] = None

    def unregister_client(self, client_id: int) -> None:
        """Detach a client and drop all its per-session server state.

        Besides the fan-out sink and shares this releases the client's
        reliable-delivery dedup window — under churn (the fleet driver
        registers and retires thousands of clients) keeping those
        OrderedDicts alive leaks memory proportional to every client that
        ever connected. A client that comes back after unregistering
        starts a fresh dedup window, and its transport's msg ids from 1.
        A *restarted* client does not unregister: re-registration keeps the
        window, which is how recovery learns what landed.
        """
        self._drop_registration(client_id)
        self._dedup.pop(client_id, None)

    def _drop_registration(self, client_id: int) -> None:
        """Remove the fan-out subscription only (keeps dedup state).

        Used by re-registration and by the shard router when narrowing a
        client's shard set — neither of which should forget which msg_ids
        were already applied.
        """
        self._sinks.pop(client_id, None)
        self._reg_seq.pop(client_id, None)
        for prefix in self._shares.pop(client_id, ()):
            norm = self._norm_prefix(prefix)
            bucket = self._share_index.get(norm)
            if bucket is not None:
                bucket.pop(client_id, None)
                if not bucket:
                    del self._share_index[norm]

    def last_msg_id(self, client_id: int) -> int:
        """The high-water mark of ``client_id``'s dedup window: the last
        msg id applied (0 if none). Envelopes apply in msg-id order, so
        every id up to it landed and none after it did."""
        return next(reversed(self._dedup.get(client_id, ())), 0)

    def dedup_window_of(self, client_id: int) -> int:
        """How many of ``client_id``'s latest applied envelopes the
        exactly-once window can still answer a retransmit of."""
        return self.dedup_window

    @staticmethod
    def _norm_prefix(prefix: str) -> str:
        return prefix.rstrip("/") or "/"

    # -- entry point ---------------------------------------------------------

    def handle(self, message: Message, origin_client: int = 0) -> ApplyResult:
        """Apply one message from ``origin_client``; fan out on success."""
        kind = type(message).__name__
        with self.obs.span("server.apply", type=kind, origin=origin_client):
            if isinstance(message, TxnGroup):
                self.obs.inc("server.apply.groups")
                result = self._apply_group(message, origin_client)
            else:
                result = self._apply_one(message, {})
            self.apply_log.append(APPLIED if result.ok else CONFLICT)
            if self.obs.enabled:
                if result.ok:
                    self.obs.inc("server.apply.applied", type=kind)
                    self._note_accepted_versions(message)
                else:
                    self.obs.inc("server.apply.conflicts")
                    self.obs.event(
                        "server.conflict",
                        path=result.path,
                        conflict_path=result.conflict_paths[0]
                        if result.conflict_paths
                        else "",
                    )
            if result.ok:
                self._forward(message, origin_client)
        return result

    def handle_envelope(
        self, envelope: Envelope, origin_client: int = 0
    ) -> Tuple[List[Message], bool]:
        """Apply one reliable-delivery envelope exactly once.

        Returns ``(replies, duplicate)``. A retransmit of an already-applied
        ``msg_id`` is absorbed by the dedup table: the cached replies are
        returned verbatim (so a lost first ack is recoverable) and nothing
        touches the store — in particular the base-version conflict check
        never runs again, so a duplicate cannot misfire as a conflict.
        """
        return self.deliver_once(envelope, origin_client, self.handle)

    def deliver_once(
        self,
        envelope: Envelope,
        origin_client: int,
        apply: Callable[[Message, int], ApplyResult],
        home: Optional[int] = None,
    ) -> Tuple[List[Message], bool]:
        """Look the envelope up in this server's dedup window, else apply it.

        The one exactly-once window: ``apply`` is this server's own
        :meth:`handle`, or the shard router's when this server is the
        client's home shard (``home`` is then the router's derivation of
        that shard's index, stamped on the witness event).
        """
        cache = self._dedup.setdefault(origin_client, OrderedDict())
        cached = cache.get(envelope.msg_id)
        if cached is not None:
            self.dedup_drops += 1
            if self.obs.enabled:
                self.obs.inc("server.dedup.drops")
                self._note_envelope(
                    envelope, origin_client, duplicate=True, home=home
                )
            return list(cached), True
        if self.obs.enabled:
            self._note_envelope(
                envelope, origin_client, duplicate=False, home=home
            )
        result = apply(envelope.inner, origin_client)
        cache[envelope.msg_id] = tuple(result.replies)
        while len(cache) > self.dedup_window:
            cache.popitem(last=False)
        return list(result.replies), False

    # -- transactional groups -------------------------------------------------

    def _apply_group(self, group: TxnGroup, origin_client: int) -> ApplyResult:
        """Apply members atomically: any conflict rolls back all of them.

        "if one file in this atomic operation has conflict, we label all
        the files in this operation as conflict" (Section III-E).

        Rollback is exact for every touched path — same ``StoredFile``
        object (hard links keep sharing it), content, version, history and
        ``dirs`` membership as before the group. Only the conflict copies
        are added; ``upload_order`` keeps the members' entries and the
        version window their stamps, which no rolled-back path's history
        lists (a stamp the group pushed out of the window stays out).
        """
        saved = {
            path: (self.store.save_entry(path), path in self.dirs)
            for path in group.touched_paths()
        }

        placed: Dict[str, Set[Optional[VersionStamp]]] = {}
        results: List[ApplyResult] = []
        failed = False
        for member in group.members:
            result = self._apply_one(member, placed)
            results.append(result)
            if not result.ok:
                failed = True
                break

        if not failed:
            versions = [r.version for r in results if r.version is not None]
            return ApplyResult(
                status="applied",
                path=results[-1].path if results else "",
                version=versions[-1] if versions else None,
                replies=[Ack(path=r.path, version=r.version) for r in results],
            )

        # Roll back and materialize every incremental member as a conflict.
        for path, (entry, was_dir) in saved.items():
            self.store.restore_entry(path, entry)
            if was_dir:
                self.dirs.add(path)
            else:
                self.dirs.discard(path)
        conflicts: List[str] = []
        replies: List[Message] = []
        for member in group.members:
            copy = self._materialize_conflict(member)
            if copy is not None:
                conflicts.append(copy)
                replies.append(
                    ConflictNotice(
                        path=member.path,
                        conflict_path=copy,
                        winning_version=self._current_version(member.path),
                    )
                )
        return ApplyResult(
            status="conflict",
            path=group.members[0].path if group.members else "",
            conflict_paths=conflicts,
            replies=replies,
        )

    # -- single-message application -------------------------------------------

    def _apply_one(
        self,
        message: Message,
        placed: Dict[str, Set[Optional[VersionStamp]]],
    ) -> ApplyResult:
        if isinstance(message, MetaOp):
            return self._apply_meta(message, placed)
        if not hasattr(message, "base_version"):  # not an upload kind
            raise TypeError(f"server cannot apply {type(message).__name__}")
        return self._apply_incremental(message, placed)

    def _apply_meta(
        self, op: MetaOp, placed: Dict[str, Set[Optional[VersionStamp]]]
    ) -> ApplyResult:
        if op.kind == "create":
            self.store.put(op.path, EMPTY, op.new_version)
            self._mark_placed(placed, op.path, op.new_version)
            self._note_upload(op.path)
        elif op.kind == "mkdir":
            self.dirs.add(op.path)
        elif op.kind == "rmdir":
            self.dirs.discard(op.path)
        elif op.kind == "rename":
            if self.store.exists(op.path):
                self.store.rename(op.path, op.dest)
                moved = self.store.get(op.dest)
                self._mark_placed(placed, op.dest, moved.version)
                self._note_upload(op.dest)
        elif op.kind == "link":
            if self.store.exists(op.path):
                self.store.copy(op.path, op.dest)
                self._mark_placed(placed, op.dest, self.store.get(op.dest).version)
        elif op.kind == "unlink":
            if self.store.exists(op.path):
                self.store.delete(op.path)
        else:
            raise ValueError(f"unknown meta op kind {op.kind!r}")
        return ApplyResult(status="applied", path=op.path, version=op.new_version)

    def _apply_incremental(
        self,
        message,
        placed: Dict[str, Set[Optional[VersionStamp]]],
    ) -> ApplyResult:
        """Apply any upload kind: conflict-check against ``base_version``,
        take its effect on the path's current content, store the result."""
        path = message.path
        if not self._base_ok(path, message.base_version, placed):
            return self._lone_conflict(message)
        stored = self.store.lookup(path)
        new_content = self._effect(
            message, stored.pages if stored is not None else EMPTY, charge=True
        )
        if new_content is None:
            return self._lone_conflict(message)
        self.store.put(path, new_content, message.new_version)
        self._note_upload(path)
        return ApplyResult(
            status="applied",
            path=path,
            version=message.new_version,
            replies=[Ack(path=path, version=message.new_version)],
        )

    def _effect(
        self, message, base: Optional[Pages], *, charge: bool
    ) -> Optional[Pages]:
        """What ``message`` makes of ``base``; ``None`` when its starting
        content aged out of the snapshot window.

        A delta's COPY instructions read the ``content_base`` snapshot, not
        ``base`` (the preserved old version — possibly renamed away or
        overwritten in the namespace by now, which is exactly why the
        snapshot window exists), and ``apply_delta`` meters itself; the
        other kinds are charged their data bytes when ``charge`` is set
        (an apply, not a conflict copy).
        """
        if base is None:
            return None
        if isinstance(message, UploadDelta):
            base = self._snapshot_or_none(message.content_base)
            if base is None:
                return None
            return Pages(apply_delta(bytes(base), message.delta, meter=self.meter))
        content = message.apply_to(base)
        if charge:
            self.meter.charge_bytes("apply_delta", message.data_bytes())
        return content

    # -- conflict machinery ------------------------------------------------

    def _base_ok(
        self,
        path: str,
        base_version: Optional[VersionStamp],
        placed: Dict[str, Set[Optional[VersionStamp]]],
    ) -> bool:
        stored = self.store.lookup(path)
        if stored is None:
            return base_version is None or self._snapshot_or_none(base_version) is not None
        if stored.version == base_version:
            return True
        return stored.version in placed.get(path, set())

    def _lone_conflict(self, message) -> ApplyResult:
        copy = self._materialize_conflict(message)
        path = message.path
        notice = ConflictNotice(
            path=path,
            conflict_path=copy or "",
            winning_version=self._current_version(path),
        )
        return ApplyResult(
            status="conflict",
            path=path,
            conflict_paths=[copy] if copy else [],
            replies=[notice],
        )

    def _materialize_conflict(self, message) -> Optional[str]:
        """Rebuild the losing content from its base snapshot + increment."""
        if isinstance(message, MetaOp):
            return None
        content = self._effect(
            message, self._snapshot_or_none(message.base_version), charge=False
        )
        if content is None:
            return None  # base aged out of the snapshot window
        version = message.new_version or VersionStamp(0, 0)
        copy = conflict_path(message.path, version)
        self.store.put(copy, content, version)
        return copy

    # -- helpers ---------------------------------------------------------------

    def _note_envelope(
        self,
        envelope: Envelope,
        origin_client: int,
        *,
        duplicate: bool,
        home: Optional[int] = None,
    ) -> None:
        """Witness event for the invariant layer.

        ``home`` is the *router's* derivation of the client's home shard
        — an independent source the shard-home invariant diffs against
        this server's own ``shard_id``. A standalone server is its own
        home.
        """
        self.obs.event(
            "server.envelope",
            client=origin_client,
            msg_id=envelope.msg_id,
            attempt=envelope.attempt,
            duplicate=duplicate,
            shard=self.shard_id,
            home=self.shard_id if home is None else home,
        )

    def _note_accepted_versions(self, message: Message) -> None:
        """Trace every minted stamp the store just accepted.

        One event per member carrying a ``new_version`` — the witness
        stream the per-client version-monotonicity invariant
        (``repro.check.invariants``) is evaluated against.
        """
        members = message.members if isinstance(message, TxnGroup) else (message,)
        for member in members:
            version = getattr(member, "new_version", None)
            if version is None:
                continue
            self.obs.event(
                "server.version.accepted",
                path=member.path,
                client=version.client_id,
                counter=version.counter,
            )

    def _forward(self, message: Message, origin_client: int) -> None:
        paths = message.touched_paths()
        if paths:
            candidates: Set[int] = set()
            for path in paths:
                for prefix in self._ancestor_prefixes(path):
                    bucket = self._share_index.get(prefix)
                    if bucket:
                        candidates.update(bucket)
            candidates.discard(origin_client)
            if not candidates:
                return
            recipients = sorted(candidates, key=self._reg_seq.__getitem__)
        else:
            # A path-less message is broadcast (matches the pre-index scan,
            # where no path meant no filter could exclude anyone).
            recipients = [cid for cid in self._sinks if cid != origin_client]
        # One frozen Forward for every recipient (§III-D: the same data,
        # no additional computation); each sink pays only its own apply.
        forward = Forward(origin_client=origin_client, inner=message)
        for client_id in recipients:
            self.obs.inc("server.forwards.sent")
            self._sinks[client_id](origin_client, forward)

    @staticmethod
    def _ancestor_prefixes(path: str) -> List[str]:
        """``/a/b/c`` -> ``['/a/b/c', '/a/b', '/a', '/']``.

        A share prefix matches exactly when it is one of these, so index
        lookup is O(path depth) instead of O(registered clients).
        """
        out = [path]
        cursor = path
        while True:
            cut = cursor.rfind("/")
            if cut <= 0:
                break
            cursor = cursor[:cut]
            out.append(cursor)
        if path != "/":
            out.append("/")
        return out

    def _current_version(self, path: str) -> Optional[VersionStamp]:
        stored = self.store.lookup(path)
        return stored.version if stored is not None else None

    def _snapshot_or_none(self, version: Optional[VersionStamp]) -> Optional[Pages]:
        if version is None:
            return EMPTY
        return self.store.snapshot(version)

    def _mark_placed(
        self,
        placed: Dict[str, Set[Optional[VersionStamp]]],
        path: str,
        version: Optional[VersionStamp],
    ) -> None:
        placed.setdefault(path, set()).add(version)

    def _note_upload(self, path: str) -> None:
        self.upload_order.append(path)

    # -- fine-grained version control (Section III-C) ------------------------

    def version_history(self, path: str) -> List[VersionStamp]:
        """Restorable versions of ``path``, oldest first."""
        return self.store.history(path)

    def restore_version(
        self,
        path: str,
        version: VersionStamp,
        *,
        as_version: Optional[VersionStamp] = None,
        origin_client: int = 0,
    ) -> bytes:
        """Roll ``path`` back to a recent ``version``.

        Restoring is itself an update: the old content becomes the new
        head under ``as_version`` (defaults to re-using ``version``) and
        fans out to shared clients like any other change. Raises
        ``NotFoundError`` if the version aged out of the snapshot window.
        """
        from repro.common.errors import NotFoundError

        snapshot = self.store.snapshot(version)
        if snapshot is None:
            raise NotFoundError(f"version {version} of {path} is not restorable")
        new_version = as_version if as_version is not None else version
        self.store.put(path, snapshot, new_version)
        self._note_upload(path)
        content = bytes(snapshot)
        message = UploadFull(
            path=path, data=content, base_version=None, new_version=new_version
        )
        self._forward(message, origin_client)
        return content

    # -- read-style RPCs (a client's ``call``) ---------------------------------

    def answer(self, request: Message, origin_client: int = 0) -> Message:
        """The reply to one read-style request from ``origin_client``.

        A restore is itself an update and fans out (:meth:`restore_version`);
        the other three read. A range is clipped to the file end, and an
        absent path answers ``version=None`` with no bytes, as a resync
        does.
        """
        if isinstance(request, RangeRequest):
            stored = self.store.lookup(request.path)
            if stored is None:
                return RangeReply(path=request.path, offset=request.offset, data=b"")
            return RangeReply(
                path=request.path,
                offset=request.offset,
                data=stored.pages.read(request.offset, request.length),
                version=stored.version,
            )
        if isinstance(request, ResyncRequest):
            return ResyncReply(
                versions=tuple(
                    (path, self._current_version(path)) for path in request.paths
                )
            )
        if isinstance(request, HistoryRequest):
            return HistoryResponse(
                path=request.path, versions=tuple(self.version_history(request.path))
            )
        if isinstance(request, RestoreRequest):
            content = self.restore_version(
                request.path, request.version, origin_client=origin_client
            )
            return FileDownload(
                path=request.path, data=content, version=request.version
            )
        raise TypeError(f"server cannot answer {type(request).__name__}")

    # -- read access for tests ---------------------------------------------------

    def file_content(self, path: str) -> bytes:
        """Current content of ``path`` (raises if absent)."""
        return self.store.get(path).content

    def file_version(self, path: str) -> Optional[VersionStamp]:
        """Current version of ``path`` (raises if absent)."""
        return self.store.get(path).version
