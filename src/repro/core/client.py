"""The DeltaCFS client engine — the paper's primary contribution.

A :class:`DeltaCFSClient` is a :class:`PassthroughFileSystem` layer (the
FUSE position in Figure 4). Every file operation is intercepted, forwarded
to the backing store, and — when it mutates state — fed into the sync
pipeline:

- writes coalesce into Sync Queue *write nodes* (NFS-like file RPC, the
  default path);
- rename/unlink maintain the Relation Table; a create/rename that matches a
  live relation entry (or lands on an existing name) marks a *transactional
  update* and triggers local **bitwise delta encoding**, whose result
  replaces the pending write nodes under a backindex span;
- a large in-place update is compressed the same way at pack time, against
  the old version its write node holds (the paper's undo log);
- the Checksum Store is maintained inline and verified on reads.

:meth:`pump` drives time-dependent behaviour (relation expiry, upload
delay) and ships due Sync Queue units to the cloud. Everything the client
learns of the cloud crosses its one link (:mod:`repro.net.link`) as a
charged message: updates by ``send``, reads by ``call``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.clock import VirtualClock
from repro.common.config import TMP_DIR, DeltaCFSConfig
from repro.common.errors import (
    CorruptionDetected,
    NoSpaceError,
    NotFoundError,
)
from repro.core.checksum_store import ChecksumStore
from repro.core.recovery import (
    RecoveryReport,
    SyncJournal,
    perform_recovery,
    repair,
)
from repro.core.relation_table import RelationEntry, RelationTable
from repro.core.sync_queue import (
    DeltaNode,
    MetaNode,
    QueueNode,
    SyncQueue,
    TruncateNode,
    UploadUnit,
    WriteNode,
)
from repro.common.version import VersionCounter, VersionStamp
from repro.core.policy import MechanismPlan, UpdateStats, make_policy
from repro.cost.meter import CostMeter, NULL_METER
from repro.cost.profile import PC_PROFILE
from repro.delta.format import Delta
from repro.delta.patch import apply_delta
from repro.net.link import TO_THE_END, DirectLink
from repro.net.messages import (
    ConflictNotice,
    Forward,
    HistoryRequest,
    Message,
    MetaOp,
    RangeRequest,
    RestoreRequest,
    TxnGroup,
    UploadDelta,
    UploadFull,
    UploadTruncate,
    UploadWrite,
    UploadWriteBatch,
)
from repro.net.reliable import ReliableTransport
from repro.net.transport import Channel
from repro.obs import NULL_OBS, Observability
from repro.vfs.filesystem import FileSystemAPI
from repro.vfs.interception import PassthroughFileSystem

#: A packed write node whose writes (and truncate cut) rewrote more than this
#: fraction of its base is delta-encoded against it (Section III-A: "more
#: than 50%").
INPLACE_DELTA_THRESHOLD = 0.5
#: Files larger than this are deleted on unlink, not preserved for a later
#: delta (the paper's ENOSPC escape hatch, expressed as a cap).
PRESERVE_UNLINKED_MAX_BYTES = 1 << 30
_TMP_PREFIX = TMP_DIR + "/"


@dataclass
class ClientStats:
    """Counters a client accumulates while running."""

    ops_intercepted: int = 0
    writes_intercepted: int = 0
    bytes_written: int = 0
    deltas_triggered: int = 0
    deltas_kept: int = 0  # triggered AND judged worthwhile
    inplace_deltas: int = 0
    nodes_uploaded: int = 0
    groups_uploaded: int = 0
    conflicts: int = 0
    corruptions_detected: int = 0
    recoveries: int = 0
    forwards_applied: int = 0


class DeltaCFSClient(PassthroughFileSystem):
    """The adaptive sync client.

    Args:
        inner: the backing (local) file system.
        server: the cloud endpoint (a ``CloudServer`` or ``ShardRouter``)
            the client's direct link applies to; the client itself keeps
            no reference to it.
        channel: accounting channel to the server.
        client_id: this device's id for ``<CliID, VerCnt>`` stamps.
        config: tunables (block size, delays, mechanism policy).
        clock: virtual time source shared with the workload driver.
        meter: client-side CPU meter.
        obs: observability hub (metrics + tracing); defaults to the no-op
            ``NULL_OBS`` so uninstrumented runs are unperturbed.
        transport: optional :class:`ReliableTransport`. When set, it is
            the client's link: upload units go through its envelope/ack/
            retry machinery instead of a synchronous
            :class:`~repro.net.link.DirectLink` over ``channel`` — required
            when the channel is lossy. ``transport`` stays the handle to
            its stats (``None`` on a direct link).
        journal_kv: optional KV store backing the crash-recovery journal.
            When set, sync intent (pending queue nodes, relation entries,
            the version counter) is journaled as operations
            are intercepted, and :meth:`recover` can rebuild the volatile
            state after a crash. Pair with a ``LogStructuredKV`` opened in
            ``sync=True`` mode for real power-cut durability.
        shares: share prefixes to register with the server (Section
            III-D selective sharing). ``None`` subscribes to everything
            (``("/",)``); fleet-scale harnesses pass
            the client's own namespace so a sharded server can scope the
            registration to one shard instead of all of them.
    """

    def __init__(
        self,
        inner: FileSystemAPI,
        *,
        server,
        channel: Optional[Channel] = None,
        client_id: int = 1,
        config: Optional[DeltaCFSConfig] = None,
        clock: Optional[VirtualClock] = None,
        meter: CostMeter = NULL_METER,
        obs: Observability = NULL_OBS,
        checksum_kv=None,
        transport: Optional[ReliableTransport] = None,
        journal_kv=None,
        shares: Optional[Tuple[str, ...]] = None,
    ):
        super().__init__(inner)
        self.config = config if config is not None else DeltaCFSConfig()
        self.config.validate()
        self.channel = channel if channel is not None else Channel()
        self.transport = transport
        self._link = (
            transport if transport is not None
            else DirectLink(self.channel, server, client_id)
        )
        self._link.on_reply = self._note_conflicts
        self._link.on_ack = self._envelope_acked
        self.client_id = client_id
        self.clock = clock if clock is not None else VirtualClock()
        self.meter = meter
        self.obs = obs
        # Mechanism selection: which encoder a triggered delta uses and
        # whether encoding is attempted at all (see repro.core.policy).
        # The default ("static" over "bitwise") reproduces the paper's
        # hard-coded trigger bit-for-bit.
        self.policy = make_policy(
            self.config.sync_policy,
            self.config.delta_backend,
            block_size=self.config.block_size,
            profile=getattr(meter, "profile", PC_PROFILE),
            obs=obs,
        )

        self.relations = RelationTable(
            timeout=self.config.relation_timeout, obs=obs
        )
        self.queue = SyncQueue(upload_delay=self.config.upload_delay, obs=obs)
        self.versions: Dict[str, Optional[VersionStamp]] = {}
        self._counter = VersionCounter(client_id)
        # checksum_kv lets callers back the checksum store with a durable
        # KV (repro.kvstore.LogStructuredKV — the LevelDB role): that is
        # what makes the post-crash sweep possible after a real restart.
        self.checksums: Optional[ChecksumStore] = (
            ChecksumStore(checksum_kv, meter=meter)
            if self.config.enable_checksums
            else None
        )
        self.journal: Optional[SyncJournal] = (
            SyncJournal(journal_kv, obs=obs) if journal_kv is not None else None
        )
        if self.journal is not None:
            self.queue.on_spans = self.journal.record_spans
        self.stats = ClientStats()
        # Versions whose nodes were removed from the queue before upload
        # (cancelled creates, delta-replaced writes): the server will never
        # snapshot them, so they can never serve as a delta's content base.
        self._dead_versions: set = set()
        # Paths created while a relation entry matched — their delta runs
        # when the write node packs (content is complete by then).
        self._pending_create_delta: Dict[str, RelationEntry] = {}
        self.conflict_notices: List[ConflictNotice] = []
        # Nodes of the journaled envelopes in flight, by msg_id, until the ack.
        self._unacked: Dict[int, List[QueueNode]] = {}
        self.shares = shares if shares is not None else ("/",)
        self._link.subscribe(self._receive_forward, self.shares)

    # ------------------------------------------------------------------
    # file operations (the FUSE surface)
    # ------------------------------------------------------------------
    # Each op first asks the backing store for the canonical spelling of
    # its names (a bound name is returned as is): the queue, version map,
    # relation table, checksums and messages see one name per file, and
    # the store's own lookups below are plain key hits.

    def create(self, path: str) -> None:
        path = self.inner.canonical(path)
        now = self._tick()
        existed = self.inner.exists(path)
        self.inner.create(path)
        if self._unsynced(path) or existed:
            return
        entry = self._match_relation(path, now)
        if entry is not None and self.inner.exists(entry.dst):
            # Content arrives via later writes; encode at pack time.
            self._pending_create_delta[path] = entry
        version = self._mint()
        self.versions[path] = version
        self._enqueue_meta("create", path, None, new_version=version, now=now)

    def write(self, path: str, offset: int, data: bytes) -> None:
        # write(2) semantics: the bytes are the buffer's when the call is
        # made; a caller may reuse it as soon as it returns. One snapshot,
        # free for ``bytes``, that the store and the queued node then share.
        data = bytes(data)
        path = self.inner.canonical(path)
        if not data:
            # write(2) with count 0 changes nothing. Forwarded, the backing
            # store would zero-fill a gap past EOF that no shipped run
            # carries, and the replicas would silently diverge.
            self.inner.stat(path)  # a missing path still raises
            return
        now = self._tick()
        if self._unsynced(path):
            self.inner.write(path, offset, data)
            return
        self.stats.writes_intercepted += 1
        self.stats.bytes_written += len(data)
        self.obs.inc("client.writes.intercepted")
        self.obs.inc("client.write.bytes", len(data))
        # NFS-like file RPC: the written bytes are captured here, for free.
        self.meter.charge_bytes("write_io", len(data))

        names = self.inner.linked_paths(path)
        node = self._write_node_of(path, names)
        old_size = self.inner.size(path)
        base = None
        if self.config.enable_undo_log:
            # The paper's undo log copies out the bytes about to be overwritten
            # (memcpy rate, Section III-A); here the node's base is a reference.
            if offset < old_size:
                self.meter.charge_bytes("write_io", min(len(data), old_size - offset))
            if node is None:
                base = self.inner.content(path)

        self.inner.write(path, offset, data)

        # Writing to a preserved old version invalidates its relations.
        self._journal_forget_relations(self.relations.invalidate_dst(path))

        if node is None:
            node = WriteNode(
                path=path, base_version=self.versions.get(path),
                new_version=self._mint(), base=base,
            )
            self.queue.enqueue(node, now)
        else:
            self.queue.note_mutation(node)
            self.queue.note_coalesced(node, offset, len(data))
            # The upload delay debounces from the *last* write: an active
            # node keeps coalescing while the application is still writing
            # (Figure 6's delay gives delta replacement its window).
            node.enqueue_time = now
        node.add_write(offset, data)
        # A new node is journaled whole; a coalesced write is journaled
        # alone, so a file written in n pieces journals its bytes once.
        if self.journal is not None:
            if len(node.writes) == 1:
                self.journal.record_node(node)
            else:
                self.journal.record_write(node)

        # Past EOF the store zero-filled [old_size, offset): the old partial
        # tail block and the gap's blocks changed as well.
        changed = min(offset, old_size)
        self._file_changed(
            path, node.new_version, names, changed, offset + len(data) - changed
        )

    def _write_node_of(self, path: str, names: List[str]) -> Optional[WriteNode]:
        """The file's active write node, under whichever of its ``names`` it
        was opened: one write node per file."""
        node = self.queue.active_write_node(path)
        if node is None and len(names) > 1:
            node = next(filter(None, map(self.queue.active_write_node, names)), None)
        return node

    def _file_changed(
        self,
        path: str,
        version: Optional[VersionStamp],
        names: Optional[List[str]] = None,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> None:
        """``path``'s file changed bytes or stamp: every one of its ``names``
        takes ``version``, tmp-area names too (a preserved copy is the base a
        relation's delta names), and every synced one the checksums of
        ``[offset, offset+length)`` — the whole file when ``length`` is
        ``None``, none when 0 — computed once."""
        if names is None:
            try:
                names = self.inner.linked_paths(path)
            except NotFoundError:  # a forwarded unlink, or a directory
                return
        for name in names:
            self.versions[name] = version
        if self.checksums is None or length == 0:
            return
        if len(names) > 1:
            names = [name for name in names if not self._unsynced(name)]
        if length is None:
            self.checksums.reindex(names, self.inner.read_file(path))
        else:
            start, span = self._checksummed_span(path, offset, length)
            self.checksums.update_blocks(names, span, offset, length, start=start)

    def _checksummed_span(
        self, path: str, offset: int, length: Optional[int]
    ) -> Tuple[int, bytes]:
        """Where the blocks covering ``[offset, offset+length)`` start, and
        their bytes: all the Checksum Store needs of the file, so a write's
        or read's checksum work reads what it touched, not the file."""
        start, size = self.checksums.span_of(offset, length)
        return start, self.inner.read(path, start, size)

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        path = self.inner.canonical(path)
        now = self._tick()
        if self.checksums is None or self._unsynced(path):
            return self.inner.read(path, offset, length)
        # One read of the blocks to verify; the answer is cut from them.
        start, span = self._checksummed_span(path, offset, length)
        skip = offset - start
        data = span[skip:] if length is None else span[skip : skip + length]
        try:
            self.checksums.verify_read(path, span, offset, len(data), start=start)
        except CorruptionDetected:
            self.stats.corruptions_detected += 1
            # The crash sweep's repair; it raises when the cloud holds no copy.
            repair(self, path, now, RecoveryReport())
            self.stats.recoveries += 1
            return self.inner.read(path, offset, length)
        return data

    def truncate(self, path: str, length: int) -> None:
        path = self.inner.canonical(path)
        now = self._tick()
        if self._unsynced(path):
            self.inner.truncate(path, length)
            return
        names = self.inner.linked_paths(path)
        node = self._write_node_of(path, names)
        owner = path if node is None else node.path
        old_size = self.inner.size(path)
        if self.config.enable_undo_log and length < old_size:
            self.meter.charge_bytes("write_io", old_size - length)  # copy-out
        self.inner.truncate(path, length)
        self._journal_forget_relations(self.relations.invalidate_dst(path))
        self._pack_and_maybe_compress(owner, now)
        base = self.versions.get(path)
        node = TruncateNode(
            path=path, length=length, base_version=base, new_version=self._mint()
        )
        self.queue.enqueue(node, now)
        self._journal_node(node)
        self._file_changed(path, node.new_version, names)

    def rename(self, src: str, dst: str) -> None:
        src, dst = self.inner.canonical(src), self.inner.canonical(dst)
        now = self._tick()
        if self._unsynced(src) and self._unsynced(dst):
            self.inner.rename(src, dst)
            return
        self._pack_and_maybe_compress(src, now)
        self.queue.pack(dst, now)

        dst_existed = self.inner.exists(dst)
        entry = self._match_relation(dst, now)
        old_content: Optional[bytes] = None
        old_version: Optional[VersionStamp] = None
        preserved_tmp: Optional[str] = None
        trigger_rule = ""
        if entry is not None and self.inner.exists(entry.dst):
            # Trigger rule 1: dst matches a live entry's src.
            trigger_rule = "relation_match"
            old_content = self.inner.read_file(entry.dst)
            old_version = self.versions.get(entry.dst)
            if entry.origin == "unlink":
                preserved_tmp = entry.dst
        elif dst_existed:
            # Trigger rule 2: the to-be-created name already exists.
            trigger_rule = "name_exists"
            old_content = self.inner.read_file(dst)
            old_version = self.versions.get(dst)

        self.inner.rename(src, dst)
        self.relations.record_rename(src, dst, now)
        self._journal_relation(src)
        if self.checksums is not None:
            self.checksums.rename(src, dst)

        moved_version = self.versions.pop(src, None)
        self.versions[dst] = moved_version
        moved_pending = self._pending_create_delta.pop(src, None)
        if moved_pending is not None:
            self._pending_create_delta[dst] = moved_pending
        self._enqueue_meta("rename", src, dst, new_version=None, now=now)

        if old_content is not None:
            self._delta_or_rpc(
                dst,
                self._pending_data_nodes_for_content(dst),
                old_content,
                old_version,
                now,
                trigger_rule,
                preserved_tmp,
            )

    def link(self, src: str, dst: str) -> None:
        src, dst = self.inner.canonical(src), self.inner.canonical(dst)
        now = self._tick()
        self.inner.link(src, dst)
        if self._unsynced(dst):
            return
        self._file_changed(dst, self.versions.get(src))
        self._enqueue_meta("link", src, dst, new_version=None, now=now)

    def unlink(self, path: str) -> None:
        path = self.inner.canonical(path)
        now = self._tick()
        if self._unsynced(path):
            self.inner.unlink(path)
            return
        self._pack_and_maybe_compress(path, now)

        preserved = self._preserve_unlinked(path, now)
        if not preserved:
            self.inner.unlink(path)

        if self.checksums is not None:
            self.checksums.drop(path)
        self.versions.pop(path, None)

        # Causality shortcut: a file whose create never left the queue can
        # vanish without the cloud ever hearing of it (Section III-E) — but
        # only if no queued namespace edge touches the name: a pending
        # rename/link into the path would re-materialize it on the cloud,
        # and a pending rename/link out of it carries effects (another
        # name's content) that must still ship.
        pending = self.queue.pending_nodes(path)
        create_seqs = [
            n.seq
            for n in pending
            if isinstance(n, MetaNode) and n.kind == "create"
        ]
        if create_seqs and not any(
            isinstance(n, MetaNode) and n.kind in ("rename", "link")
            for n in self.queue.nodes_naming(path)
        ):
            # Cancel only this incarnation: nodes from its pending create
            # onward. Anything queued *before* that create belongs to a
            # previous incarnation the cloud may already know about — in
            # particular its trailing unlink, which must still ship or the
            # cloud keeps a file the client deleted.
            first_create = min(create_seqs)
            doomed = [n for n in pending if n.seq >= first_create]
            self.queue.cancel_nodes(doomed)
            self._never_uploads(doomed)
            self._pending_create_delta.pop(path, None)
        else:
            self._enqueue_meta("unlink", path, None, new_version=None, now=now)

    def close(self, path: str) -> None:
        path = self.inner.canonical(path)
        now = self._tick()
        self.inner.close(path)
        if self._unsynced(path):
            return
        self._pack_and_maybe_compress(path, now)

    def mkdir(self, path: str) -> None:
        path = self.inner.canonical(path)
        now = self._tick()
        self.inner.mkdir(path)
        if self._unsynced(path):
            return
        self._enqueue_meta("mkdir", path, None, new_version=None, now=now)

    def rmdir(self, path: str) -> None:
        path = self.inner.canonical(path)
        now = self._tick()
        self.inner.rmdir(path)
        if self._unsynced(path):
            return
        self._enqueue_meta("rmdir", path, None, new_version=None, now=now)

    # ------------------------------------------------------------------
    # the pump: time-driven work
    # ------------------------------------------------------------------

    def pump(self, now: Optional[float] = None) -> int:
        """Expire relations and upload due Sync Queue units.

        Returns the number of upload units shipped. The workload driver
        calls this as virtual time advances (the real prototype's
        background threads). An idle client — a direct link, nothing
        queued, no live relation — has nothing to expire, ship or
        retransmit, and returns at once.
        """
        if self.transport is None and not self.queue and not self.relations:
            return 0
        if now is None:
            now = self.clock.now()
        self._expire_relations(now)
        shipped = 0
        # One batched sweep per wakeup: the queue rebuilds its node list
        # once for the whole drain instead of once per shipped node.
        for unit in self.queue.drain_due(now):
            self._upload_unit(unit, now)
            shipped += 1
        if self.transport is not None:
            self.transport.pump(now)
        return shipped

    def flush(self) -> int:
        """Drain everything (end of run), regardless of upload delay."""
        now = self.clock.now()
        self._expire_relations(now)
        # Pack any still-active write nodes through the compression check.
        for path in [n.path for n in self.queue.nodes() if isinstance(n, WriteNode)]:
            self._pack_and_maybe_compress(path, now)
        shipped = 0
        for unit in self.queue.drain_all(now):
            self._upload_unit(unit, now)
            shipped += 1
        if self.transport is not None:
            self.transport.pump(now)
        return shipped

    # ------------------------------------------------------------------
    # fine-grained version control (Section III-C)
    # ------------------------------------------------------------------

    def version_history(self, path: str) -> List[VersionStamp]:
        """Restorable versions of ``path`` on the cloud, oldest first.

        Versioning granularity is one stamp per Sync Queue node — "a neat
        tradeoff" between open-to-close and per-write versioning.
        """
        path = self.inner.canonical(path)
        reply = self._link.call(HistoryRequest(path=path), self.clock.now())
        return list(reply.versions)

    def restore_version(self, path: str, version: VersionStamp) -> bytes:
        """Roll ``path`` back to ``version`` (cloud-side) and mirror locally.

        Any locally pending nodes for the file, under every one of its
        names, are cancelled first — the restore supersedes them. Returns
        the restored content.
        """
        path = self.inner.canonical(path)
        names = self.inner.linked_paths(path) if self.inner.exists(path) else [path]
        for name in names:
            pending = self.queue.pending_nodes(name)
            if pending:
                self.queue.pack(name, self.clock.now())
                self.queue.cancel_nodes(pending)
                self._never_uploads(pending)
            self._pending_create_delta.pop(name, None)
        reply = self._link.call(
            RestoreRequest(path=path, version=version), self.clock.now()
        )
        content = reply.data
        if not self.inner.exists(path):
            self.inner.create(path)
        self.inner.truncate(path, 0)
        if content:
            self.inner.write(path, 0, content)
        self._file_changed(path, version)
        return content

    def recover(self):
        """The post-crash path: replay the journal, resync, sweep and repair.

        Requires a journal (``journal_kv``). Restores the version counter
        and the Relation Table; rebuilds the synced-version map from
        the cloud; re-enqueues every journaled unit the server's
        exactly-once window does not hold, as the unit it was; and sweeps
        the dirty set against the durable checksum store, repairing crash
        damage block-by-block. Returns a
        :class:`~repro.core.recovery.RecoveryReport`.
        """
        return perform_recovery(self)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _tick(self) -> float:
        self.stats.ops_intercepted += 1
        self.obs.inc("client.ops.intercepted")
        self.meter.charge_ops(1)
        return self.clock.now()

    def _mint(self) -> VersionStamp:
        stamp = self._counter.next()
        if self.journal is not None:
            # A recovered client must never re-mint a stamp the cloud has
            # already seen, so the counter is journaled at mint time.
            self.journal.record_vercnt(self._counter.current)
        return stamp

    def _unsynced(self, path: str) -> bool:
        """Paths outside sync scope: the preservation tmp area."""
        return path.startswith(_TMP_PREFIX) or path == TMP_DIR

    # -- journal hooks (no-ops when no journal is attached) ----------------

    def _journal_node(self, node: QueueNode) -> None:
        if self.journal is not None:
            self.journal.record_node(node)

    def _journal_forget(self, nodes) -> None:
        if self.journal is not None:
            for node in nodes:
                self.journal.forget_node(node.seq)

    def _never_uploads(self, nodes) -> None:
        """``nodes`` left the queue unshipped: retire their journal records
        and note their versions dead — no later delta may name one as base."""
        self._journal_forget(nodes)
        self._dead_versions.update(
            n.new_version for n in nodes if n.new_version is not None
        )

    def _journal_relation(self, src: str) -> None:
        if self.journal is not None:
            entry = self.relations.entry_for(src)
            if entry is not None:
                self.journal.record_relation(entry)

    def _journal_forget_relations(self, entries) -> None:
        if self.journal is not None:
            for entry in entries:
                self.journal.forget_relation(entry.src)

    def _enqueue_meta(
        self,
        kind: str,
        path: str,
        dest: Optional[str],
        *,
        new_version: Optional[VersionStamp],
        now: float,
    ) -> None:
        node = MetaNode(path=path, kind=kind, dest=dest, new_version=new_version)
        self.queue.enqueue(node, now)
        self._journal_node(node)

    # -- transactional-update delta path ---------------------------------

    def _delta_or_rpc(
        self,
        path: str,
        doomed: List[QueueNode],
        old_content: bytes,
        old_version: Optional[VersionStamp],
        now: float,
        rule: str,
        preserved_tmp: Optional[str] = None,
    ) -> None:
        """A trigger rule fired for ``path``: encode its content against
        ``old_content`` and let the delta replace ``doomed``, if smaller.

        ``doomed`` are the queued data nodes (FIFO order) that carry the
        new content — the write nodes under the file's *temporary* name for
        a transactional update, the node being packed for the pack-time
        rules. If none is pending the data already shipped and a delta
        would be pure overhead; if the delta is not smaller, RPC wins and
        the nodes stay (adaptivity!). An in-place compression is the same
        decision, counted apart.
        """
        inplace = rule == "inplace"
        if not inplace:
            self.stats.deltas_triggered += 1
        if self.obs.enabled:
            self.obs.inc("client.delta.triggered")
            self.obs.event("client.delta.trigger", path=path, rule=rule)
        doomed_versions = {n.new_version for n in doomed}
        if (
            not doomed
            or old_version is None
            or old_version in self._dead_versions
            or old_version in doomed_versions
            or self.queue.still_writing(old_version)
        ):
            # Nothing pending to replace, or the old version will never be
            # these bytes on the cloud (it died un-uploaded, it is the product
            # of the very nodes this delta would remove, or its node still
            # takes writes through another name of its file) — a delta would
            # reference a base the server cannot resolve to them.
            if self.obs.enabled:
                self.obs.inc("client.delta.no_base")
                self.obs.event("client.delta.no_base", path=path)
        else:
            new_content = self.inner.read_file(path)
            replaced_payload = sum(n.payload_bytes() for n in doomed)
            stats = UpdateStats(
                rpc_bytes=replaced_payload,
                changed_bytes=sum(
                    n.payload_bytes() for n in doomed if isinstance(n, WriteNode)
                ),
                node_count=len(doomed),
            )
            delta, plan, keep = self._policy_encode(
                path, old_content, new_content, stats
            )
            if keep:
                if inplace:
                    self.stats.inplace_deltas += 1
                    self.obs.inc("client.delta.inplace")
                else:
                    self.stats.deltas_kept += 1
                    self.obs.inc("client.delta.kept")
                if self.obs.enabled:
                    self.obs.inc(
                        "client.delta.saved_bytes",
                        max(0, replaced_payload - delta.wire_size()),
                    )
                    self.obs.event(
                        "client.delta.kept",
                        path=path,
                        delta_bytes=delta.wire_size(),
                        replaced_bytes=replaced_payload,
                    )
                node = DeltaNode(
                    path=path,
                    delta=delta,
                    base_version=doomed[0].base_version,
                    content_base=old_version,
                    new_version=self._mint(),
                )
                self.queue.replace_with_delta(doomed, node, now)
                self._never_uploads(doomed)
                self._journal_node(node)
                self._file_changed(path, node.new_version, length=0)
            elif self.obs.enabled:
                self.obs.inc("client.delta.rpc_wins")
                self.obs.event(
                    "client.delta.rpc_wins",
                    path=path,
                    delta_bytes=delta.wire_size()
                    if delta is not None
                    else plan.est_delta_bytes,
                    replaced_bytes=replaced_payload,
                )
        if preserved_tmp is not None:
            self._drop_preserved(preserved_tmp)

    def _policy_encode(
        self,
        path: str,
        old_content: bytes,
        new_content: bytes,
        stats: UpdateStats,
    ) -> Tuple[Optional[Delta], MechanismPlan, bool]:
        """Consult the mechanism policy and (maybe) encode a delta.

        Returns ``(delta, plan, keep)``: ``delta`` is ``None`` when the
        policy pre-chose RPC and skipped the encode entirely (the CPU the
        cost-model policy saves); ``keep`` says whether the caller should
        replace the queued nodes with the delta.
        """
        plan = self.policy.plan(path, len(old_content), len(new_content), stats)
        if plan.backend is None:
            return None, plan, False
        with self.obs.span(
            "client.delta.encode",
            path=path,
            old_bytes=len(old_content),
            new_bytes=len(new_content),
        ):
            delta = plan.backend.encode(
                old_content, new_content, self.config.block_size, meter=self.meter
            )
        self.policy.observe_outcome(path, plan, delta.wire_size(), stats.rpc_bytes)
        keep = plan.force_keep or delta.wire_size() < stats.rpc_bytes
        return delta, plan, keep

    def _pending_data_nodes_for_content(self, path: str) -> List[QueueNode]:
        """Queued data nodes that (re-)uploaded this file's new content, in
        FIFO order.

        After ``rename tmp -> f`` the write nodes still carry the temporary
        name; we trace back through rename meta nodes queued for ``path``.
        A multi-hop chain is queued in FIFO order (``rename tmp2 -> tmp1``
        *before* ``rename tmp1 -> path``), so a single forward pass over
        the queue would discover ``tmp1`` only after having skipped past
        ``tmp2``'s rename — iterate to a fixpoint instead.
        """
        names = {path}
        live = self.queue.nodes()
        renames = [
            n for n in live if isinstance(n, MetaNode) and n.kind == "rename"
        ]
        changed = True
        while changed:
            changed = False
            for node in renames:
                if node.dest in names and node.path not in names:
                    names.add(node.path)
                    changed = True
        return [
            n
            for n in live
            if n.path in names and isinstance(n, (WriteNode, TruncateNode, DeltaNode))
        ]

    # -- pack-time in-place compression -----------------------------------

    def _pack_and_maybe_compress(self, path: str, now: float) -> None:
        with self.obs.span("client.pack", path=path):
            node = self.queue.pack(path, now)
            pending_entry = self._pending_create_delta.pop(path, None)
            if node is None:
                if pending_entry is not None and pending_entry.origin == "unlink":
                    self._drop_preserved(pending_entry.dst)
                return
            base, node.base = node.base, None
            if self.obs.enabled:
                self.obs.inc("client.pack.count")

            if pending_entry is not None and self.inner.exists(pending_entry.dst):
                # The file was re-created over a preserved old version
                # (delete-then-rewrite); encode against that old version.
                self._delta_or_rpc(
                    path,
                    [node],
                    self.inner.read_file(pending_entry.dst),
                    self.versions.get(pending_entry.dst),
                    now,
                    "pending_create",
                    pending_entry.dst if pending_entry.origin == "unlink" else None,
                )
            elif (
                base is not None
                and node.rewritten_fraction(len(base), self.inner.size(path))
                > INPLACE_DELTA_THRESHOLD
            ):
                # Large in-place update: the node holds the old version.
                self._delta_or_rpc(
                    path, [node], bytes(base), node.base_version, now, "inplace"
                )

    # -- unlink preservation ------------------------------------------------

    def _preserve_unlinked(self, path: str, now: float) -> bool:
        """Park an unlinked file in the tmp area; returns success.

        ENOSPC and oversized files fall back to real deletion
        (Section III-A: "if temporarily preserving the file would result in
        ENOSPC ... the deleted files will not be preserved").
        """
        stat = self.inner.stat(path)
        if stat.is_dir or stat.size > PRESERVE_UNLINKED_MAX_BYTES:
            return False
        if not self.inner.exists(TMP_DIR):
            self.inner.mkdir(TMP_DIR)
        preserved = _TMP_PREFIX + path.strip("/").replace("/", "__")
        try:
            if self.inner.exists(preserved):
                self.inner.unlink(preserved)
            self.inner.rename(path, preserved)
        except NoSpaceError:
            return False
        # The preserved copy keeps its synced version so a later triggered
        # delta can name its base snapshot on the server.
        self.versions[preserved] = self.versions.get(path)
        self.relations.record_unlink(path, preserved, now)
        self._journal_relation(path)
        return True

    def _drop_preserved(self, preserved_path: str) -> None:
        if self.inner.exists(preserved_path) and self._unsynced(preserved_path):
            self.inner.unlink(preserved_path)

    def _match_relation(self, path: str, now: float) -> Optional[RelationEntry]:
        """Probe the relation table, GC'ing any stale entry it evicts.

        A stale (expired-but-uncollected) entry surfaces here rather than
        waiting for the next pump — its preserved tmp file would otherwise
        leak until then.
        """
        stale: List[RelationEntry] = []
        entry = self.relations.match_created(path, now, stale_out=stale)
        for dead in stale:
            self._collect_expired_entry(dead)
        self._journal_forget_relations(stale)
        if entry is not None:
            self._journal_forget_relations([entry])
        return entry

    def _expire_relations(self, now: float) -> None:
        expired = self.relations.expire(now)
        for entry in expired:
            self._collect_expired_entry(entry)
        self._journal_forget_relations(expired)

    def _collect_expired_entry(self, entry: RelationEntry) -> None:
        # A matched entry left the table when it matched, so no pending
        # create delta ever holds one that expires.
        if entry.origin == "unlink":
            self._drop_preserved(entry.dst)

    # -- uploading ---------------------------------------------------------

    def _upload_unit(self, unit: UploadUnit, now: float) -> None:
        messages = [n.to_message() for n in unit.nodes]
        messages = [m for m in messages if m is not None]
        if not messages:
            # Nothing to ship: the nodes left the queue for good.
            self._journal_forget(unit.nodes)
            return
        span_attrs: Dict[str, object] = {
            "nodes": len(unit.nodes),
            "transactional": unit.transactional,
        }
        if self.obs.enabled:
            # Member paths and wire sizes let the offline analyzer split a
            # grouped (or enveloped) upload's bytes back over the files
            # that caused it; skipped on NULL_OBS to keep wire_size() off
            # the hot path.
            span_attrs["paths"] = [m.path for m in messages]
            span_attrs["member_bytes"] = [m.wire_size() for m in messages]
        with self.obs.span("client.upload_unit", **span_attrs):
            if unit.transactional and len(messages) > 1:
                outbound: Message = TxnGroup(members=tuple(messages))
                self.stats.groups_uploaded += 1
                self.obs.inc("client.upload.groups")
            else:
                outbound = messages[0] if len(messages) == 1 else TxnGroup(
                    members=tuple(messages)
                )
            self.stats.nodes_uploaded += len(messages)
            self.obs.inc("client.upload.units")
            # The one retire rule: a unit the link still holds after the
            # send (launched, unacked) is recorded under its msg id — at a
            # power cut it exists nowhere else, and the record tells
            # recovery which msg id carried which nodes — and retired at
            # the ack. Any other unit is retired now: delivered already (a
            # direct link), or parked behind a full window (a journaled
            # backlog is a second copy of the backlog).
            msg_id = self._link.send(outbound, now)
            if self.journal is not None and self._link.in_flight(msg_id):
                self._unacked[msg_id] = unit.nodes
                self.journal.record_unit(msg_id, [n.seq for n in unit.nodes])
            else:
                self._journal_forget(unit.nodes)

    def _envelope_acked(self, msg_id: int) -> None:
        nodes = self._unacked.pop(msg_id, None)
        if nodes is not None:
            self._journal_forget(nodes)
            self.journal.forget_unit(msg_id)

    def _note_conflicts(self, replies) -> None:
        """Conflict bookkeeping for an update's replies, already charged to
        the channel by the link that delivered them."""
        for reply in replies:
            if isinstance(reply, ConflictNotice):
                self.stats.conflicts += 1
                self.obs.inc("client.conflicts")
                self.conflict_notices.append(reply)

    # -- downloads: forwards ------------------------------------------------

    def _receive_forward(self, origin_client: int, message: Forward) -> None:
        """Apply another client's update, forwarded verbatim by the cloud."""
        self.channel.download(message, self.clock.now())
        self.stats.forwards_applied += 1
        inner_msg = message.inner
        self._apply_remote(inner_msg)

    def _apply_remote(self, message: Message) -> None:
        if isinstance(message, TxnGroup):
            for member in message.members:
                self._apply_remote(member)
            return
        path = getattr(message, "path", "")
        if not path:
            return
        if self.queue.has_pending(path):
            # Local concurrent edit: the forwarded update conflicts with
            # pending local changes (Section III-D); the server reconciles,
            # we keep local state and count the conflict.
            self.stats.conflicts += 1
            self.obs.inc("client.conflicts")
            return
        if isinstance(message, MetaOp):
            self._replay_remote_meta(message)
        elif isinstance(message, (UploadWrite, UploadWriteBatch)):
            try:
                names = self.inner.linked_paths(path)
            except NotFoundError:  # the file's create never reached us
                self.inner.create(path)
                names = [path]
            if self.checksums is None:
                # Nothing to re-checksum: write the runs, stamp the names.
                for offset, data in message.runs:
                    self.inner.write(path, offset, data)
                version = message.new_version
                for name in names:
                    self.versions[name] = version
                return
            # Each run re-checksums what it touched, as a local write does
            # (past EOF the zero-filled gap too), not the whole file.
            for offset, data in message.runs:
                old_size = self.inner.size(path)
                self.inner.write(path, offset, data)
                changed = min(offset, old_size)
                self._file_changed(
                    path, message.new_version, names, changed,
                    offset + len(data) - changed,
                )
            return
        elif isinstance(message, UploadTruncate):
            if not self.inner.exists(path):
                self.inner.create(path)
            self.inner.truncate(path, message.length)
            self.versions[path] = message.new_version
        elif isinstance(message, UploadDelta):
            content = self._patched(message)
            if content is not None:
                self.inner.write_file(path, content)
                self.versions[path] = message.new_version
        elif isinstance(message, UploadFull):
            self.inner.write_file(path, message.data)
            self.versions[path] = message.new_version
        self._file_changed(path, self.versions.get(path))

    def _replay_remote_meta(self, op: MetaOp) -> None:
        if op.kind == "create":
            if not self.inner.exists(op.path):
                self.inner.create(op.path)
            self.versions[op.path] = op.new_version
        elif op.kind == "rename" and self.inner.exists(op.path):
            self.inner.rename(op.path, op.dest)
            self.versions[op.dest] = self.versions.pop(op.path, None)
            if self.checksums is not None:
                self.checksums.rename(op.path, op.dest)
        elif op.kind == "link" and self.inner.exists(op.path):
            if not self.inner.exists(op.dest):
                self.inner.link(op.path, op.dest)
        elif op.kind == "unlink" and self.inner.exists(op.path):
            self.inner.unlink(op.path)
            self.versions.pop(op.path, None)
            if self.checksums is not None:
                self.checksums.drop(op.path)
        elif op.kind == "mkdir" and not self.inner.exists(op.path):
            self.inner.mkdir(op.path)
        elif op.kind == "rmdir" and self.inner.exists(op.path):
            self.inner.rmdir(op.path)

    def _patched(self, message: UploadDelta) -> Optional[bytes]:
        """A forwarded delta's result, patched as the server does against
        this client's own copy of its ``content_base``: the local name
        stamped with it, ``message.path`` first. Without one, the cloud's
        copy of the path is read in one call (``None`` if it has none)."""
        base = message.content_base
        held = None
        if base is not None:
            if self.versions.get(message.path) == base:
                held = message.path
            else:
                held = next((n for n, v in self.versions.items() if v == base), None)
        if held is not None and self.inner.exists(held):
            old = self.inner.read_file(held)
            return apply_delta(old, message.delta, meter=self.meter)
        request = RangeRequest(path=message.path, offset=0, length=TO_THE_END)
        reply = self._link.call(request, self.clock.now())
        return None if reply.version is None else reply.data
