"""Crash-recovery journal: durable sync intent + post-crash resync.

The prototype keeps the Sync Queue and Relation Table in memory; a power
cut loses every un-uploaded change and the paper leaves the
"recently modified files" sweep to the restart logic. This module closes
that gap with a *sync-intent journal*: as operations are intercepted, the
client appends compact records to the same WAL-backed key-value store that
already makes the Checksum Store durable (the LevelDB role), and
:func:`perform_recovery` replays them after a crash.

What is journaled (and when):

- **queue nodes** — every Sync Queue node with its payload (write runs,
  truncate length, delta instruction stream, namespace op), re-recorded on
  coalesce and forgotten on cancel/replace and once the cloud has it (the
  synchronous upload returning, or the reliable transport's ack — or, a
  known gap, on hand-off when the envelope must park behind a full window);
- **units** — the queue's merged backindex spans (which queued nodes must
  ship as one transactional unit), and for every envelope the reliable
  transport launches at hand-off, its msg id and member seqs — written at
  launch and retired with the nodes' records at the ack (a unit parked in
  the outbox is retired at hand-off, the gap above, and gets none);
- **relation entries** — the live Relation Table rows, so an interrupted
  transactional update can still trigger delta encoding after restart
  (their preserved tmp blobs live in the file system, which survives);
- **VerCnt** — the client's version counter, so a recovered client never
  re-mints a stamp the cloud has already seen.

An open write node's base (its in-place update's old version) is a
reference, not journaled: a restored node enters packed and ships as the
writes its records hold in full.

Recovery then (1) restores the counter and relations, (2)
rebuilds the synced-version map in one metadata round trip
(``ResyncRequest``/``ResyncReply``), (3) re-executes the journaled work as
the units it was: a launched envelope at or below the high-water mark of
the server's exactly-once window for this client landed and is retired,
everything else re-enters the queue in its original order and grouping with
its bases untouched, so the cloud's own base-version check and
first-write-wins decide what it does — no second, client-side idempotence
rule — and (4) sweeps the dirty set against the durable
checksum store, repairing injected crash inconsistency block-by-block from
ranged downloads patched with the journaled pending writes — recovery
traffic is bounded by the dirty + damaged regions, never whole files.

The repair (:func:`_rebuild`) reads a pending node as the message it will
ship as (``QueueNode.to_message()``, the uploader's own conversion) and
folds every one's ``apply_to`` over cloud bytes spliced into the local
content — or, as the fallback, over the whole cloud copy — so what recovery
rebuilds locally is by construction what the server will hold once the
nodes upload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.common import wire
from repro.common.pages import EMPTY, Pages
from repro.common.version import VersionCounter, VersionStamp
from repro.core.relation_table import RelationEntry
from repro.core.sync_queue import (
    DeltaNode,
    MetaNode,
    QueueNode,
    TruncateNode,
    WriteNode,
)
from repro.delta.format import Delta
from repro.delta.patch import apply_delta
from repro.kvstore.kv import KVStore
from repro.net.messages import (
    Message,
    RangeReply,
    RangeRequest,
    ResyncReply,
    ResyncRequest,
    UploadDelta,
)
from repro.obs import NULL_OBS, Observability

# -- key layout --------------------------------------------------------------

_J = b"j\x00"
_K_VERCNT = _J + b"meta\x00vercnt"
_K_SPANS = _J + b"meta\x00spans"
_P_NODE = _J + b"node\x00"
_P_UNIT = _J + b"unit\x00"
_P_REL = _J + b"rel\x00"
_P_UNDO = _J + b"undo\x00"

# Key suffixes (big-endian, so keys sort numerically) and the vercnt value.
_U64 = wire.Schema("u64", wire.u64be("value"), scalar=True)


def _node_key(seq: int) -> bytes:
    return _P_NODE + _U64.encode(seq)


def _unit_key(msg_id: int) -> bytes:
    return _P_UNIT + _U64.encode(msg_id)


def _rel_key(src: str) -> bytes:
    return _P_REL + src.encode()


def _undo_key(path: str, index: int) -> bytes:
    return _P_UNDO + path.encode() + b"\x00" + _U64.encode(index)


# -- record layouts ----------------------------------------------------------

_VERSION = wire.Schema(
    "version", wire.u64be("client_id"), wire.u64be("counter"), factory=VersionStamp
)
_STR = wire.Schema("str", wire.text("text", wire.u32be), scalar=True)
_RUN = wire.Schema("run", wire.u64be("offset"), wire.blob("data", wire.u32be))


def _node(cls: type, kind: int, *body: object) -> wire.Schema:
    """A queue-node record: kind tag, the shared head, the kind's body."""
    return wire.Schema(
        cls.__name__,
        wire.u8(const=kind),
        wire.text("path", wire.u32be),
        wire.optional("base_version", _VERSION),
        wire.optional("new_version", _VERSION),
        *body,
        factory=cls,
    )


_NODE = wire.Union(
    "journal node",
    _node(
        WriteNode, 1,
        wire.flag("packed"), wire.items("writes", _RUN, wire.u32be),
    ),
    _node(TruncateNode, 2, wire.u64be("length")),
    _node(
        DeltaNode, 3,
        wire.optional("content_base", _VERSION),
        wire.blob("delta", wire.u32be, inner=Delta.WIRE),
    ),
    _node(
        MetaNode, 4,
        wire.text("kind", wire.u32be), wire.optional("dest", _STR, absent=""),
    ),
)
# Values of the relation / undo keys (src, path and index live in the key).
_RELATION = wire.Schema(
    "relation",
    wire.text("dst", wire.u32be), wire.f64be("created_at"),
    wire.text("origin", wire.u32be),
)
_UNDO = wire.Schema(
    "undo",
    wire.u64be("base_size"), wire.u64be("offset"), wire.u64be("length"),
    wire.blob("old_data", wire.u32be),
)
# A launched envelope's member node seqs (its msg id lives in the key), and
# the queue's merged backindex spans (one key, rewritten when they change).
_UNIT = wire.Schema("unit", wire.items("seqs", _U64, wire.u32be), scalar=True)
_SPAN = wire.Schema("span", wire.u64be("start"), wire.u64be("end"))
_SPANS = wire.Schema("spans", wire.items("spans", _SPAN, wire.u32be), scalar=True)

#: Serialize one Sync Queue node into a journal record (``TypeError`` for
#: anything that is not a queue node).
encode_node = _NODE.encode
#: Rebuild a Sync Queue node from its journal record; ``ValueError`` on a
#: truncated, over-long or otherwise malformed record.
decode_node = _NODE.decode


def _decoded(schema, key: bytes, value: bytes):
    """``schema.decode(value)``, with the offending key named on failure."""
    try:
        return schema.decode(value)
    except ValueError as exc:
        raise ValueError(f"corrupt journal record {key!r}: {exc}") from exc


# -- the journal -------------------------------------------------------------


@dataclass
class JournalState:
    """Everything :meth:`SyncJournal.load` reconstructs after a crash."""

    vercnt: int = 0
    nodes: List[Tuple[int, QueueNode]] = field(default_factory=list)
    units: List[Tuple[int, List[int]]] = field(default_factory=list)
    spans: List[Tuple[int, int]] = field(default_factory=list)
    relations: List[RelationEntry] = field(default_factory=list)


class SyncJournal:
    """Sync-intent journal over a (durable) :class:`KVStore`.

    Records are idempotent puts/deletes keyed by the volatile object's
    identity (node seq, relation src, undo path+index), so re-recording a
    coalesced node simply overwrites its previous record. Pair it with a
    :class:`~repro.kvstore.kv.LogStructuredKV` opened in ``sync=True`` mode
    so an acked append survives the very power cut this models.
    """

    def __init__(self, kv: KVStore, *, obs: Observability = NULL_OBS):
        self.kv = kv
        self.obs = obs
        self._undo_index: Dict[str, int] = {}

    # -- write side --------------------------------------------------------

    def record_vercnt(self, counter: int) -> None:
        """Persist the last minted version counter."""
        self._put(
            _K_VERCNT, _U64.encode(counter), kind="vercnt", ref=str(counter)
        )

    def record_node(self, node: QueueNode) -> None:
        """Persist (or re-persist, after coalescing) one queue node."""
        if node.seq < 0:
            raise ValueError("cannot journal a node that was never enqueued")
        self._put(
            _node_key(node.seq), encode_node(node), kind="node", ref=str(node.seq)
        )

    def forget_node(self, seq: int) -> None:
        """Drop a node record (it shipped, was cancelled, or was replaced)."""
        self._delete(_node_key(seq), kind="node", ref=str(seq))

    def record_unit(self, msg_id: int, seqs: List[int]) -> None:
        """Persist which nodes the envelope ``msg_id`` carries (at launch)."""
        self._put(_unit_key(msg_id), _UNIT.encode(seqs), kind="unit", ref=str(msg_id))

    def forget_unit(self, msg_id: int) -> None:
        """Drop an envelope's unit record (acked, or settled by recovery)."""
        self._delete(_unit_key(msg_id), kind="unit", ref=str(msg_id))

    def record_spans(self, spans: List[Tuple[int, int]]) -> None:
        """Persist the queue's merged backindex spans (none: drop the record)."""
        if spans:
            self._put(_K_SPANS, _SPANS.encode(spans), kind="spans", ref=str(len(spans)))
        else:
            self._delete(_K_SPANS, kind="spans", ref="0")

    def record_relation(self, entry: RelationEntry) -> None:
        """Persist one Relation Table entry."""
        self._put(
            _rel_key(entry.src),
            _RELATION.encode((entry.dst, entry.created_at, entry.origin)),
            kind="relation",
            ref=entry.src,
        )

    def forget_relation(self, src: str) -> None:
        """Drop a relation record (matched, expired, or invalidated)."""
        self._delete(_rel_key(src), kind="relation", ref=src)

    def record_undo(
        self, path: str, base_size: int, offset: int, length: int, old_data: bytes
    ) -> None:
        """Persist one undo record (old bytes a write displaced). Uncalled,
        and :meth:`load` reads none: it, :meth:`forget_undo` and the layout
        stay only while the benchmark's boundary table names them."""
        index = self._undo_index.get(path, 0)
        self._undo_index[path] = index + 1
        self._put(
            _undo_key(path, index),
            _UNDO.encode((base_size, offset, length, old_data)),
            kind="undo",
            ref=path,
        )

    def forget_undo(self, path: str) -> None:
        """Drop a file's undo records. Uncalled: see :meth:`record_undo`."""
        removed = self.kv.delete_prefix(_P_UNDO + path.encode() + b"\x00")
        if removed and self.obs.enabled:
            self.obs.inc("journal.records.forgotten", value=removed, kind="undo")
            self.obs.event("journal.forget", kind="undo", ref=path)
        self._undo_index.pop(path, None)

    def clear(self) -> None:
        """Wipe every journal record (fresh client, or tests)."""
        self.kv.delete_prefix(_J)
        self._undo_index.clear()

    # -- read side ---------------------------------------------------------

    def load(self) -> JournalState:
        """Reconstruct the journaled state (post-crash replay input).

        A record that does not decode exactly raises ``ValueError`` naming
        its key: replaying a shortened write would corrupt the file.
        """
        state = JournalState()
        raw_vercnt = self.kv.get(_K_VERCNT)
        if raw_vercnt is not None:
            state.vercnt = _decoded(_U64, _K_VERCNT, raw_vercnt)
        for key, value in self.kv.items(_P_NODE):
            node = _decoded(_NODE, key, value)
            node.seq = _U64.decode(key[len(_P_NODE) :])
            state.nodes.append((node.seq, node))
        state.nodes.sort(key=lambda pair: pair[0])
        for key, value in self.kv.items(_P_UNIT):
            msg_id = _U64.decode(key[len(_P_UNIT) :])
            state.units.append((msg_id, _decoded(_UNIT, key, value)))
        raw_spans = self.kv.get(_K_SPANS)
        if raw_spans is not None:
            state.spans = _decoded(_SPANS, _K_SPANS, raw_spans)
        for key, value in self.kv.items(_P_REL):
            src = key[len(_P_REL) :].decode()
            state.relations.append(
                RelationEntry(src, *_decoded(_RELATION, key, value))
            )
        return state

    # -- internals ---------------------------------------------------------

    def _put(self, key: bytes, value: bytes, *, kind: str, ref: str) -> None:
        self.kv.put(key, value)
        if self.obs.enabled:
            self.obs.inc("journal.records.written", kind=kind)
            self.obs.inc("journal.bytes.written", len(key) + len(value))
            self.obs.event("journal.write", kind=kind, ref=ref)

    def _delete(self, key: bytes, *, kind: str, ref: str) -> None:
        self.kv.delete(key)
        if self.obs.enabled:
            self.obs.inc("journal.records.forgotten", kind=kind)
            self.obs.event("journal.forget", kind=kind, ref=ref)


# -- post-crash recovery -----------------------------------------------------


@dataclass
class RecoveryReport:
    """What one :meth:`DeltaCFSClient.recover` pass did."""

    dirty_paths: List[str] = field(default_factory=list)
    damaged_paths: List[str] = field(default_factory=list)
    nodes_replayed: int = 0
    nodes_already_applied: int = 0
    relations_restored: int = 0
    blocks_repaired: int = 0
    bytes_downloaded: int = 0
    full_file_fallbacks: int = 0


def perform_recovery(client) -> RecoveryReport:
    """Replay the journal into ``client`` and run the post-crash resync.

    The client is assumed freshly restarted
    (:func:`repro.faults.crash.restart`): volatile structures empty, the
    backing file system and the journal/checksum KVs intact.
    """
    journal: Optional[SyncJournal] = client.journal
    if journal is None:
        raise RuntimeError("client has no journal to recover from")
    report = RecoveryReport()
    obs = client.obs
    now = client.clock.now()
    state = journal.load()

    with obs.span("client.recover", nodes=len(state.nodes)):
        obs.inc("recovery.runs")
        _restore_counter(client, state)
        report.relations_restored = _restore_relations(client, state, now)
        local_paths = _local_paths(client)
        server_versions = _renegotiate_versions(client, local_paths, now)
        _replay_nodes(client, state, now, report)
        _sweep_and_repair(client, local_paths, server_versions, now, report)
        client.stats.recoveries += 1
    return report


def _restore_counter(client, state: JournalState) -> None:
    start = max(client._counter.current, state.vercnt)
    client._counter = VersionCounter(client.client_id, start=start)


def _restore_relations(client, state: JournalState, now: float) -> int:
    """Re-admit journaled relation entries whose preserved dst survived.

    ``created_at`` is refreshed to ``now``: the transactional-update window
    the crash interrupted restarts, rather than expiring retroactively for
    wall time the client never observed.
    """
    restored = 0
    for entry in state.relations:
        if not client.inner.exists(entry.dst):
            client.journal.forget_relation(entry.src)
            continue
        client.relations.restore(replace(entry, created_at=now))
        restored += 1
    return restored


def _local_paths(client) -> List[str]:
    """Every local file in sync scope (outside the preservation tmp area)."""
    return sorted(p for p in client.inner.walk_files() if not client._unsynced(p))


def _renegotiate_versions(
    client, local_paths: List[str], now: float
) -> Dict[str, Optional[VersionStamp]]:
    """One metadata round trip: the server's current version per path.

    Rebuilds the client's synced-version map (volatile, lost in the crash)
    so post-recovery writes name valid base versions, and tells the sweep
    which files the cloud holds.
    """
    if client.server is None:
        return {}
    request = ResyncRequest(paths=tuple(local_paths))
    client.channel.upload(request, now)
    pairs = client.server.resync_versions(local_paths)
    reply = ResyncReply(versions=tuple(pairs))
    client.channel.download(reply, now)
    versions: Dict[str, Optional[VersionStamp]] = dict(pairs)
    for path, version in versions.items():
        if version is not None:
            client.versions[path] = version
    return versions


def _replay_nodes(
    client, state: JournalState, now: float, report: RecoveryReport
) -> None:
    """Re-execute the journaled work as the units it was.

    The server's exactly-once window is the one judge of what landed: an
    envelope whose msg id is at or below the high-water mark of this
    client's dedup window was applied before the cut (only its ack was
    lost), so its unit's records are retired. Everything else re-enters the
    queue in journal order, grouped as it was — a launched envelope as that
    unit, a queued node under its journaled backindex span — with its bases
    untouched: the upload meets the server's live base-version check, where
    a base the cloud no longer holds is an honest first-write-wins conflict.
    """
    obs, journal = client.obs, client.journal
    server = client.server
    landed = 0 if server is None else server.last_msg_id(client.client_id)
    nodes = dict(state.nodes)
    units: List[List[QueueNode]] = []
    for msg_id, seqs in state.units:
        members = [nodes.pop(seq) for seq in seqs if seq in nodes]
        if msg_id > landed:
            units.append(members)
        else:
            for node in members:
                journal.forget_node(node.seq)
                report.nodes_already_applied += 1
                obs.inc("recovery.nodes.already_applied")
                _note_replayed(obs, node, "already_applied")
        journal.forget_unit(msg_id)
    previous = None
    for seq, node in nodes.items():  # never shipped: grouped by their spans
        span = next((s for s in state.spans if s[0] <= seq <= s[1]), None)
        if span is None or span != previous:
            units.append([])
        units[-1].append(node)
        previous = span
    if state.spans:
        journal.record_spans([])  # re-recorded below in the new queue's seqs

    dirty = set()
    for unit in sorted(filter(None, units), key=lambda unit: unit[0].seq):
        for node in unit:
            journal.forget_node(node.seq)
        client.queue.restore(unit, now)  # fresh seqs, one span per unit
        for node in unit:
            journal.record_node(node)
            _follow(client.versions, node)
            report.nodes_replayed += 1
            obs.inc("recovery.nodes.replayed")
            _note_replayed(obs, node, "replayed")
            dirty.add(node.path)
    report.dirty_paths = sorted(dirty)


def _follow(versions: Dict[str, Optional[VersionStamp]], node: QueueNode) -> None:
    """``versions`` as the intercepted operation behind ``node`` left them."""
    if isinstance(node, MetaNode) and node.kind == "rename":
        versions[node.dest] = versions.pop(node.path, None)
    elif isinstance(node, MetaNode) and node.kind == "link":
        versions[node.dest] = versions.get(node.path)
    elif isinstance(node, MetaNode) and node.kind == "unlink":
        versions.pop(node.path, None)
    elif node.new_version is not None:
        versions[node.path] = node.new_version


def _note_replayed(obs: Observability, node: QueueNode, disposition: str) -> None:
    if obs.enabled:
        obs.event(
            "recovery.node.replayed",
            path=node.path,
            kind=type(node).__name__,
            disposition=disposition,
        )


def _sweep_and_repair(
    client,
    local_paths: List[str],
    server_versions: Dict[str, Optional[VersionStamp]],
    now: float,
    report: RecoveryReport,
) -> None:
    """The paper's "recently modified files" sweep, with bounded repair.

    Every local file's blocks are compared against the durable checksum
    store — damage can land in clean files too, so the sweep is not
    limited to the journal's dirty set. The comparison is pure local
    hashing; network traffic happens only for mismatching blocks. A
    mismatching block is crash damage (it changed beneath the operation
    surface) and :func:`_rebuild` repairs it.
    """
    if client.checksums is None:
        return
    obs = client.obs
    for path in sorted(set(local_paths) | set(report.dirty_paths)):
        # a journaled node may name a file gone again, or a pending mkdir
        if not client.inner.exists(path) or client.inner.stat(path).is_dir:
            continue
        obs.inc("recovery.files.swept")
        content = client.inner.read_file(path)
        bad_blocks = client.checksums.mismatched_blocks(path, content)
        if not bad_blocks:
            continue
        report.damaged_paths.append(path)
        obs.inc("recovery.files.damaged")
        on_server = (
            client.server is not None
            and server_versions.get(path) is not None
            and client.server.store.exists(path)
        )
        repaired = _rebuild(
            client, path, content, bad_blocks,
            pending_messages(client.queue, [path]), on_server, now, report,
        )
        if obs.enabled:
            obs.event(
                "recovery.file.repaired",
                path=path,
                blocks=len(bad_blocks),
                full_file=not repaired,
            )


def _rebuild(
    client,
    path: str,
    content: bytes,
    bad_blocks: List[int],
    pending: List[Message],
    on_server: bool,
    now: float,
    report: RecoveryReport,
) -> bool:
    """Reconstruct a damaged file and write it back — the one routine that
    writes repaired content. Returns True when block-wise repair settled it.

    One fold: cloud bytes spliced into a base, then *every* journaled pending
    intent applied on top in sequence order, as the message it will ship as
    (``apply_to``, the server's own effect) — the crash must never silently
    roll back dirty data. Block-wise, the base is the local content and the
    splices are the contiguous damaged runs, one ``RangeRequest`` /
    ``RangeReply`` each, so the downlink is bounded by the damaged span
    (local bytes outside it already carry the intents; applying them again
    changes nothing). A pending delta (its target bytes exist only relative
    to its base) or a result that still disagrees with the durable checksums
    (the range model is missing history, e.g. the file predates the store)
    takes the whole cloud copy as the base instead. If even that disagrees,
    the candidate with fewer damaged blocks wins and the checksums are
    re-indexed to it — never the stale cloud copy adopted blindly.
    """
    checksums, obs = client.checksums, client.obs
    block = checksums.block_size

    def fetch(offset: int, length: int) -> bytes:
        client.channel.upload(
            RangeRequest(path=path, offset=offset, length=length), now
        )
        chunk, version = client.server.file_range(path, offset, length)
        client.channel.download(
            RangeReply(path=path, offset=offset, data=chunk, version=version), now
        )
        report.bytes_downloaded += len(chunk)
        obs.inc("recovery.bytes.downloaded", len(chunk))
        return chunk

    has_delta = any(isinstance(message, UploadDelta) for message in pending)
    for blockwise in ((False,) if has_delta else (True, False)):
        if blockwise:
            folded = Pages(content)
            for start, count in _contiguous_runs(bad_blocks):
                offset = start * block
                room = max(0, min(count * block, len(content) - offset))
                # Never uploaded: zeros, and the journaled pending intents
                # are the only source of truth for the region.
                chunk = b"\x00" * room
                if on_server:
                    chunk = fetch(offset, count * block)[:room]
                if chunk:
                    folded = folded.write(offset, chunk)
                report.blocks_repaired += count
                obs.inc("recovery.blocks.repaired", count)
        else:
            report.full_file_fallbacks += 1
            obs.inc("recovery.full_file_fallbacks")
            folded = EMPTY
            if on_server:
                folded = Pages(fetch(0, client.server.store.lookup(path).size))
        rebuilt = bytes(fold(folded, pending))
        still_bad = checksums.mismatched_blocks(path, rebuilt)
        if not still_bad:
            break
    # Neither source clean: keep whichever disagrees with the durable record
    # the least, and re-index so the store describes reality again.
    if still_bad and len(still_bad) > len(checksums.mismatched_blocks(path, content)):
        rebuilt = content
    client.inner.write_file(path, rebuilt)
    if still_bad:
        client._file_changed(path, client.versions.get(path))
    return blockwise


def pending_messages(queue, names: List[str]) -> List[Message]:
    """The data updates queued for one file under any of its ``names``, each
    as the message it will ship as, in sequence order: a write after a
    truncate lands on the shortened file, a truncate after a write cuts it."""
    nodes = [node for name in names for node in queue.pending_nodes(name)]
    nodes.sort(key=lambda node: node.seq)
    messages = [n.to_message() for n in nodes if not isinstance(n, MetaNode)]
    return [message for message in messages if message is not None]


def fold(base: Pages, pending: List[Message]) -> Pages:
    """``base`` with every pending update applied in order, as the server
    will apply it (``apply_to``). A delta's target bytes exist only relative
    to its base: one that does not apply to ``base`` leaves it as it is."""
    for message in pending:
        if isinstance(message, UploadDelta):
            try:
                base = Pages(apply_delta(bytes(base), message.delta))
            except ValueError:
                pass  # keep the base; the caller's checks decide
        else:
            base = message.apply_to(base)
    return base


def _contiguous_runs(blocks: List[int]) -> List[Tuple[int, int]]:
    """Collapse sorted block indices into (start, count) runs."""
    runs: List[Tuple[int, int]] = []
    for index in blocks:
        if runs and index == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((index, 1))
    return runs
