"""The Sync Queue (paper Sections III-B and III-E).

A FIFO of pending upload nodes with three twists:

1. **Write nodes** — all intercepted writes to one file coalesce into a
   single mutable node (found through a hash table). A write node is
   *packed* (frozen) when its file's state changes: close, rename, unlink,
   truncate — or when it comes due for upload.
2. **Delta replacement** — when the Relation Table triggers delta encoding,
   the file's write node(s) are removed from the queue and the (much
   smaller) delta node is appended instead.
3. **Backindex** — removing or mutating a non-tail node would violate the
   FIFO order that gives causal consistency for free. Each such surgery
   records a *backindex span* from the disturbed position to the current
   tail; all nodes inside a span must be applied transactionally on the
   cloud, and interleaved spans are merged (Section III-E, Figure 7).

Nodes are uploaded after a short delay (Figure 6: ~3 s) so that coalescing
and delta replacement get their window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.bytesutil import join_pieces, merge_ranges, overlay
from repro.common.errors import PackedNodeError
from repro.common.version import VersionStamp
from repro.delta.format import Delta
from repro.net.messages import (
    Message,
    MetaOp,
    UploadDelta,
    UploadTruncate,
    UploadWrite,
    UploadWriteBatch,
)
from repro.obs import NULL_OBS, Observability


_SEQ = attrgetter("seq")
#: A node comes due at most this many upload delays after it first joined.
COALESCE_CLAMP = 4.0


@dataclass
class QueueNode:
    """Base of all Sync Queue nodes."""

    path: str
    seq: int = -1
    enqueue_time: float = 0.0
    # When the node first joined the queue. ``enqueue_time`` is refreshed on
    # every coalesced write (the debounce), so it cannot answer "how long
    # did this node's coalescing window last" — this can.
    created_time: float = 0.0
    base_version: Optional[VersionStamp] = None
    new_version: Optional[VersionStamp] = None

    def payload_bytes(self) -> int:
        """Approximate bytes this node will put on the wire."""
        return 0

    def names(self) -> Tuple[str, ...]:
        """Every path this node names (the queue indexes it under each)."""
        return (self.path,)

    def to_message(self) -> Optional[Message]:
        """The message this node ships as (``None``: nothing to ship) —
        what the uploader sends and what crash recovery replays."""
        raise TypeError(f"cannot serialize {type(self).__name__}")


@dataclass
class WriteNode(QueueNode):
    """Coalesced intercepted writes to one file (NFS-like file RPC).

    ``base`` is the file's content when the node opened, by reference: the
    old version a large in-place update is delta-encoded against when the
    node packs (Section III-A's undo log). It is never journaled.
    """

    writes: List[Tuple[int, bytes]] = field(default_factory=list)
    packed: bool = False
    base: Optional[object] = field(default=None, compare=False, repr=False)
    _spans: Optional[List[Tuple[int, int]]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def add_write(self, offset: int, data: bytes) -> None:
        """Attach one write; only legal while unpacked."""
        if self.packed:
            raise PackedNodeError(
                f"cannot append writes to packed node seq={self.seq} "
                f"({self.path!r})",
                path=self.path,
                seq=self.seq,
            )
        self.writes.append((offset, data))

    def pack(self) -> None:
        """Freeze the node (file state changed, or upload is imminent)."""
        self.packed = True

    def merged_writes(self) -> List[Tuple[int, bytes]]:
        """Writes coalesced for upload: overlapping/adjacent runs merged,
        a later write winning where writes overlap.

        A run that is exactly one write is that write's own ``bytes``
        object, shared with the node, not copied (the client takes its one
        snapshot of the caller's buffer at interception). A run merged from
        several writes is built with one copy of the bytes that show.
        """
        pieces = overlay(self.writes)
        runs: List[Tuple[int, bytes]] = []
        k = 0
        for offset, length in self.merged_spans():
            first, end = k, offset + length
            while k < len(pieces) and pieces[k][0] < end:
                k += 1
            runs.append((offset, join_pieces(pieces[first:k])))
        return runs

    def merged_spans(self) -> List[Tuple[int, int]]:
        """The writes' ranges, merged. A packed node of several writes
        keeps them (its writes are final), so the pack-time
        :meth:`rewritten_fraction` and the upload share one merge. A lone
        write's are made again: cheaper than keeping a list alive from
        pack to upload, which moved collector pauses into the op that
        packs."""
        spans = self._spans
        if spans is None:
            spans = merge_ranges([(offset, len(data)) for offset, data in self.writes])
            if self.packed and len(self.writes) > 1:
                self._spans = spans
        return spans

    def rewritten_fraction(self, base_size: int, size: int) -> float:
        """Fraction of the ``base_size``-byte base that the node's writes
        overwrote, plus a truncate's cut ``[size, base_size)``. Appends have
        no old bytes and do not count; an empty base gives 0."""
        if base_size <= 0:
            return 0.0
        # The merged spans are disjoint: sum what they cover below the cut,
        # then add the cut itself.
        cut = min(size, base_size)
        covered = base_size - cut
        for offset, length in self.merged_spans():
            if offset < cut:
                covered += min(offset + length, cut) - offset
        return covered / base_size

    def payload_bytes(self) -> int:
        return sum(len(d) for _, d in self.writes)

    def to_message(self) -> Optional[Message]:
        runs = self.merged_writes()
        if not runs:
            return None
        if len(runs) == 1:
            offset, data = runs[0]
            return UploadWrite(
                path=self.path,
                offset=offset,
                data=data,
                base_version=self.base_version,
                new_version=self.new_version,
            )
        return UploadWriteBatch(
            path=self.path,
            runs=tuple(runs),
            base_version=self.base_version,
            new_version=self.new_version,
        )


@dataclass
class TruncateNode(QueueNode):
    """A truncate to be replayed on the cloud."""

    length: int = 0

    def to_message(self) -> Message:
        return UploadTruncate(
            path=self.path,
            length=self.length,
            base_version=self.base_version,
            new_version=self.new_version,
        )


@dataclass
class DeltaNode(QueueNode):
    """A delta produced by triggered (bitwise) delta encoding.

    Carries two base references: ``base_version`` is the version the target
    path is expected to hold when the node applies (conflict detection —
    inherited from the write node the delta replaced), while
    ``content_base`` names the old-version snapshot the delta's COPY
    instructions read from (the preserved pre-update content).
    """

    delta: Delta = field(default_factory=Delta)
    content_base: Optional[VersionStamp] = None

    def payload_bytes(self) -> int:
        return self.delta.wire_size()

    def to_message(self) -> Message:
        return UploadDelta(
            path=self.path,
            delta=self.delta,
            base_version=self.base_version,
            new_version=self.new_version,
            content_base=self.content_base,
        )


@dataclass
class MetaNode(QueueNode):
    """A namespace operation: create/rename/link/unlink/mkdir/rmdir."""

    kind: str = ""
    dest: Optional[str] = None

    def names(self) -> Tuple[str, ...]:
        if self.dest is None or self.dest == self.path:
            return (self.path,)
        return (self.path, self.dest)

    def to_message(self) -> Message:
        return MetaOp(
            kind=self.kind,
            path=self.path,
            dest=self.dest,
            new_version=self.new_version,
        )


@dataclass
class UploadUnit:
    """What the pump hands to the network: one node, or an atomic group."""

    nodes: List[QueueNode]
    transactional: bool

    @property
    def single(self) -> QueueNode:
        if len(self.nodes) != 1:
            raise ValueError("not a single-node unit")
        return self.nodes[0]


class SyncQueue:
    """The queue itself. Not thread-safe by design — the reproduction is
    single-threaded and deterministic; the paper's lock-free MPSC structure
    is a C-implementation concern, not an algorithmic one (see DESIGN.md).
    """

    def __init__(
        self, *, upload_delay: float = 3.0, obs: Observability = NULL_OBS
    ):
        self.upload_delay = upload_delay
        # The debounce refreshes ``enqueue_time`` on every coalesced write,
        # so a continuously-written hot file would keep the queue head
        # un-due forever and starve everything behind it. ``created_time``
        # clamps the coalescing window: a node always comes due at most
        # ``COALESCE_CLAMP`` upload delays after it first joined.
        self.max_coalesce_delay = COALESCE_CLAMP * upload_delay
        self.obs = obs
        self._nodes: List[QueueNode] = []  # live nodes, FIFO by seq
        self._active_writes: Dict[str, WriteNode] = {}  # the hash table
        # name -> the live nodes naming it, as their own path or as a
        # rename/link destination: {seq: node}, in FIFO order since seqs
        # only grow — or the node itself while it is the only one, the
        # usual case, which spares a dict per enqueued node.
        self._naming: Dict[str, Union[QueueNode, Dict[int, QueueNode]]] = {}
        self._spans: List[Tuple[int, int]] = []  # merged backindex spans
        # Called with the merged spans whenever a surgery changes them (the
        # client journals them: after a crash they say which queued nodes
        # must still ship as one unit).
        self.on_spans: Optional[Callable[[List[Tuple[int, int]]], None]] = None
        self._next_seq = 0
        # Real "now" during drain_all, where drain_due runs with a
        # far-future clock that would corrupt the wait and open times the
        # shipped and packed events carry.
        self._telemetry_now: Optional[float] = None

    # -- enqueue side ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def enqueue(self, node: QueueNode, now: float) -> QueueNode:
        """Append a node at the tail."""
        node.seq = self._next_seq
        self._next_seq += 1
        node.enqueue_time = now
        node.created_time = now
        self._nodes.append(node)
        naming = self._naming
        for name in node.names():
            held = naming.get(name)
            if held is None:
                naming[name] = node
            elif isinstance(held, dict):
                held[node.seq] = node
            else:
                naming[name] = {held.seq: held, node.seq: node}
        if isinstance(node, WriteNode) and not node.packed:
            self._active_writes[node.path] = node
        if self.obs.enabled:
            kind = type(node).__name__
            self.obs.inc("queue.nodes.created", kind=kind)
            self.obs.event(
                "queue.node.created", path=node.path, kind=kind, seq=node.seq
            )
            self._update_gauges()
        return node

    def restore(self, unit: Sequence[QueueNode], now: float) -> None:
        """Re-admit one journaled unit during crash recovery.

        Its nodes get fresh seqs (journal replay preserves relative order
        by re-admitting units in old-seq order), enter *packed* — their
        coalescing window ended when the process died, and post-recovery
        writes to the same path must open a fresh node rather than mutate
        replayed history — and, more than one, share a backindex span
        again: they ship as the one transactional unit they were.
        """
        for node in unit:
            if isinstance(node, WriteNode):
                node.packed = True
            self.enqueue(node, now)
        if len(unit) > 1:
            self._add_span(unit[0].seq, unit[-1].seq)

    def note_coalesced(self, node: WriteNode, offset: int, nbytes: int) -> None:
        """Record that a write was absorbed into an active node (telemetry)."""
        if node.packed:
            raise PackedNodeError(
                f"coalesced a write into packed node seq={node.seq} "
                f"({node.path!r})",
                path=node.path,
                seq=node.seq,
            )
        if self.obs.enabled:
            self.obs.inc("queue.nodes.coalesced")
            self.obs.event(
                "queue.node.coalesced",
                path=node.path,
                seq=node.seq,
                offset=offset,
                bytes=nbytes,
            )
            self._update_gauges()

    def active_write_node(self, path: str) -> Optional[WriteNode]:
        """The unpacked write node for ``path``, if any (hash-table lookup)."""
        return self._active_writes.get(path)

    def still_writing(self, version: Optional[VersionStamp]) -> bool:
        """Whether an unpacked write node mints ``version``: its bytes are not
        final yet (a hard-linked file's node absorbs writes through any name)."""
        return any(n.new_version == version for n in self._active_writes.values())

    def pack(self, path: str, now: float) -> Optional[WriteNode]:
        """Pack ``path``'s active write node; returns it if one existed.

        Called whenever the file's state changes (close/rename/delete/
        truncate) so a recreated file with the same name gets a fresh node
        (Section III-B's corruption scenario).
        """
        node = self._active_writes.pop(path, None)
        if node is not None:
            node.pack()
            if self.obs.enabled:
                self._note_packed(node, now)
        return node

    def pending_nodes(self, path: str) -> List[QueueNode]:
        """All queued nodes for ``path`` in FIFO order."""
        return [n for n in self.nodes_naming(path) if n.path == path]

    def nodes_naming(self, name: str) -> List[QueueNode]:
        """All queued nodes that name ``name`` — as their own path or as
        the destination of a rename/link — in FIFO order."""
        held = self._naming.get(name)
        if held is None:
            return []
        return list(held.values()) if isinstance(held, dict) else [held]

    def nodes(self) -> List[QueueNode]:
        """Snapshot of all live nodes in FIFO order."""
        return list(self._nodes)

    # -- node surgery (the backindex-generating operations) ----------------

    def replace_with_delta(
        self, doomed: Sequence[QueueNode], delta_node: "DeltaNode", now: float
    ) -> DeltaNode:
        """Delta replacement: remove ``doomed``, append the delta at the tail.

        Records the backindex span from the earliest removed position to the
        delta node — the delta logically *is* those writes, so everything
        between must apply transactionally with it (Figure 7).
        """
        if self.obs.enabled and doomed:
            self.obs.inc("queue.nodes.replaced_by_delta", len(doomed))
            self.obs.event(
                "queue.node.replaced_by_delta",
                path=delta_node.path,
                replaced_seqs=[n.seq for n in doomed],
                delta_seq=self._next_seq,
                delta_bytes=delta_node.payload_bytes(),
                replaced_bytes=sum(n.payload_bytes() for n in doomed),
            )
        self._remove(doomed)
        self.enqueue(delta_node, now)
        if doomed:
            self._add_span(min(n.seq for n in doomed), delta_node.seq)
        return delta_node

    def cancel_nodes(self, doomed: Sequence[QueueNode]) -> None:
        """Drop never-uploaded nodes (e.g. create+writes of a deleted file).

        The hole left behind gets a backindex span to the current tail so
        the cloud never observes a prefix that skips the removed effects
        (the create-a/b/c-delete-a example of Section III-E).
        """
        if not doomed:
            return
        if self.obs.enabled:
            self.obs.inc("queue.nodes.cancelled", len(doomed))
            for node in doomed:
                self.obs.event(
                    "queue.node.cancelled",
                    path=node.path,
                    seq=node.seq,
                    kind=type(node).__name__,
                )
        first = min(n.seq for n in doomed)
        self._remove(doomed)
        after = bisect_right(self._nodes, first, key=_SEQ)
        if after < len(self._nodes):
            self._add_span(self._nodes[after].seq, self._nodes[-1].seq)
        if self.obs.enabled:
            self._update_gauges()

    def _remove(self, doomed: Sequence[QueueNode]) -> None:
        # The list is in seq order, so each doomed node is found by
        # bisection; one that already left the queue is skipped.
        nodes = self._nodes
        for node in doomed:
            at = bisect_left(nodes, node.seq, key=_SEQ)
            if at == len(nodes) or nodes[at] is not node:
                continue
            del nodes[at]
            self._forget_names((node,))
            if self._active_writes.get(node.path) is node:
                del self._active_writes[node.path]

    def _forget_names(self, gone: Iterable[QueueNode]) -> None:
        """``gone`` left the queue (removed or shipped): unfile them."""
        naming = self._naming
        for node in gone:
            for name in node.names():
                held = naming[name]
                if held is node:
                    del naming[name]
                else:
                    del held[node.seq]
                    if not held:
                        del naming[name]

    def note_mutation(self, node: QueueNode) -> None:
        """A non-tail node was modified in place; record its span.

        Used when writes batch onto an older write node while newer nodes
        already sit behind it (the Figure 7 situation).
        """
        if self._nodes and node.seq < self._nodes[-1].seq:
            self._add_span(node.seq, self._nodes[-1].seq)

    def _add_span(self, start: int, end: int) -> None:
        if end < start:
            return
        self.obs.inc("queue.spans.recorded")
        spans = sorted(self._spans + [(start, end)])
        merged = [spans[0]]
        for s, e in spans[1:]:
            ls, le = merged[-1]
            if s <= le:
                merged[-1] = (ls, max(le, e))
            else:
                merged.append((s, e))
        if merged != self._spans:
            self._spans = merged
            if self.on_spans is not None:
                self.on_spans(merged)

    def spans(self) -> List[Tuple[int, int]]:
        """Current merged backindex spans (for inspection/tests)."""
        return list(self._spans)

    # -- upload side -------------------------------------------------------

    def drain_due(self, now: float) -> List[UploadUnit]:
        """All currently-due upload units, collected in one queue sweep.

        Semantically identical to calling the per-node reference
        :func:`repro.core._reference.next_unit` until it returns
        ``None`` — same FIFO and transactional-span rules, same obs
        events in the same order — but the backing list is rebuilt
        once per wakeup instead of once per shipped node, so a deep
        queue drains in O(n) rather than O(n²). This is what the client
        pump calls.
        """
        units: List[UploadUnit] = []
        nodes = self._nodes
        total = len(nodes)
        i = 0
        while i < total:
            head = nodes[i]
            span = self._span_containing(head.seq)
            if span is None:
                if not self._due(head, now):
                    break
                i += 1
                if isinstance(head, WriteNode):
                    self._pack_for_upload(head, now)
                unit = UploadUnit(nodes=[head], transactional=False)
            else:
                # Seqs are FIFO-increasing, so a span's live members are a
                # contiguous run starting at the head — no full-list scan.
                start, end = span
                j = i
                while j < total and nodes[j].seq <= end:
                    j += 1
                members = nodes[i:j]
                if not all(self._due(m, now) for m in members):
                    break
                i = j
                self._spans.remove(span)
                for member in members:
                    if isinstance(member, WriteNode):
                        self._pack_for_upload(member, now)
                if self.obs.enabled:
                    self.obs.inc("queue.units.transactional")
                unit = UploadUnit(nodes=members, transactional=True)
            if self.obs.enabled:
                self._note_shipped(unit.nodes, now, transactional=unit.transactional)
            units.append(unit)
        if i:
            self._forget_names(nodes[:i])
            self._nodes = nodes[i:]
            if self.obs.enabled:
                self._update_gauges()
        return units

    def drain_all(self, now: float) -> List[UploadUnit]:
        """Ship everything regardless of delay (shutdown / final flush)."""
        far_future = now + self.upload_delay + 1e9
        self._telemetry_now = now
        try:
            return self.drain_due(far_future)
        finally:
            self._telemetry_now = None

    def queued_bytes(self) -> int:
        """Total payload bytes waiting."""
        return sum(n.payload_bytes() for n in self._nodes)

    # -- internals ---------------------------------------------------------

    def _due(self, node: QueueNode, now: float) -> bool:
        return (
            now - node.enqueue_time >= self.upload_delay
            or now - node.created_time >= self.max_coalesce_delay
        )

    def _note_shipped(
        self, nodes: Sequence[QueueNode], now: float, *, transactional: bool
    ) -> None:
        if self._telemetry_now is not None:
            now = self._telemetry_now
        self.obs.inc("queue.nodes.shipped", len(nodes))
        for node in nodes:
            self.obs.event(
                "queue.node.shipped",
                path=node.path,
                seq=node.seq,
                kind=type(node).__name__,
                payload_bytes=node.payload_bytes(),
                transactional=transactional,
                waited=max(0.0, now - node.enqueue_time),
            )
        self._update_gauges()

    def _note_packed(self, node: WriteNode, now: float) -> None:
        if self._telemetry_now is not None:
            now = self._telemetry_now
        self.obs.inc("queue.nodes.packed")
        self.obs.event(
            "queue.node.packed",
            path=node.path,
            seq=node.seq,
            writes=len(node.writes),
            payload_bytes=node.payload_bytes(),
            open_for=now - node.created_time,
        )

    def _update_gauges(self) -> None:
        self.obs.set_gauge("queue.depth", len(self._nodes))
        self.obs.set_gauge("queue.bytes.queued", self.queued_bytes())

    def _span_containing(self, seq: int) -> Optional[Tuple[int, int]]:
        for span in self._spans:
            if span[0] <= seq <= span[1]:
                return span
        return None

    def _pack_for_upload(self, node: WriteNode, now: float) -> None:
        if not node.packed:
            node.pack()
            if self.obs.enabled:
                self._note_packed(node, now)
        if self._active_writes.get(node.path) is node:
            del self._active_writes[node.path]
