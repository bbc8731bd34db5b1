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

from repro.common.bytesutil import changed_fraction, merge_ranges
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
        """Writes coalesced for upload: overlapping/adjacent runs merged.

        Later writes win where ranges overlap — replay order is preserved
        by materializing each merged range in write order.
        """
        if not self.writes:
            return []
        spans = merge_ranges([(off, len(d)) for off, d in self.writes])
        out: List[Tuple[int, bytes]] = []
        for span_off, span_len in spans:
            buffer = bytearray(span_len)
            for offset, data in self.writes:
                rel = offset - span_off
                if rel + len(data) <= 0 or rel >= span_len:
                    continue
                buffer[max(rel, 0) : rel + len(data)] = data[
                    max(-rel, 0) :
                ]
            out.append((span_off, bytes(buffer)))
        return out

    def rewritten_fraction(self, base_size: int, size: int) -> float:
        """Fraction of the ``base_size``-byte base that the node's writes
        overwrote, plus a truncate's cut ``[size, base_size)``. Appends have
        no old bytes and do not count; an empty base gives 0."""
        if base_size <= 0:
            return 0.0
        spans = [
            (offset, min(offset + len(data), base_size) - offset)
            for offset, data in self.writes
            if offset < base_size
        ]
        if size < base_size:
            spans.append((size, base_size - size))
        return changed_fraction(spans, base_size)

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
        self,
        *,
        upload_delay: float = 3.0,
        capacity: int = 4096,
        max_coalesce_delay: Optional[float] = None,
        obs: Observability = NULL_OBS,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.upload_delay = upload_delay
        # The debounce refreshes ``enqueue_time`` on every coalesced write,
        # so a continuously-written hot file would keep the queue head
        # un-due forever and starve everything behind it. ``created_time``
        # clamps the coalescing window: a node always comes due at most
        # ``max_coalesce_delay`` after it first joined (default 4x the
        # upload delay).
        self.max_coalesce_delay = (
            max_coalesce_delay
            if max_coalesce_delay is not None
            else 4.0 * upload_delay
        )
        self.capacity = capacity
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
        # Real "now" during drain_all, where next_unit runs with a
        # far-future clock that would corrupt wait-time telemetry.
        self._telemetry_now: Optional[float] = None

    # -- enqueue side ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def full(self) -> bool:
        """Back-pressure signal (Table III: "Sync Queue becomes full")."""
        return len(self._nodes) >= self.capacity

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

    def pack(self, path: str) -> Optional[WriteNode]:
        """Pack ``path``'s active write node; returns it if one existed.

        Called whenever the file's state changes (close/rename/delete/
        truncate) so a recreated file with the same name gets a fresh node
        (Section III-B's corruption scenario).
        """
        node = self._active_writes.pop(path, None)
        if node is not None:
            node.pack()
            if self.obs.enabled:
                self.obs.inc("queue.nodes.packed")
                self.obs.event(
                    "queue.node.packed",
                    path=node.path,
                    seq=node.seq,
                    writes=len(node.writes),
                    payload_bytes=node.payload_bytes(),
                )
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

    def next_unit(self, now: float) -> Optional[UploadUnit]:
        """The next FIFO upload unit whose delay has elapsed, or ``None``.

        A node inside a backindex span only ships when every live node of
        the span is due, and then the whole span ships as one transactional
        unit. FIFO order is never violated: if the head isn't ready,
        nothing ships.
        """
        if not self._nodes:
            return None
        head = self._nodes[0]
        span = self._span_containing(head.seq)
        if span is None:
            if not self._due(head, now):
                return None
            self._nodes.pop(0)
            self._forget_names((head,))
            if isinstance(head, WriteNode):
                self._pack_for_upload(head)
            if self.obs.enabled:
                self._note_shipped([head], now, transactional=False)
            return UploadUnit(nodes=[head], transactional=False)

        start, end = span
        members = [n for n in self._nodes if start <= n.seq <= end]
        if not members:
            self._spans.remove(span)
            return self.next_unit(now)
        if not all(self._due(n, now) for n in members):
            return None
        member_seqs = {n.seq for n in members}
        self._nodes = [n for n in self._nodes if n.seq not in member_seqs]
        self._forget_names(members)
        self._spans.remove(span)
        for node in members:
            if isinstance(node, WriteNode):
                self._pack_for_upload(node)
        if self.obs.enabled:
            self.obs.inc("queue.units.transactional")
            self._note_shipped(members, now, transactional=True)
        return UploadUnit(nodes=members, transactional=True)

    def drain_due(self, now: float) -> List[UploadUnit]:
        """All currently-due upload units, collected in one queue sweep.

        Semantically identical to calling :meth:`next_unit` until it
        returns ``None`` — same FIFO and transactional-span rules, same
        obs events in the same order — but the backing list is rebuilt
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
                    self._pack_for_upload(head)
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
                        self._pack_for_upload(member)
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
        """Total payload bytes waiting (back-pressure metric)."""
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
            payload = node.payload_bytes()
            self.obs.observe("queue.node.payload_bytes", payload)
            self.obs.observe(
                "queue.node.wait_time", max(0.0, now - node.enqueue_time)
            )
            self.obs.event(
                "queue.node.shipped",
                path=node.path,
                seq=node.seq,
                kind=type(node).__name__,
                payload_bytes=payload,
                transactional=transactional,
            )
        self._update_gauges()

    def _update_gauges(self) -> None:
        self.obs.set_gauge("queue.depth", len(self._nodes))
        self.obs.set_gauge("queue.bytes.queued", self.queued_bytes())

    def _span_containing(self, seq: int) -> Optional[Tuple[int, int]]:
        for span in self._spans:
            if span[0] <= seq <= span[1]:
                return span
        return None

    def _pack_for_upload(self, node: WriteNode) -> None:
        if not node.packed:
            node.pack()
            if self.obs.enabled:
                self.obs.inc("queue.nodes.packed")
                self.obs.event(
                    "queue.node.packed",
                    path=node.path,
                    seq=node.seq,
                    writes=len(node.writes),
                    payload_bytes=node.payload_bytes(),
                )
        if self._active_writes.get(node.path) is node:
            del self._active_writes[node.path]
