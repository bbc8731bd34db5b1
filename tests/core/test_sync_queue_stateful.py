"""Stateful property test of the Sync Queue.

A hypothesis rule machine interleaves the queue's whole surface — writes,
packing, delta replacement, cancellation, uploads at arbitrary times — and
checks the global invariants after every step:

- every enqueued payload byte is eventually uploaded exactly once, unless
  its node was explicitly removed (replaced/cancelled);
- upload order never inverts enqueue order (FIFO);
- backindex spans only ever ship as transactional units;
- the active-write-node hash table never points at a packed node;
- the per-path view answers what a scan of the queue answers.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core._reference import next_unit
from repro.core.sync_queue import DeltaNode, MetaNode, SyncQueue, WriteNode
from repro.delta.format import Delta, Literal

PATHS = ["/p0", "/p1", "/p2"]


class SyncQueueMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.queue = SyncQueue(upload_delay=1.0)
        self.now = 0.0
        self.uploaded_seqs = []
        self.removed_seqs = set()
        self.enqueued = {}  # seq -> node

    # -- actions -----------------------------------------------------------

    @rule(path=st.sampled_from(PATHS), size=st.integers(min_value=1, max_value=64))
    def write(self, path, size):
        node = self.queue.active_write_node(path)
        if node is None:
            node = WriteNode(path=path)
            self.queue.enqueue(node, self.now)
            self.enqueued[node.seq] = node
        else:
            self.queue.note_mutation(node)
            node.enqueue_time = self.now
        offset = sum(len(d) for _, d in node.writes)
        node.add_write(offset, b"w" * size)

    @rule(path=st.sampled_from(PATHS), dest=st.none() | st.sampled_from(PATHS))
    def meta(self, path, dest):
        kind = "create" if dest is None else "rename"
        node = MetaNode(path=path, kind=kind, dest=dest)
        self.queue.enqueue(node, self.now)
        self.enqueued[node.seq] = node

    @rule(path=st.sampled_from(PATHS), dest=st.none() | st.sampled_from(PATHS))
    def restore(self, path, dest):
        # Crash recovery re-admits journaled nodes: writes come back packed.
        if dest is None:
            node = WriteNode(path=path, writes=[(0, b"r")])
        else:
            node = MetaNode(path=path, kind="link", dest=dest)
        self.queue.restore([node], self.now)
        self.enqueued[node.seq] = node
        assert self.queue.active_write_node(path) is not node

    @rule(path=st.sampled_from(PATHS))
    def pack(self, path):
        self.queue.pack(path, self.now)

    @rule(path=st.sampled_from(PATHS))
    def replace_with_delta(self, path):
        doomed = [
            n
            for n in self.queue.nodes()
            if n.path == path and isinstance(n, WriteNode)
        ]
        if not doomed:
            return
        delta = DeltaNode(path=path, delta=Delta.from_ops([Literal(b"d")]))
        self.queue.replace_with_delta(doomed, delta, self.now)
        self.enqueued[delta.seq] = delta
        self.removed_seqs.update(n.seq for n in doomed)

    @rule(path=st.sampled_from(PATHS))
    def cancel(self, path):
        doomed = self.queue.pending_nodes(path)
        if doomed:
            self.queue.pack(path, self.now)
            self.queue.cancel_nodes(doomed)
            self.removed_seqs.update(n.seq for n in doomed)

    @rule(dt=st.floats(min_value=0.1, max_value=3.0))
    def advance(self, dt):
        self.now += dt

    @rule()
    def pump(self):
        while True:
            unit = next_unit(self.queue, self.now)
            if unit is None:
                break
            if unit.transactional:
                assert len(unit.nodes) >= 1
            for node in unit.nodes:
                self.uploaded_seqs.append(node.seq)

    @rule()
    def drain(self):
        # What the client pump calls: every due unit in one sweep.
        for unit in self.queue.drain_due(self.now):
            for node in unit.nodes:
                self.uploaded_seqs.append(node.seq)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def fifo_upload_order(self):
        assert self.uploaded_seqs == sorted(self.uploaded_seqs)

    @invariant()
    def no_double_upload(self):
        assert len(self.uploaded_seqs) == len(set(self.uploaded_seqs))

    @invariant()
    def removed_never_uploaded(self):
        assert not (set(self.uploaded_seqs) & self.removed_seqs)

    @invariant()
    def active_nodes_unpacked(self):
        for path in PATHS:
            node = self.queue.active_write_node(path)
            if node is not None:
                assert not node.packed

    @invariant()
    def per_path_view_matches_a_scan(self):
        live = self.queue.nodes()
        for path in PATHS:
            assert self.queue.pending_nodes(path) == [
                n for n in live if n.path == path
            ]
            assert self.queue.nodes_naming(path) == [
                n for n in live if path in (n.path, getattr(n, "dest", None))
            ]

    @invariant()
    def conservation(self):
        # every node is either still queued, uploaded, or removed
        live = {n.seq for n in self.queue.nodes()}
        accounted = live | set(self.uploaded_seqs) | self.removed_seqs
        assert set(self.enqueued) == accounted

    def teardown(self):
        # final drain: everything left must come out, in order
        for unit in self.queue.drain_all(self.now):
            for node in unit.nodes:
                self.uploaded_seqs.append(node.seq)
        assert self.uploaded_seqs == sorted(self.uploaded_seqs)
        assert not (set(self.uploaded_seqs) & self.removed_seqs)


TestSyncQueueStateful = SyncQueueMachine.TestCase
TestSyncQueueStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
