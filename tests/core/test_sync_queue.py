"""Tests for the Sync Queue: write nodes, packing, backindex, FIFO upload."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bytesutil import changed_fraction, merge_ranges
from repro.common.config import DeltaCFSConfig
from repro.common.version import VersionStamp
from repro.core._reference import next_unit
from repro.core.client import DeltaCFSClient
from repro.core.sync_queue import (
    DeltaNode,
    MetaNode,
    SyncQueue,
    TruncateNode,
    WriteNode,
)
from repro.cost.meter import CostMeter
from repro.delta.format import Delta, Literal
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem


def _queue(delay=3.0):
    return SyncQueue(upload_delay=delay)


def _write_node(path="/f", **kwargs):
    return WriteNode(path=path, **kwargs)


class TestWriteNodes:
    def test_writes_attach_to_active_node(self):
        q = _queue()
        node = q.enqueue(_write_node(), now=0.0)
        node.add_write(0, b"aa")
        node.add_write(2, b"bb")
        assert q.active_write_node("/f") is node
        assert node.payload_bytes() == 4

    def test_packed_node_rejects_writes(self):
        node = _write_node()
        node.pack()
        with pytest.raises(ValueError):
            node.add_write(0, b"x")

    def test_pack_clears_hash_table(self):
        q = _queue()
        q.enqueue(_write_node(), now=0.0)
        packed = q.pack("/f", now=1.0)
        assert packed is not None and packed.packed
        assert q.active_write_node("/f") is None

    def test_a_version_is_still_being_written_until_its_node_packs(self):
        q = _queue()
        version = VersionStamp(1, 7)
        q.enqueue(_write_node(new_version=version), now=0.0)
        assert q.still_writing(version)
        assert not q.still_writing(VersionStamp(1, 6))
        q.pack("/f", now=1.0)
        assert not q.still_writing(version)

    def test_pack_missing_returns_none(self):
        assert _queue().pack("/nope", now=0.0) is None

    def test_recreated_file_gets_fresh_node(self):
        # Section III-B: rename-away + recreate must not reuse the node
        q = _queue()
        first = q.enqueue(_write_node(), now=0.0)
        first.add_write(0, b"old")
        q.pack("/f", now=1.0)
        second = q.enqueue(_write_node(), now=0.1)
        second.add_write(0, b"new")
        assert q.active_write_node("/f") is second
        assert first is not second


class TestMergedWrites:
    def test_disjoint_runs(self):
        node = _write_node()
        node.add_write(0, b"aa")
        node.add_write(10, b"bb")
        assert node.merged_writes() == [(0, b"aa"), (10, b"bb")]

    def test_adjacent_coalesce(self):
        node = _write_node()
        node.add_write(0, b"aa")
        node.add_write(2, b"bb")
        assert node.merged_writes() == [(0, b"aabb")]

    def test_overlap_later_wins(self):
        node = _write_node()
        node.add_write(0, b"aaaa")
        node.add_write(2, b"BB")
        assert node.merged_writes() == [(0, b"aaBB")]

    def test_overwrite_completely(self):
        node = _write_node()
        node.add_write(0, b"xxxx")
        node.add_write(0, b"yyyy")
        assert node.merged_writes() == [(0, b"yyyy")]

    def test_empty(self):
        assert _write_node().merged_writes() == []

    def test_a_lone_write_ships_its_own_object(self):
        node = _write_node()
        data = b"q" * 5000
        node.add_write(7, data)
        node.pack()
        ((offset, shipped),) = node.merged_writes()
        assert offset == 7 and shipped is data
        assert node.to_message().data is data

    def test_a_write_covered_whole_by_a_later_one_is_not_shipped(self):
        node = _write_node()
        later = b"y" * 300
        node.add_write(100, b"x" * 100)
        node.add_write(50, later)
        assert node.merged_writes() == [(50, later)]
        assert node.merged_writes()[0][1] is later

    def test_a_packed_node_merges_once(self, monkeypatch):
        # The pack-time fraction and the upload share one merge of the
        # node's write ranges.
        import repro.common.bytesutil as bytesutil
        import repro.core.sync_queue as sync_queue

        merged = []

        def counted(ranges):
            merged.append(list(ranges))
            return merge_ranges(ranges)

        monkeypatch.setattr(bytesutil, "merge_ranges", counted)
        monkeypatch.setattr(sync_queue, "merge_ranges", counted)
        node = _write_node()
        node.add_write(0, b"a" * 10)
        node.add_write(5, b"b" * 10)
        node.pack()
        assert node.rewritten_fraction(20, 20) == 0.75
        assert node.to_message().data == b"a" * 5 + b"b" * 10
        assert merged.count([(0, 10), (5, 10)]) == 1

    @given(
        st.lists(
            st.tuples(st.integers(0, 48), st.binary(max_size=16)), max_size=12
        ),
        st.booleans(),
        st.integers(0, 80),
        st.integers(0, 80),
    )
    def test_merge_is_the_replay_of_the_writes(
        self, writes, packed, base_size, size
    ):
        node = _write_node()
        for offset, data in writes:
            node.add_write(offset, data)
        if packed:
            node.pack()
        end = max((offset + len(data) for offset, data in writes), default=0)
        replay = bytearray(end)
        for offset, data in writes:
            replay[offset : offset + len(data)] = data
        spans = merge_ranges([(offset, len(data)) for offset, data in writes])
        merged = node.merged_writes()
        assert [(offset, len(data)) for offset, data in merged] == spans
        for offset, data in merged:
            assert type(data) is bytes
            assert data == replay[offset : offset + len(data)]
            touching = [
                raw for at, raw in writes
                if raw and at <= offset + len(data) and offset <= at + len(raw)
            ]
            if len(touching) == 1:  # the run is exactly one write
                assert data is touching[0]
        assert node.merged_writes() == merged
        # The pack-time fraction reads the same merge: bit-equal to the
        # fraction of the raw, unmerged writes.
        raw = [
            (offset, min(offset + len(data), base_size) - offset)
            for offset, data in writes
            if offset < base_size
        ]
        if size < base_size:
            raw.append((size, base_size - size))
        expected = changed_fraction(raw, base_size) if base_size > 0 else 0.0
        assert node.rewritten_fraction(base_size, size) == expected


def _client_with(path, content, **config):
    """A never-pumped client whose ``path`` holds ``content``, synced: no
    node is open for it."""
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), config=DeltaCFSConfig(**config)
    )
    client.create(path)
    if content:
        client.write(path, 0, content)
    client.close(path)
    client.flush()
    assert client.queue.active_write_node(path) is None
    return client


class TestWriteNodeBase:
    """A write node holds the file's content as it was when the node opened:
    the old version a large in-place update is delta-encoded against."""

    def test_single_overwrite(self):
        old = b"the quick brown fox"
        client = _client_with("/f", old)
        client.write("/f", 4, b"SLOW ")
        assert client.inner.read_file("/f") == b"the SLOW  brown fox"
        assert bytes(client.queue.active_write_node("/f").base) == old

    def test_multiple_overlapping_writes(self):
        original = b"0123456789"
        client = _client_with("/f", original)
        for offset, data in [(2, b"AB"), (3, b"XY"), (0, b"zz")]:
            client.write("/f", offset, data)
        assert client.inner.read_file("/f") == b"zzAXY56789"
        assert bytes(client.queue.active_write_node("/f").base) == original

    def test_append_recorded_but_not_preserved(self):
        client = _client_with("/f", b"base")
        client.write("/f", 4, b"tail")
        node = client.queue.active_write_node("/f")
        assert bytes(node.base) == b"base"
        assert node.rewritten_fraction(4, 8) == 0.0

    def test_truncation_to_base_size(self):
        # the base has exactly the pre-update length, however the file grew
        old = b"abcdef"
        client = _client_with("/f", old)
        client.write("/f", 0, b"XYZ")
        client.write("/f", 6, b"grown")
        assert client.inner.read_file("/f") == b"XYZdefgrown"
        assert bytes(client.queue.active_write_node("/f").base) == old

    def test_no_base_without_the_undo_log(self):
        client = _client_with("/f", b"old", enable_undo_log=False)
        client.write("/f", 0, b"new")
        assert client.queue.active_write_node("/f").base is None


class TestRewrittenFraction:
    @staticmethod
    def _node(*writes):
        node = _write_node()
        for offset, data in writes:
            node.add_write(offset, data)
        return node

    def test_zero_for_fresh_file(self):
        # appends to an empty file must not look like in-place churn
        assert self._node((0, b"x" * 100)).rewritten_fraction(0, 100) == 0.0

    def test_appends_beyond_base_dont_count(self):
        node = self._node((100, b"y" * 900))
        assert node.rewritten_fraction(100, 1000) == 0.0

    def test_full_overwrite_is_one(self):
        assert self._node((0, b"y" * 100)).rewritten_fraction(100, 100) == 1.0

    def test_partial(self):
        node = self._node((0, b"y" * 30))
        assert abs(node.rewritten_fraction(100, 100) - 0.3) < 1e-9

    def test_no_writes_zero(self):
        assert self._node().rewritten_fraction(100, 100) == 0.0

    def test_overlapping_and_straddling_writes_count_once(self):
        node = self._node((0, b"a" * 40), (20, b"b" * 40), (90, b"c" * 50))
        assert node.rewritten_fraction(100, 140) == 0.7

    def test_a_truncate_cut_counts(self):
        # a truncate to 40 of a 100-byte base rewrote its last 60 bytes
        assert self._node().rewritten_fraction(100, 40) == 0.6
        assert self._node((0, b"y" * 10)).rewritten_fraction(100, 40) == 0.7
        assert self._node((0, b"y" * 10)).rewritten_fraction(100, 150) == 0.1


class TestBaseLifecycle:
    def test_pack_drops_the_base(self):
        client = _client_with("/f", b"old")
        client.write("/f", 0, b"x")
        node = client.queue.active_write_node("/f")
        client.close("/f")
        assert node.packed and node.base is None

    def test_per_path_isolation(self):
        client = _client_with("/a", b"old-a")
        client.create("/b")
        client.write("/b", 0, b"old-b")
        client.close("/b")
        client.flush()
        client.write("/a", 0, b"x")
        client.write("/b", 0, b"y")
        client.close("/a")
        assert client.queue.active_write_node("/a") is None
        assert bytes(client.queue.active_write_node("/b").base) == b"old-b"

    def test_copy_out_charged_as_memcpy(self):
        # "the data to be copied out are usually already cached in memory":
        # the model charges the overwritten bytes at memcpy rate, beside
        # the written ones, and no read of the store
        client = _client_with("/f", b"o" * 1000)
        client.meter = meter = CostMeter()
        client.write("/f", 0, b"x" * 1000)
        client.write("/f", 900, b"y" * 300)  # 100 overwritten, 200 appended
        client.truncate("/f", 400)  # cuts 800
        assert meter.bytes_by_category["write_io"] == 1000 + 1000 + 300 + 100 + 800
        assert meter.by_category.get("scan_read", 0) == 0


class TestFifoUpload:
    def test_nothing_before_delay(self):
        q = _queue(delay=3.0)
        q.enqueue(MetaNode(path="/f", kind="create"), now=0.0)
        assert next_unit(q, now=1.0) is None

    def test_due_after_delay(self):
        q = _queue(delay=3.0)
        q.enqueue(MetaNode(path="/f", kind="create"), now=0.0)
        unit = next_unit(q, now=3.5)
        assert unit is not None
        assert not unit.transactional
        assert unit.single.kind == "create"

    def test_fifo_order(self):
        q = _queue(delay=0.0)
        q.enqueue(MetaNode(path="/a", kind="create"), now=0.0)
        q.enqueue(MetaNode(path="/b", kind="create"), now=0.0)
        assert next_unit(q, 1.0).single.path == "/a"
        assert next_unit(q, 1.0).single.path == "/b"

    def test_head_blocks_tail(self):
        # strict FIFO: a not-yet-due head holds everything behind it
        q = _queue(delay=3.0)
        q.enqueue(MetaNode(path="/late", kind="create"), now=10.0)
        q.enqueue(MetaNode(path="/early", kind="create"), now=0.0)
        assert next_unit(q, now=11.0) is None

    def test_unpacked_write_node_packs_at_upload(self):
        q = _queue(delay=1.0)
        node = q.enqueue(_write_node(), now=0.0)
        node.add_write(0, b"x")
        unit = next_unit(q, now=2.0)
        assert unit.single is node
        assert node.packed
        assert q.active_write_node("/f") is None

    def test_drain_all_ignores_delay(self):
        q = _queue(delay=1000.0)
        q.enqueue(MetaNode(path="/a", kind="create"), now=0.0)
        q.enqueue(MetaNode(path="/b", kind="create"), now=0.0)
        units = q.drain_all(now=0.0)
        assert len(units) == 2
        assert len(q) == 0


class TestDeltaReplacement:
    def test_replace_removes_and_appends(self):
        q = _queue(delay=0.0)
        wn = q.enqueue(_write_node("/t1"), now=0.0)
        wn.add_write(0, b"big" * 100)
        rename = q.enqueue(MetaNode(path="/t1", kind="rename", dest="/f"), now=0.1)
        dn = DeltaNode(path="/f", delta=Delta.from_ops([Literal(b"small")]))
        q.replace_with_delta([wn], dn, now=0.2)
        assert wn.seq not in [n.seq for n in q.nodes()]
        assert q.nodes()[-1] is dn

    def test_replacement_creates_span_over_intervening(self):
        q = _queue(delay=0.0)
        wn = q.enqueue(_write_node("/t1"), now=0.0)
        wn.add_write(0, b"data")
        q.enqueue(MetaNode(path="/t1", kind="rename", dest="/f"), now=0.1)
        dn = DeltaNode(path="/f")
        q.replace_with_delta([wn], dn, now=0.2)
        spans = q.spans()
        assert len(spans) == 1
        start, end = spans[0]
        assert start == wn.seq and end == dn.seq

    def test_span_uploads_as_transaction(self):
        q = _queue(delay=0.0)
        wn = q.enqueue(_write_node("/t1"), now=0.0)
        wn.add_write(0, b"data")
        rename = q.enqueue(MetaNode(path="/t1", kind="rename", dest="/f"), now=0.0)
        dn = DeltaNode(path="/f")
        q.replace_with_delta([wn], dn, now=0.0)
        unit = next_unit(q, now=1.0)
        assert unit.transactional
        assert unit.nodes == [rename, dn]
        assert len(q) == 0

    def test_span_waits_for_all_members_due(self):
        q = _queue(delay=3.0)
        wn = q.enqueue(_write_node("/t1"), now=0.0)
        wn.add_write(0, b"d")
        q.enqueue(MetaNode(path="/t1", kind="rename", dest="/f"), now=0.0)
        dn = DeltaNode(path="/f")
        q.replace_with_delta([wn], dn, now=5.0)  # delta enqueued late
        assert next_unit(q, now=6.0) is None  # delta not due yet
        assert next_unit(q, now=8.5) is not None

    def test_interleaved_spans_merge(self):
        # Section III-E: "If there is interleaving between two backindexes,
        # we merge them"
        q = _queue(delay=0.0)
        w1 = q.enqueue(_write_node("/a"), now=0.0)
        w1.add_write(0, b"1")
        w2 = q.enqueue(_write_node("/b"), now=0.0)
        w2.add_write(0, b"2")
        m = q.enqueue(MetaNode(path="/x", kind="create"), now=0.0)
        d1 = DeltaNode(path="/a")
        q.replace_with_delta([w1], d1, now=0.0)
        d2 = DeltaNode(path="/b")
        q.replace_with_delta([w2], d2, now=0.0)
        assert len(q.spans()) == 1
        unit = next_unit(q, now=1.0)
        assert unit.transactional
        assert set(n.seq for n in unit.nodes) == {m.seq, d1.seq, d2.seq}


class TestCancellation:
    def test_cancel_create_chain(self):
        # create a, create b, create c, delete a (Section III-E example)
        q = _queue(delay=0.0)
        ca = q.enqueue(MetaNode(path="/a", kind="create"), now=0.0)
        cb = q.enqueue(MetaNode(path="/b", kind="create"), now=0.0)
        cc = q.enqueue(MetaNode(path="/c", kind="create"), now=0.0)
        q.cancel_nodes([ca])
        # b and c must now ship transactionally (no prefix shows b without c
        # in any state "a" could have been observed in)
        unit = next_unit(q, now=1.0)
        assert unit.transactional
        assert [n.path for n in unit.nodes] == ["/b", "/c"]

    def test_cancel_tail_leaves_no_span(self):
        q = _queue(delay=0.0)
        ca = q.enqueue(MetaNode(path="/a", kind="create"), now=0.0)
        q.cancel_nodes([ca])
        assert q.spans() == []
        assert next_unit(q, now=1.0) is None


class TestMutationBackindex:
    def test_write_to_non_tail_node_creates_span(self):
        # Figure 7: batching writes onto an older node
        q = _queue(delay=0.0)
        wn = q.enqueue(_write_node("/a"), now=0.0)
        wn.add_write(0, b"1")
        tail = q.enqueue(MetaNode(path="/b", kind="create"), now=0.0)
        q.note_mutation(wn)
        wn.add_write(1, b"2")
        assert q.spans() == [(wn.seq, tail.seq)]

    def test_mutating_tail_no_span(self):
        q = _queue(delay=0.0)
        wn = q.enqueue(_write_node("/a"), now=0.0)
        q.note_mutation(wn)
        assert q.spans() == []


class TestBookkeeping:
    def test_queued_bytes(self):
        q = _queue()
        wn = q.enqueue(_write_node(), now=0.0)
        wn.add_write(0, b"x" * 100)
        tn = q.enqueue(TruncateNode(path="/f", length=0), now=0.0)
        assert q.queued_bytes() == 100

    def test_pending_nodes_by_path(self):
        q = _queue()
        q.enqueue(MetaNode(path="/a", kind="create"), now=0.0)
        q.enqueue(MetaNode(path="/b", kind="create"), now=0.0)
        q.enqueue(MetaNode(path="/a", kind="unlink"), now=0.0)
        assert [n.kind for n in q.pending_nodes("/a")] == ["create", "unlink"]


class TestCoalesceClamp:
    # A hot file's debounce refreshes on every write; without the clamp a
    # steady writer starves its own upload (and, FIFO, everything queued
    # behind it) forever.

    def test_hot_node_ships_by_age(self):
        q = SyncQueue(upload_delay=2.0)  # clamp: 8 s
        node = q.enqueue(_write_node("/hot"), now=0.0)
        node.add_write(0, b"x")
        # writes keep landing: the debounce never elapses
        node.enqueue_time = 7.5
        assert next_unit(q, now=8.0) is not None  # age clamp fired

    def test_quiet_node_still_debounced(self):
        q = SyncQueue(upload_delay=2.0)
        node = q.enqueue(_write_node("/hot"), now=0.0)
        node.add_write(0, b"x")
        node.enqueue_time = 1.0
        assert next_unit(q, now=2.0) is None  # neither delay nor clamp due

    def test_default_clamp_is_four_upload_delays(self):
        q = SyncQueue(upload_delay=3.0)
        assert q.max_coalesce_delay == 12.0

    def test_hot_head_no_longer_starves_tail(self):
        q = SyncQueue(upload_delay=2.0)
        hot = q.enqueue(_write_node("/hot"), now=0.0)
        hot.add_write(0, b"x")
        q.enqueue(MetaNode(path="/other", kind="create"), now=0.5)
        # the hot file is written every second; pre-clamp the head was
        # never due and /other waited forever
        shipped = []
        now = 0.0
        for _ in range(20):
            now += 1.0
            hot.enqueue_time = now  # another write on the hot file
            while True:
                unit = next_unit(q, now)
                if unit is None:
                    break
                shipped.extend(n.path for n in unit.nodes)
        assert "/hot" in shipped
        assert "/other" in shipped


class TestPackedNodeGuard:
    # Satellite of the `repro check` PR: the packed-node-never-rewritten
    # invariant is enforced at runtime with a dedicated error type (and
    # verified over traces as INV-PACKED-FROZEN).

    def test_add_write_raises_packed_node_error(self):
        from repro.common.errors import DeltaCFSError, PackedNodeError

        q = SyncQueue()
        node = q.enqueue(WriteNode(path="/f"), now=0.0)
        node.add_write(0, b"ok")
        q.pack("/f", now=1.0)
        with pytest.raises(PackedNodeError) as excinfo:
            node.add_write(2, b"no")
        assert excinfo.value.path == "/f"
        assert excinfo.value.seq == node.seq
        # Both the library family and legacy ValueError handlers catch it.
        assert isinstance(excinfo.value, DeltaCFSError)
        assert isinstance(excinfo.value, ValueError)

    def test_note_coalesced_guards_packed_nodes(self):
        from repro.common.errors import PackedNodeError

        q = SyncQueue()
        node = q.enqueue(WriteNode(path="/f"), now=0.0)
        node.add_write(0, b"ok")
        q.pack("/f", now=1.0)
        with pytest.raises(PackedNodeError):
            q.note_coalesced(node, 2, 2)

    def test_restored_node_is_frozen(self):
        from repro.common.errors import PackedNodeError

        q = SyncQueue()
        node = WriteNode(path="/f", writes=[(0, b"journaled")])
        q.restore([node], now=1.0)
        with pytest.raises(PackedNodeError):
            node.add_write(9, b"post-crash write")

    def test_restored_unit_ships_as_one_and_reports_its_span(self):
        q = SyncQueue(upload_delay=0.0)
        recorded = []
        q.on_spans = recorded.append
        q.restore([MetaNode(path="/a", kind="create")], now=0.0)
        unit = [MetaNode(path="/t", kind="rename", dest="/a"),
                WriteNode(path="/a", writes=[(0, b"x")])]
        q.restore(unit, now=0.0)
        assert recorded == [[(1, 2)]]
        assert [(len(u.nodes), u.transactional) for u in q.drain_due(1.0)] == [
            (1, False), (2, True)
        ]


class TestDrainDue:
    """The batched per-wakeup sweep must match the per-node slow path."""

    @staticmethod
    def _unit_shape(unit):
        return ([n.seq for n in unit.nodes], unit.transactional)

    @staticmethod
    def _drain_with_next_unit(q, now):
        units = []
        while (unit := next_unit(q, now)) is not None:
            units.append(unit)
        return units

    @staticmethod
    def _populated(delay=3.0):
        """Writes + a delta replacement (span) + more writes behind it."""
        q = SyncQueue(upload_delay=delay)
        for i in range(3):
            node = WriteNode(path=f"/plain{i}")
            q.enqueue(node, now=0.0)
            node.add_write(0, b"x" * 10)
        victim = WriteNode(path="/span-victim")
        q.enqueue(victim, now=0.0)
        victim.add_write(0, b"doomed")
        behind = WriteNode(path="/behind")
        q.enqueue(behind, now=0.0)
        behind.add_write(0, b"y" * 5)
        q.replace_with_delta(
            [victim], DeltaNode(path="/span-victim", delta=Delta()), now=0.0
        )
        tail = WriteNode(path="/tail")
        q.enqueue(tail, now=0.0)
        tail.add_write(0, b"z")
        return q

    def test_matches_next_unit_loop_exactly(self):
        a, b = self._populated(), self._populated()
        fast = a.drain_due(now=10.0)
        slow = self._drain_with_next_unit(b, now=10.0)
        assert [self._unit_shape(u) for u in fast] == [
            self._unit_shape(u) for u in slow
        ]
        assert len(a) == len(b) == 0
        assert a.spans() == b.spans() == []

    def test_stops_at_first_undue_head(self):
        q = SyncQueue(upload_delay=3.0)
        early = WriteNode(path="/early")
        q.enqueue(early, now=0.0)
        early.add_write(0, b"a")
        late = WriteNode(path="/late")
        q.enqueue(late, now=5.0)
        late.add_write(0, b"b")
        units = q.drain_due(now=4.0)  # only /early is due
        assert [u.single.path for u in units] == ["/early"]
        assert [n.path for n in q.nodes()] == ["/late"]

    def test_undue_span_member_blocks_whole_span(self):
        q = self._populated()
        # Refresh a node inside the span so the span is only partly due.
        behind = q.active_write_node("/behind")
        q.note_mutation(behind)
        behind.enqueue_time = 9.0
        behind.add_write(10, b"more")
        units = q.drain_due(now=10.0)
        # The three plain heads ship; the span (and everything after,
        # FIFO) stays.
        assert [u.single.path for u in units] == ["/plain0", "/plain1", "/plain2"]
        assert {n.path for n in q.nodes()} >= {"/behind", "/tail"}
        assert q.drain_due(now=10.0) == []  # still blocked, no progress
        assert len(q.drain_due(now=20.0)) > 0  # due later -> ships

    def test_ships_span_transactionally(self):
        q = self._populated()
        units = q.drain_due(now=10.0)
        transactional = [u for u in units if u.transactional]
        assert len(transactional) == 1
        assert {n.path for n in transactional[0].nodes} == {
            "/behind",
            "/span-victim",
        }

    def test_write_nodes_packed_on_ship(self):
        q = self._populated()
        units = q.drain_due(now=10.0)
        for unit in units:
            for node in unit.nodes:
                if isinstance(node, WriteNode):
                    assert node.packed

    def test_drain_all_equals_far_future_drain_due(self):
        a, b = self._populated(), self._populated()
        assert [self._unit_shape(u) for u in a.drain_all(now=0.0)] == [
            self._unit_shape(u) for u in b.drain_due(now=1e12)
        ]

    def test_empty_queue_returns_no_units(self):
        assert SyncQueue(upload_delay=3.0).drain_due(now=100.0) == []

    def test_obs_parity_with_next_unit_loop(self):
        from repro.obs import Observability

        def run(drain):
            obs = Observability()
            q = self._populated()
            q.obs = obs
            drain(q)
            metrics = obs.metrics.snapshot()
            return {
                k: v
                for k, v in metrics.items()
                if k.startswith("queue.")
            }, obs.distributions.rows()

        batched = run(lambda q: q.drain_due(10.0))
        per_node = run(lambda q: self._drain_with_next_unit(q, 10.0))
        assert batched == per_node


class TestTelemetryTimes:
    """``open_for`` on ``queue.node.packed`` and ``waited`` on
    ``queue.node.shipped`` are read on the caller's clock — never the
    far-future one ``drain_all`` drains with."""

    def _observed(self):
        from repro.obs import Observability

        obs = Observability()
        return SyncQueue(upload_delay=3.0, obs=obs), obs

    def _attrs(self, obs, name):
        return [e.attrs for e in obs.tracer.events() if e.name == name]

    def test_a_state_change_pack_reads_the_callers_now(self):
        q, obs = self._observed()
        q.enqueue(WriteNode(path="/f"), now=1.0)
        q.pack("/f", now=2.5)
        (packed,) = self._attrs(obs, "queue.node.packed")
        assert packed["open_for"] == 1.5

    def test_an_upload_time_pack_reads_the_drain_now(self):
        q, obs = self._observed()
        q.enqueue(WriteNode(path="/f"), now=1.0)
        q.enqueue(WriteNode(path="/g"), now=2.0)
        assert len(q.drain_due(now=4.5)) == 1
        assert len(q.drain_all(now=6.0)) == 1
        assert [a["open_for"] for a in self._attrs(obs, "queue.node.packed")] == [3.5, 4.0]
        assert [a["waited"] for a in self._attrs(obs, "queue.node.shipped")] == [3.5, 4.0]
        assert obs.distributions.samples["queue.node.open_time"] == [3.5, 4.0]
        assert obs.distributions.samples["queue.node.wait_time"] == [3.5, 4.0]
