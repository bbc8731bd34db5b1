"""Tests for the crash-recovery journal (repro.core.recovery).

The contract under test: everything the client *intends* to sync is
journaled durably as it is intercepted, and after a crash (``restart``: a
new client over the disk, the link and the journal + checksum KVs)
``Client.recover()`` converges the
client and the cloud byte-identically — re-uploading only dirty data and
re-downloading only damaged blocks, never whole files it can avoid.
"""

import pytest

from repro.common.clock import VirtualClock
from repro.common.rng import DeterministicRandom
from repro.common.version import VersionStamp
from repro.core.client import DeltaCFSClient
from repro.core.recovery import (
    _RUN,
    SyncJournal,
    decode_node,
    encode_node,
)
from repro.core.relation_table import RelationEntry
from repro.core.sync_queue import (
    DeltaNode,
    MetaNode,
    TruncateNode,
    WriteNode,
)
from repro.delta.format import Delta
from repro.faults.crash import inject_crash_inconsistency, restart
from repro.kvstore import wal
from repro.kvstore.kv import LogStructuredKV, MemoryKV
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem


def _build(client_id=1, fs=None, server=None, clock=None, jkv=None, ckv=None):
    clock = clock or VirtualClock()
    server = server or CloudServer()
    fs = fs or MemoryFileSystem()
    client = DeltaCFSClient(
        fs,
        server=server,
        channel=Channel(),
        clock=clock,
        client_id=client_id,
        checksum_kv=ckv if ckv is not None else MemoryKV(),
        journal_kv=jkv if jkv is not None else MemoryKV(),
    )
    return client, fs, server, clock


def _settle(client, clock, rounds=6):
    for _ in range(rounds):
        clock.advance(1.0)
        client.pump(clock.now())
    client.flush()


class TestNodeCodec:
    def _roundtrip(self, node):
        clone = decode_node(encode_node(node))
        assert type(clone) is type(node)
        assert clone.path == node.path
        assert clone.base_version == node.base_version
        assert clone.new_version == node.new_version
        return clone

    def test_write_node(self):
        node = WriteNode(
            "/a.txt",
            base_version=VersionStamp(1, 4),
            new_version=VersionStamp(1, 5),
        )
        node.add_write(0, b"hello")
        node.add_write(4096, b"\x00\xff" * 10)
        node.pack()
        clone = self._roundtrip(node)
        assert clone.writes == node.writes
        assert clone.packed is True

    def test_unpacked_write_node(self):
        node = WriteNode("/a", new_version=VersionStamp(2, 1))
        node.add_write(7, b"x")
        clone = self._roundtrip(node)
        assert clone.packed is False

    def test_truncate_node(self):
        node = TruncateNode("/t", length=12345, new_version=VersionStamp(1, 9))
        assert self._roundtrip(node).length == 12345

    def test_delta_node(self):
        from repro.delta.bitwise import bitwise_delta
        from repro.delta.patch import apply_delta

        old = bytes(range(256)) * 32
        new = old[:4000] + b"edit" + old[4000:]
        node = DeltaNode(
            "/d",
            base_version=VersionStamp(1, 2),
            new_version=VersionStamp(1, 3),
            delta=bitwise_delta(old, new, 4096),
            content_base=VersionStamp(1, 1),
        )
        clone = self._roundtrip(node)
        assert clone.content_base == node.content_base
        assert apply_delta(old, clone.delta) == new

    def test_meta_node(self):
        node = MetaNode("/old", kind="rename", dest="/new",
                        new_version=VersionStamp(3, 1))
        clone = self._roundtrip(node)
        assert clone.kind == "rename"
        assert clone.dest == "/new"

    def test_meta_node_no_dest(self):
        node = MetaNode("/gone", kind="unlink")
        clone = self._roundtrip(node)
        assert clone.dest is None


class TestStrictDecode:
    # Regressions: the hand-written journal decoders sliced without bounds
    # checks, so a damaged record came back as a *shorter write* instead of
    # an error (round-trip, every-prefix and trailing-byte coverage for all
    # records lives in tests/common/test_wire.py).

    RECORD = encode_node(WriteNode(path="/a", writes=[(0, b"hello world")]))

    def test_shortened_record_is_not_a_shorter_write(self):
        # used to return writes=[(0, b"hello w")]
        with pytest.raises(ValueError, match="truncated"):
            decode_node(self.RECORD[:-4])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            decode_node(self.RECORD + b"\x00")

    def test_lying_length_prefix_rejected(self):
        lying = bytearray(self.RECORD)
        lying[-15:-11] = (1 << 20).to_bytes(4, "big")  # the run's data length
        assert bytes(lying[-11:]) == b"hello world"
        with pytest.raises(ValueError, match="truncated"):
            decode_node(bytes(lying))

    def test_lying_run_count_rejected(self):
        lying = bytearray(self.RECORD)
        lying[-27:-23] = (2).to_bytes(4, "big")  # claims a second run
        with pytest.raises(ValueError, match="truncated"):
            decode_node(bytes(lying))

    def test_empty_record_is_a_value_error(self):
        with pytest.raises(ValueError):  # used to be IndexError
            decode_node(b"")

    def test_short_truncate_record_is_a_value_error(self):
        record = encode_node(TruncateNode("/t", length=7))
        with pytest.raises(ValueError):  # used to be struct.error
            decode_node(record[:-3])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown journal node tag 0x09"):
            decode_node(b"\x09" + self.RECORD[1:])

    def test_non_node_is_a_type_error(self):
        with pytest.raises(TypeError):
            encode_node(object())

    def test_load_names_the_offending_key(self):
        kv = MemoryKV()
        journal = SyncJournal(kv)
        node = WriteNode("/w", seq=3)
        node.add_write(0, b"hello world")
        journal.record_node(node)
        ((key, value),) = list(kv.items())
        kv.put(key, value[:-4])
        with pytest.raises(ValueError, match=r"corrupt journal record b'j\\x00node.*truncated"):
            journal.load()


class TestSyncJournal:
    def test_roundtrip(self):
        kv = MemoryKV()
        journal = SyncJournal(kv)
        journal.record_vercnt(17)
        node = WriteNode("/w", seq=3)
        node.add_write(0, b"abc")
        journal.record_node(node)
        journal.record_relation(
            RelationEntry(src="/r", dst="/r~", origin="rename", created_at=1.5)
        )
        state = journal.load()
        assert state.vercnt == 17
        assert [seq for seq, _ in state.nodes] == [3]
        assert state.relations[0].src == "/r"

    def test_forget(self):
        journal = SyncJournal(MemoryKV())
        node = WriteNode("/w", seq=1)
        node.add_write(0, b"x")
        journal.record_node(node)
        journal.forget_node(1)
        journal.record_relation(
            RelationEntry(src="/r", dst="/d", origin="unlink", created_at=0.0)
        )
        journal.forget_relation("/r")
        state = journal.load()
        assert state.nodes == []
        assert state.relations == []

    def test_nodes_load_in_seq_order(self):
        journal = SyncJournal(MemoryKV())
        for seq in (5, 2, 9):
            node = MetaNode("/m%d" % seq, seq=seq, kind="create")
            journal.record_node(node)
        assert [s for s, _ in journal.load().nodes] == [2, 5, 9]

    def test_unsequenced_node_rejected(self):
        with pytest.raises(ValueError):
            SyncJournal(MemoryKV()).record_node(WriteNode("/w"))


def _coalesced(journal, seq, writes):
    """A write node journaled as the client journals one: whole at its
    first write, then each write it absorbs on its own."""
    node = WriteNode("/w", seq=seq)
    for offset, data in writes:
        node.add_write(offset, data)
        if len(node.writes) == 1:
            journal.record_node(node)
        else:
            journal.record_write(node)
    return node


class _CountingKV(MemoryKV):
    def __init__(self):
        super().__init__()
        self.puts, self.put_bytes, self.deletes = 0, 0, 0

    def put(self, key, value):
        self.puts += 1
        self.put_bytes += len(key) + len(value)
        super().put(key, value)

    def delete(self, key):
        self.deletes += 1
        super().delete(key)


class TestCoalescedWrites:
    """A write node is journaled once, then each write it absorbs alone."""

    def test_a_write_node_loads_with_every_write_it_absorbed(self):
        journal = SyncJournal(MemoryKV())
        writes = [(i * 10, bytes([65 + i]) * 10) for i in range(12)]
        node = _coalesced(journal, 7, writes)
        other = _coalesced(journal, 8, [(0, b"z")])
        assert journal.load().nodes == [(7, node), (8, other)]

    def test_forget_drops_every_record_of_the_node(self):
        kv = MemoryKV()
        journal = SyncJournal(kv)
        _coalesced(journal, 3, [(0, b"a"), (5, b"b"), (9, b"c")])
        journal.forget_node(3)
        assert list(kv.items()) == []

    def test_a_loaded_node_is_forgotten_whole(self):
        kv = MemoryKV()
        _coalesced(SyncJournal(kv), 3, [(0, b"a"), (5, b"b")])
        reopened = SyncJournal(kv)
        assert len(reopened.load().nodes[0][1].writes) == 2
        reopened.forget_node(3)
        assert list(kv.items()) == []

    def test_a_one_write_node_is_one_put_and_one_delete(self):
        kv = _CountingKV()
        journal = SyncJournal(kv)
        _coalesced(journal, 1, [(0, b"x" * 100)])
        journal.forget_node(1)
        assert (kv.puts, kv.deletes) == (1, 1)

    def test_a_file_written_in_pieces_journals_its_bytes_once(self):
        # 100 sequential 4 KB writes re-journaled the whole node on every
        # write: 103 puts of 20 750 056 B for 409 600 B written.
        kv = _CountingKV()
        client, _, _, _ = _build(jkv=kv)
        client.create("/f")
        for i in range(100):
            client.write("/f", i * 4096, bytes([i]) * 4096)
        assert kv.put_bytes <= 2 * 100 * 4096
        (node,) = [
            node for _, node in client.journal.load().nodes
            if isinstance(node, WriteNode)
        ]
        assert node.writes == [(i * 4096, bytes([i]) * 4096) for i in range(100)]

    def test_writes_whose_node_record_is_gone_are_discarded(self):
        # A power cut between a forget's first delete and the rest.
        kv = MemoryKV()
        journal = SyncJournal(kv)
        _coalesced(journal, 4, [(0, b"a"), (5, b"b")])
        journal.kv.delete(next(key for key, _ in kv.items(b"j\x00node\x00")))
        assert journal.load().nodes == []
        assert list(kv.items()) == []

    def test_a_torn_last_write_record_loads_the_writes_before_it(self, tmp_path):
        log = tmp_path / "journal.wal"
        kv = LogStructuredKV(str(log), sync=True)
        writes = [(0, b"a" * 50), (50, b"b" * 50), (100, b"c" * 50)]
        node = _coalesced(SyncJournal(kv), 2, writes)
        kv.close()
        raw = log.read_bytes()
        *_, (op, key, value) = wal.iter_records(raw)
        assert op == wal.PUT and value == _RUN.encode((100, b"c" * 50))
        last = len(wal.encode_record(op, key, value))
        log.write_bytes(raw[: len(raw) - last // 2])
        reopened = LogStructuredKV(str(log), sync=True)
        try:
            (seq, loaded), = SyncJournal(reopened).load().nodes
            assert seq == 2 and loaded.writes == node.writes[:2]
        finally:
            reopened.close()


class TestRecovery:
    def test_journal_drains_as_uploads_complete(self):
        client, fs, server, clock = _build()
        client.create("/f")
        client.write("/f", 0, b"d" * 1000)
        client.close("/f")
        assert len(client.journal.load().nodes) > 0
        _settle(client, clock)
        assert client.journal.load().nodes == []

    def test_crash_recover_converges(self):
        client, fs, server, clock = _build()
        content = bytes((i * 37) % 256 for i in range(64 * 1024))
        client.create("/f")
        client.write("/f", 0, content)
        client.close("/f")
        _settle(client, clock)
        # dirty burst, then the lights go out
        client.write("/f", 100, b"A" * 300)
        client.write("/f", 30_000, b"B" * 2000)
        expected = fs.read_file("/f")
        client = restart(client)
        assert len(client.queue) == 0
        report = client.recover()
        assert report.nodes_replayed >= 1
        _settle(client, clock)
        assert fs.read_file("/f") == expected
        assert server.file_content("/f") == expected

    @pytest.mark.parametrize("crash", [False, True])
    def test_an_open_inplace_update_ships_as_its_write_node_after_a_crash(
        self, crash
    ):
        # An open write node's old version is a reference, not journaled: a
        # restored node enters packed and ships as the writes it holds,
        # which its records already carry in full. Without the crash the
        # same 78 % rewrite packs against its base into a small delta.
        client, fs, server, clock = _build()
        content = DeterministicRandom(7).random_bytes(128 * 1024)
        client.create("/f")
        client.write("/f", 0, content)
        client.close("/f")
        _settle(client, clock)
        rewrite = bytearray(content[:100 * 1024])
        for pos in range(0, len(rewrite), 25 * 1024):
            rewrite[pos] ^= 0xFF
        client.write("/f", 0, bytes(rewrite))  # left open
        expected = fs.read_file("/f")
        if crash:
            client = restart(client)
            client.recover()
        shipped = []
        handle = server.handle
        server.handle = lambda m, **kw: shipped.append(m) or handle(m, **kw)
        client.close("/f")
        _settle(client, clock)
        assert server.file_content("/f") == fs.read_file("/f") == expected
        assert client.stats.conflicts == 0
        assert client.stats.inplace_deltas == (0 if crash else 1)
        (message,) = shipped
        if crash:  # the 100 KB run, as it was journaled
            assert message.wire_size() == 102_442
        else:  # the four blocks the flips touched, the rest copied
            assert message.wire_size() < 5 * 4096

    def test_recover_repairs_injected_damage(self):
        client, fs, server, clock = _build()
        content = bytes((i * 131 + 17) % 256 for i in range(128 * 1024))
        client.create("/f")
        client.write("/f", 0, content)
        client.close("/f")
        _settle(client, clock)
        expected = fs.read_file("/f")
        inject_crash_inconsistency(fs, "/f", seed=3)
        client = restart(client)
        report = client.recover()
        assert report.blocks_repaired > 0
        assert report.full_file_fallbacks == 0
        # downloaded only the damaged span's blocks, not the file
        assert report.bytes_downloaded < len(content) // 4
        _settle(client, clock)
        assert fs.read_file("/f") == expected
        assert server.file_content("/f") == expected

    def test_already_applied_intent_not_reuploaded(self):
        # A crash in the ack window, reached over a transport: the upload
        # lands on the cloud at 20.0x, the partition starting at 20 drops
        # its ack, and the journal still holds the unit. The server's
        # exactly-once window, not a version comparison, says it landed.
        from repro.faults.network import NetworkFaults
        from repro.sim import Simulation

        sim = Simulation(
            faults=NetworkFaults(partitions=((20, 40),)),
            journal_kv=MemoryKV(), checksum_kv=MemoryKV(),
        )
        client = sim.client
        client.create("/f")
        client.close("/f")
        sim.settle(12)
        sim.clock.advance(16.99 - sim.clock.now())
        client.write("/f", 0, b"k" * 5000)
        client.close("/f")
        sim.clock.advance(3.0)
        sim.pump()
        sim.settle(6)
        assert client.transport.inflight_depth == 1
        assert sim.server.file_content("/f") == b"k" * 5000
        assert len(client.journal.load().units) == 1
        client = sim.restart(client)
        up_before = client.channel.stats.up_bytes
        report = client.recover()
        assert report.nodes_already_applied == 1
        assert report.nodes_replayed == 0
        assert client.journal.load().nodes == []
        sim.clock.advance(41 - sim.clock.now())
        sim.settle(12)
        # metadata renegotiation only — the 5000 payload bytes never move
        assert client.channel.stats.up_bytes - up_before < 1000
        assert sim.converged() and client.stats.conflicts == 0

    def test_node_record_without_unit_record_was_never_shipped(self):
        client, fs, server, clock = _build()
        client.create("/f")
        client.write("/f", 0, b"k" * 5000)
        client.close("/f")
        _settle(client, clock)
        # Even a node whose version the cloud holds is re-sent: only an
        # envelope's unit record can say that it landed.
        ghost = WriteNode("/f", seq=999, new_version=server.file_version("/f"))
        ghost.add_write(0, b"k" * 5000)
        client.journal.record_node(ghost)
        client = restart(client)
        report = client.recover()
        assert report.nodes_already_applied == 0
        assert report.nodes_replayed == 1

    def test_pending_rename_survives_crash(self):
        client, fs, server, clock = _build()
        client.create("/a")
        client.write("/a", 0, b"body" * 100)
        client.close("/a")
        _settle(client, clock)
        client.rename("/a", "/b")
        client = restart(client)
        client.recover()
        _settle(client, clock)
        assert server.store.exists("/b")
        assert not server.store.exists("/a")
        assert server.file_content("/b") == fs.read_file("/b")

    def test_recover_without_journal_raises(self):
        import pytest

        clock = VirtualClock()
        client = DeltaCFSClient(
            MemoryFileSystem(), server=CloudServer(), clock=clock
        )
        with pytest.raises(RuntimeError):
            client.recover()

    def test_version_counter_never_reissues(self):
        client, fs, server, clock = _build()
        client.create("/f")
        client.write("/f", 0, b"v1")
        client.close("/f")
        _settle(client, clock)
        minted_before = client._counter.current
        client = restart(client)
        assert client._counter.current == 0  # volatile counter died
        client.recover()
        assert client._counter.current >= minted_before


class TestCrashAtRandomPoints:
    """Stateful sweep: crash after every prefix of a seeded op sequence;
    recovery must always converge client and cloud byte-identically."""

    def _random_ops(self, rng, paths):
        ops = []
        for _ in range(12):
            path = paths[rng.randint(0, len(paths) - 1)]
            roll = rng.randint(0, 9)
            if roll < 6:
                offset = rng.randint(0, 48 * 1024)
                ops.append(("write", path, offset, rng.random_bytes(
                    rng.randint(1, 4096))))
            elif roll < 8:
                ops.append(("close", path))
            else:
                ops.append(("truncate", path, rng.randint(1, 32 * 1024)))
        return ops

    def _apply(self, client, op):
        if op[0] == "write":
            client.write(op[1], op[2], op[3])
        elif op[0] == "close":
            client.close(op[1])
        elif op[0] == "truncate":
            client.truncate(op[1], op[2])

    def test_converges_from_any_crash_point(self):
        paths = ["/x", "/y"]
        for seed in (1, 2, 3, 5, 8):
            rng = DeterministicRandom(seed).fork("ops")
            ops = self._random_ops(DeterministicRandom(seed).fork("gen"), paths)
            crash_at = rng.randint(1, len(ops))
            client, fs, server, clock = _build()
            for path in paths:
                client.create(path)
                client.write(path, 0, bytes(
                    (i + seed) % 256 for i in range(32 * 1024)))
                client.close(path)
            _settle(client, clock)
            for op in ops[:crash_at]:
                self._apply(client, op)
                if rng.randint(0, 3) == 0:
                    clock.advance(1.0)
                    client.pump(clock.now())
            expected = {p: fs.read_file(p) for p in paths}
            if rng.randint(0, 1):
                inject_crash_inconsistency(fs, paths[0], seed=seed)
            client = restart(client)
            client.recover()
            _settle(client, clock, rounds=10)
            for path in paths:
                assert fs.read_file(path) == expected[path], (
                    f"seed={seed} local diverged on {path}"
                )
                assert server.file_content(path) == expected[path], (
                    f"seed={seed} cloud diverged on {path}"
                )


# -- the fold against the applier it replaced --------------------------------

from hypothesis import given, settings, strategies as st

from repro.common.config import DeltaCFSConfig
from repro.core import recovery
from repro.core.checksum_store import ChecksumStore

_BLOCK = 16
_sizes = st.integers(min_value=0, max_value=12 * _BLOCK)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _sizes, st.binary(min_size=1, max_size=40)),
        st.tuples(st.just("truncate"), _sizes),
        st.tuples(st.just("close")),
    ),
    min_size=1,
    max_size=8,
)


def _clipped_overlay_repair(content, bad_blocks, cloud, pending):
    """The block-wise applier ``repair`` replaced, kept as the oracle: per
    damaged run, cloud bytes over the local range, then every pending
    write / truncate *clipped to that range* on a ``bytearray``."""
    data = bytearray(content)
    for start, count in recovery._contiguous_runs(bad_blocks):
        offset = start * _BLOCK
        end = min(offset + count * _BLOCK, len(data))
        chunk = cloud[offset : offset + count * _BLOCK]
        patch = bytearray(data[offset:end])
        patch[: len(chunk)] = chunk[: end - offset]
        for message in pending:
            length = getattr(message, "length", None)
            if length is not None and length < end:
                lo = max(length, offset)
                patch[lo - offset :] = b"\x00" * (end - lo)
            for run_offset, run_data in getattr(message, "runs", ()):
                lo = max(run_offset, offset)
                hi = min(run_offset + len(run_data), end)
                if lo < hi:
                    patch[lo - offset : hi - offset] = run_data[
                        lo - run_offset : hi - run_offset
                    ]
        data[offset:end] = patch
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(
    st.binary(min_size=1, max_size=10 * _BLOCK),
    _ops,
    st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=3),
)
def test_fold_equals_the_clipped_overlay_it_replaced(base, ops, damaged):
    """Random write / batch / truncate chain pending over a synced file, one
    to three blocks torn: splicing the cloud's ranges into the local content
    and folding every pending message over the *whole* file gives, byte for
    byte, what the range-clipped overlay gave — and falls back exactly when
    that would have."""
    clock = VirtualClock()
    server = CloudServer()
    client = DeltaCFSClient(
        MemoryFileSystem(),
        server=server,
        channel=Channel(),
        clock=clock,
        config=DeltaCFSConfig(enable_undo_log=False),
        journal_kv=MemoryKV(),
    )
    client.checksums = ChecksumStore(block_size=_BLOCK)
    client.create("/f")
    client.write("/f", 0, base)
    client.close("/f")
    _settle(client, clock)
    for op in ops:
        getattr(client, op[0])("/f", *op[1:])
    expected = client.inner.read_file("/f")
    pending = recovery.pending_messages(client.queue, ["/f"])

    torn = bytearray(expected)
    for index in damaged:
        lo = index * _BLOCK
        torn[lo : lo + _BLOCK] = bytes(b ^ 0xFF for b in torn[lo : lo + _BLOCK])
    torn = bytes(torn)
    client.inner.write_file("/f", torn)
    bad = client.checksums.mismatched_blocks("/f", torn)

    oracle = _clipped_overlay_repair(torn, bad, server.file_content("/f"), pending)
    settles = not client.checksums.mismatched_blocks("/f", oracle)
    report = recovery.RecoveryReport()
    recovery.repair(client, "/f", clock.now(), report)
    assert report.full_file_fallbacks == (0 if settles else 1)
    assert report.blocks_repaired == len(bad)
    if settles:
        assert client.inner.read_file("/f") == oracle
    assert client.inner.read_file("/f") == expected
