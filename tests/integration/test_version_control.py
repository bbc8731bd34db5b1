"""Fine-grained version control end to end (paper Section III-C)."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError
from repro.common.rng import DeterministicRandom
from repro.core.client import DeltaCFSClient
from repro.kvstore.kv import MemoryKV
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.server.storage import VersionedStore
from repro.sim import Simulation
from repro.vfs.filesystem import MemoryFileSystem


def build():
    clock = VirtualClock()
    server = CloudServer()
    client = DeltaCFSClient(
        MemoryFileSystem(), server=server, channel=Channel(), clock=clock
    )
    return clock, client, server


def settle(clock, *clients, seconds=6):
    for _ in range(seconds):
        clock.advance(1.0)
        for c in clients:
            c.pump()
    for c in clients:
        c.flush()


def _edit_cycle(client, clock, path, versions_content):
    for content in versions_content:
        client.truncate(path, 0)
        client.write(path, 0, content)
        client.close(path)
        settle(clock, client)


class TestHistory:
    def test_node_granularity_versions(self):
        clock, client, server = build()
        client.create("/f")
        client.write("/f", 0, b"v1")
        client.close("/f")
        settle(clock, client)
        client.write("/f", 0, b"v2")
        client.close("/f")
        settle(clock, client)
        history = client.version_history("/f")
        # create + two write nodes = three versions
        assert len(history) == 3
        assert history == sorted(history)

    def test_history_survives_rename_dance(self):
        # the lineage of f continues across the Word save pattern
        clock, client, server = build()
        old = bytes(range(256)) * 100
        client.create("/doc")
        client.write("/doc", 0, old)
        client.close("/doc")
        settle(clock, client)
        before = len(client.version_history("/doc"))

        new = old[:10_000] + b"!" + old[10_000:]
        client.rename("/doc", "/t0")
        client.create("/t1")
        client.write("/t1", 0, new)
        client.close("/t1")
        client.rename("/t1", "/doc")
        client.unlink("/t0")
        settle(clock, client)
        history = client.version_history("/doc")
        assert len(history) > before  # the save added versions to /doc

    def test_history_accounting_on_wire(self):
        clock, client, server = build()
        client.create("/f")
        client.write("/f", 0, b"x")
        client.close("/f")
        settle(clock, client)
        up_before = client.channel.stats.up_bytes
        down_before = client.channel.stats.down_bytes
        client.version_history("/f")
        assert client.channel.stats.up_bytes > up_before
        assert client.channel.stats.down_bytes > down_before


class TestRestore:
    def test_restore_old_content(self):
        clock, client, server = build()
        client.create("/f")
        _edit_cycle(client, clock, "/f", [b"first version", b"second version"])
        history = client.version_history("/f")
        # find the stamp whose snapshot is "first version"
        target = next(
            v for v in history if server.store.snapshot(v) == b"first version"
        )
        restored = client.restore_version("/f", target)
        assert restored == b"first version"
        assert client.inner.read_file("/f") == b"first version"
        assert server.file_content("/f") == b"first version"

    def test_restore_cancels_pending_local_edits(self):
        clock, client, server = build()
        client.create("/f")
        _edit_cycle(client, clock, "/f", [b"stable"])
        history = client.version_history("/f")
        client.write("/f", 0, b"UNSAVED")  # pending, never uploaded
        client.restore_version("/f", history[-1])
        settle(clock, client)
        assert server.file_content("/f") == b"stable"
        assert client.inner.read_file("/f") == b"stable"

    def test_restore_forwards_to_peers(self):
        clock = VirtualClock()
        server = CloudServer()
        a = DeltaCFSClient(
            MemoryFileSystem(), server=server, channel=Channel(), clock=clock, client_id=1
        )
        b = DeltaCFSClient(
            MemoryFileSystem(), server=server, channel=Channel(), clock=clock, client_id=2
        )
        a.create("/f")
        _edit_cycle(a, clock, "/f", [b"old", b"new"])
        settle(clock, a, b)
        assert b.inner.read_file("/f") == b"new"
        history = a.version_history("/f")
        target = next(v for v in history if server.store.snapshot(v) == b"old")
        a.restore_version("/f", target)
        settle(clock, a, b)
        assert b.inner.read_file("/f") == b"old"

    def test_aged_out_version_not_restorable(self):
        server = CloudServer(store=VersionedStore(snapshot_window=2))
        clock = VirtualClock()
        client = DeltaCFSClient(
            MemoryFileSystem(), server=server, channel=Channel(), clock=clock
        )
        client.create("/f")
        _edit_cycle(client, clock, "/f", [b"a", b"b", b"c", b"d"])
        full_lineage = server.store.history("/f")
        restorable = client.version_history("/f")
        assert len(restorable) < len(full_lineage)  # window pruned old ones
        aged_out = full_lineage[0]
        with pytest.raises(NotFoundError):
            client.restore_version("/f", aged_out)

    def test_checksums_follow_restore(self):
        clock, client, server = build()
        client.create("/f")
        _edit_cycle(client, clock, "/f", [b"one" * 3000, b"two" * 5000])
        history = client.version_history("/f")
        target = next(
            v for v in history if server.store.snapshot(v) == b"one" * 3000
        )
        client.restore_version("/f", target)
        # a verified read passes: the checksum store was reindexed
        assert client.read("/f", 0, None) == b"one" * 3000
        assert client.stats.corruptions_detected == 0

    def test_no_server_raises(self):
        client = DeltaCFSClient(MemoryFileSystem(), server=None)
        with pytest.raises(RuntimeError):
            client.version_history("/f")


class TestRestoreSupersedesPendingState:
    """A restore replaces the path's content, so everything the client held
    against the replaced content goes with it: queued nodes (and the old
    version an open write node holds), and the stale checksums and versions
    of the path's hard-linked names."""

    @staticmethod
    def _two_synced_versions(sim):
        """``/f`` synced twice; returns both contents and the first stamp."""
        client = sim.client
        rng = DeterministicRandom(20)
        first, second = rng.random_bytes(100_000), rng.random_bytes(100_000)
        client.create("/f")
        stamps = []
        for content in (first, second):
            client.write("/f", 0, content)
            client.close("/f")
            sim.settle()
            sim.flush()
            stamps.append(client.versions["/f"])
        return first, second, stamps[0]

    def test_restore_forgets_the_undo_log(self):
        sim = Simulation(journal_kv=MemoryKV())
        client = sim.client
        _, second, v1 = self._two_synced_versions(sim)
        client.write("/f", 0, b"\x5a" * 60_000)  # in place, left open
        held = client.queue.active_write_node("/f")
        assert held is not None and bytes(held.base) == second
        client.restore_version("/f", v1)
        assert client.queue.active_write_node("/f") is None
        assert client.journal.load().nodes == []
        # The next large in-place edit must be packed against the restored
        # content, not against an "old version" rebuilt from stale spans.
        client.write("/f", 10_000, second[10_000:80_000])
        client.close("/f")
        sim.settle()
        sim.flush()
        assert sim.mismatched() == []
        assert sim.converged()
        assert client.stats.conflicts == 0

    def test_restore_realigns_hard_linked_names(self):
        sim = Simulation()
        client = sim.client
        first, _, v1 = self._two_synced_versions(sim)
        client.link("/f", "/g")
        sim.settle()
        sim.flush()
        client.restore_version("/f", v1)
        assert client.read("/g") == first  # a verified read: no false alarm
        assert client.stats.corruptions_detected == 0
        assert client.stats.recoveries == 0
        assert client.versions["/g"] == client.versions["/f"] == v1
