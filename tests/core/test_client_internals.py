"""Unit tests for DeltaCFSClient bookkeeping details."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.common.errors import CorruptionDetected
from repro.core.client import DeltaCFSClient
from repro.core.sync_queue import MetaNode, WriteNode
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem


def build(config=None):
    clock = VirtualClock()
    srv = CloudServer()
    client = DeltaCFSClient(
        MemoryFileSystem(),
        server=srv,
        channel=Channel(),
        clock=clock,
        config=config,
    )
    return clock, client, srv


class TestVersionBookkeeping:
    def test_create_mints_version(self):
        _, client, _ = build()
        client.create("/f")
        assert client.versions["/f"] is not None

    def test_version_moves_with_rename(self):
        _, client, _ = build()
        client.create("/a")
        version = client.versions["/a"]
        client.rename("/a", "/b")
        assert client.versions["/b"] == version
        assert "/a" not in client.versions

    def test_link_shares_version(self):
        _, client, _ = build()
        client.create("/a")
        client.link("/a", "/b")
        assert client.versions["/b"] == client.versions["/a"]

    def test_unlink_drops_version(self):
        _, client, _ = build()
        client.create("/f")
        client.unlink("/f")
        assert "/f" not in client.versions

    def test_writes_advance_head_once_per_node(self):
        _, client, _ = build()
        client.create("/f")
        v_create = client.versions["/f"]
        client.write("/f", 0, b"a")
        v_node = client.versions["/f"]
        client.write("/f", 1, b"b")  # same node: no new stamp
        assert client.versions["/f"] == v_node
        assert v_node != v_create
        client.close("/f")
        client.write("/f", 2, b"c")  # new node: new stamp
        assert client.versions["/f"] != v_node


class TestPumpMechanics:
    def test_pump_returns_units_shipped(self):
        clock, client, _ = build()
        client.create("/a")
        client.create("/b")
        assert client.pump() == 0  # delay not elapsed
        clock.advance(4.0)
        assert client.pump() == 2

    def test_flush_returns_count(self):
        _, client, _ = build()
        client.create("/a")
        client.write("/a", 0, b"x")
        assert client.flush() == 2  # create + write node

    def test_write_node_due_debounces_from_last_write(self):
        clock, client, _ = build()
        client.create("/f")
        clock.advance(4.0)
        client.pump()  # create shipped
        client.write("/f", 0, b"a")
        clock.advance(2.0)
        client.write("/f", 1, b"b")  # touches the node
        clock.advance(2.0)  # 2s since last write < 3s delay
        assert client.pump() == 0
        clock.advance(1.5)
        assert client.pump() == 1


class TestUnsyncedPaths:
    def test_tmp_dir_ops_not_tracked(self):
        _, client, _ = build()
        tmp = client.config.tmp_dir
        client.inner.mkdir(tmp)
        client.create(f"{tmp}/scratch")
        client.write(f"{tmp}/scratch", 0, b"x")
        assert len(client.queue) == 0
        assert f"{tmp}/scratch" not in client.versions


class TestNoCloudCopy:
    def test_a_damaged_read_without_a_cloud_copy_raises(self):
        _, client, _ = build()
        client.create("/f")  # never pumped: the cloud has no /f
        client.write("/f", 0, b"d" * 100)
        client.inner.corrupt("/f", 10)
        with pytest.raises(CorruptionDetected):
            client.read("/f")
        assert client.stats.recoveries == 0


class TestOpCounters:
    def test_every_surface_op_counted(self):
        _, client, _ = build()
        client.mkdir("/d")
        client.create("/d/f")
        client.write("/d/f", 0, b"x")
        client.read("/d/f", 0, 1)
        client.close("/d/f")
        client.rename("/d/f", "/d/g")
        client.unlink("/d/g")
        client.rmdir("/d")
        assert client.stats.ops_intercepted == 8
        assert client.stats.writes_intercepted == 1
        assert client.stats.bytes_written == 1
