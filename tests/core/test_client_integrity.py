"""Tests for the client's integrity machinery (Section III-E)."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.common.errors import CorruptionDetected
from repro.common.rng import DeterministicRandom
from repro.core.client import DeltaCFSClient
from repro.faults.crash import inject_crash_inconsistency, restart
from repro.kvstore.kv import MemoryKV
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem


def build(config=None, with_server=True):
    clock = VirtualClock()
    server = CloudServer() if with_server else None
    client = DeltaCFSClient(
        MemoryFileSystem(),
        server=server,
        channel=Channel(),
        clock=clock,
        config=config,
        journal_kv=MemoryKV(),
    )
    return clock, client, server


def settle(clock, client, seconds=6):
    for _ in range(seconds):
        clock.advance(1.0)
        client.pump()
    client.flush()


def _seed(client, clock, path="/f", size=64 * 1024):
    content = DeterministicRandom(5).random_bytes(size)
    client.create(path)
    client.write(path, 0, content)
    client.close(path)
    settle(clock, client)
    return content


class TestCorruption:
    def test_read_detects_and_recovers_from_cloud(self):
        clock, client, server = build()
        content = _seed(client, clock)
        client.inner.corrupt("/f", 10_000)
        data = client.read("/f", 0, None)
        assert data == content  # recovered transparently
        assert client.stats.corruptions_detected == 1
        assert client.stats.recoveries == 1
        assert client.inner.read_file("/f") == content  # local repaired

    def test_detection_without_server_raises(self):
        clock, client, _ = build(with_server=False)
        client.create("/f")
        client.write("/f", 0, b"d" * 8192)
        client.close("/f")
        client.inner.corrupt("/f", 100)
        with pytest.raises(CorruptionDetected):
            client.read("/f", 0, None)

    def test_corruption_never_uploaded(self):
        clock, client, server = build()
        content = _seed(client, clock)
        client.inner.corrupt("/f", 10_000)
        # a user write elsewhere must not drag the corrupt block upstream
        client.write("/f", 50_000, b"legit")
        client.close("/f")
        settle(clock, client)
        server_content = server.file_content("/f")
        assert server_content[10_000] == content[10_000]
        assert server_content[50_000:50_005] == b"legit"

    def test_checksums_disabled_is_blind(self):
        config = DeltaCFSConfig(enable_checksums=False)
        clock, client, server = build(config=config)
        content = _seed(client, clock)
        client.inner.corrupt("/f", 10_000)
        data = client.read("/f", 0, None)  # no detection possible
        assert data != content
        assert client.stats.corruptions_detected == 0


class TestCrashConsistency:
    """The post-crash path is ``restart`` -> ``recover()``: the sweep flags
    what disagrees with the durable checksums and the repair keeps the
    write that was in flight."""

    def test_scan_flags_torn_file(self):
        clock, client, server = build()
        _seed(client, clock)
        client.write("/f", 1024, b"in-flight")
        inject_crash_inconsistency(client.inner, "/f", seed=1)
        report = restart(client).recover()
        assert report.damaged_paths == ["/f"]

    def test_clean_crash_passes_scan(self):
        clock, client, server = build()
        _seed(client, clock)
        client.write("/f", 1024, b"in-flight")
        # writes that reached the FS match their checksums: no false alarm
        report = restart(client).recover()
        assert report.damaged_paths == []
        assert report.bytes_downloaded == 0

    def test_recover_pulls_cloud_version(self):
        clock, client, server = build()
        content = _seed(client, clock)
        client.write("/f", 1024, b"in-flight")
        intended = client.inner.read_file("/f")
        inject_crash_inconsistency(client.inner, "/f", seed=2)
        assert client.inner.read_file("/f") != intended
        reborn = restart(client)
        report = reborn.recover()
        # the torn blocks come from the cloud, the in-flight write is kept
        assert 0 < report.bytes_downloaded < len(content) // 4
        assert report.full_file_fallbacks == 0
        assert reborn.inner.read_file("/f") == intended
        # the restored file passes a fresh scan
        assert reborn.checksums.mismatched_blocks("/f", intended) == []
        settle(clock, reborn)
        assert server.file_content("/f") == intended

    def test_crash_loses_queue(self):
        clock, client, server = build()
        _seed(client, clock)
        client.write("/f", 0, b"never-uploaded")
        reborn = restart(client)
        assert len(reborn.queue) == 0
        # ... and the journal gives it back: the dirty set is the report's
        assert reborn.recover().dirty_paths == ["/f"]
        assert len(reborn.queue) == 1

    def test_scan_requires_checksums(self):
        # without a Checksum Store the sweep has nothing to compare against
        config = DeltaCFSConfig(enable_checksums=False)
        clock, client, _ = build(config=config)
        _seed(client, clock)
        inject_crash_inconsistency(client.inner, "/f", seed=1)
        report = restart(client).recover()
        assert report.damaged_paths == [] and report.blocks_repaired == 0

    def test_scan_skips_missing_files(self):
        clock, client, server = build()
        _seed(client, clock)
        client.create("/ghost")
        client.write("/ghost", 0, b"journaled, then gone beneath the stack")
        client.inner.unlink("/ghost")
        report = restart(client).recover()
        assert "/ghost" in report.dirty_paths
        assert report.damaged_paths == []

    def test_scan_skips_directories(self):
        clock, client, server = build()
        _seed(client, clock)
        client.mkdir("/d")  # pending at the cut: the dirty set names it
        client.create("/d/f")
        client.write("/d/f", 0, b"x" * 5000)
        reborn = restart(client)
        report = reborn.recover()
        assert report.dirty_paths == ["/d", "/d/f"]
        assert report.damaged_paths == []
        settle(clock, reborn)
        assert server.file_content("/d/f") == b"x" * 5000

    def test_scan_reports_only_inconsistency(self, monkeypatch):
        # A bug inside the sweep is a bug, not crash damage.
        clock, client, server = build()
        _seed(client, clock)
        reborn = restart(client)

        def broken(path, content):
            raise KeyError(path)

        monkeypatch.setattr(reborn.checksums, "mismatched_blocks", broken)
        with pytest.raises(KeyError):
            reborn.recover()


class CountingFileSystem(MemoryFileSystem):
    """Counts what the layers above read of the backing store."""

    def __init__(self):
        super().__init__()
        self.bytes_read = 0
        self.whole_file_reads = 0

    def read(self, path, offset=0, length=None):
        data = super().read(path, offset, length)
        self.bytes_read += len(data)
        return data

    def read_file(self, path):
        self.whole_file_reads += 1
        return super().read_file(path)


class TestChecksumWorkFollowsTheOperation:
    """Maintaining and verifying block checksums reads the blocks an
    operation touched, never the file (over a paged file a whole-file read
    is an O(file) join per op)."""

    BLOCK = 4096

    def _seeded(self):
        clock = VirtualClock()
        fs = CountingFileSystem()
        client = DeltaCFSClient(
            fs, server=CloudServer(), channel=Channel(), clock=clock
        )
        content = _seed(client, clock, size=1024 * 1024)
        fs.bytes_read = fs.whole_file_reads = 0
        return clock, client, fs, content

    def test_small_write_reads_at_most_two_blocks(self):
        clock, client, fs, content = self._seeded()
        client.write("/f", 500_000, b"z" * 24)
        assert fs.whole_file_reads == 0
        assert fs.bytes_read <= self.BLOCK  # the touched block; no copy-out
        fs.bytes_read = 0
        client.write("/f", 2 * self.BLOCK - 4, b"straddle")
        assert fs.whole_file_reads == 0
        assert fs.bytes_read <= 2 * self.BLOCK
        client.close("/f")
        settle(clock, client)
        expected = bytearray(content)
        expected[500_000:500_024] = b"z" * 24
        expected[2 * self.BLOCK - 4 : 2 * self.BLOCK + 4] = b"straddle"
        assert client.read("/f", 0, None) == bytes(expected)  # every block verifies
        assert client.stats.corruptions_detected == 0

    def test_small_verified_read_reads_at_most_two_blocks(self):
        _, client, fs, content = self._seeded()
        assert client.read("/f", 700_000, 24) == content[700_000:700_024]
        assert fs.whole_file_reads == 0
        assert fs.bytes_read <= 2 * self.BLOCK
        client.inner.corrupt("/f", 700_100)
        assert client.read("/f", 700_000, 24) == content[700_000:700_024]
        assert client.stats.corruptions_detected == 1  # same block, other bytes

    def test_write_through_a_hard_link_reads_the_span_once_more(self):
        clock, client, fs, _ = self._seeded()
        client.link("/f", "/g")
        fs.bytes_read = fs.whole_file_reads = 0
        client.write("/g", 300_000, b"y" * 24)
        assert fs.whole_file_reads == 0
        assert fs.bytes_read <= 3 * self.BLOCK
        assert client.read("/f", 300_000, 24) == b"y" * 24
        assert client.stats.corruptions_detected == 0
