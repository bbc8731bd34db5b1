"""Tests for the real-directory backing store."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError
from repro.core.client import DeltaCFSClient
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.vfs.disk import LocalDirFileSystem


@pytest.fixture
def fs(tmp_path):
    return LocalDirFileSystem(str(tmp_path / "root"))


class TestPosixSemantics:
    def test_create_write_read(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"hello")
        assert fs.read("/f", 0, None) == b"hello"
        assert fs.read("/f", 1, 3) == b"ell"

    def test_create_existing_preserves(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"data")
        fs.create("/f")
        assert fs.read_file("/f") == b"data"

    def test_sparse_write(self, fs):
        fs.create("/f")
        fs.write("/f", 10, b"x")
        assert fs.read_file("/f") == b"\x00" * 10 + b"x"

    def test_truncate_both_ways(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"abcdef")
        fs.truncate("/f", 2)
        assert fs.read_file("/f") == b"ab"
        fs.truncate("/f", 4)
        assert fs.read_file("/f") == b"ab\x00\x00"

    def test_rename_replaces(self, fs):
        fs.write_file("/a", b"new")
        fs.write_file("/b", b"old")
        fs.rename("/a", "/b")
        assert fs.read_file("/b") == b"new"
        assert not fs.exists("/a")

    @pytest.mark.parametrize("op", ["rename", "link"])
    def test_file_onto_directory_refused(self, fs, op):
        # The error MemoryFileSystem raises, not os.replace's own.
        fs.mkdir("/d")
        fs.write_file("/f", b"data")
        with pytest.raises(FileExistsError):
            getattr(fs, op)("/f", "/d")
        assert fs.stat("/d").is_dir
        assert fs.read_file("/f") == b"data"

    def test_hard_links_real_inodes(self, fs):
        fs.write_file("/a", b"shared")
        fs.link("/a", "/b")
        assert fs.stat("/a").nlink == 2
        fs.write("/a", 0, b"SHARED")
        assert fs.read_file("/b") == b"SHARED"
        assert sorted(fs.linked_paths("/a")) == ["/a", "/b"]

    def test_directories(self, fs):
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        assert fs.listdir("/d") == ["f"]
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_missing_file_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.read("/ghost")
        with pytest.raises(NotFoundError):
            fs.write("/ghost", 0, b"x")

    def test_escape_neutralized(self, fs):
        # "/../../etc/passwd" normalizes inside the root: the real
        # /etc/passwd is never reachable (we get NotFound, not its bytes)
        with pytest.raises(NotFoundError):
            fs.read("/../../etc/passwd")
        fs.mkdir("/etc") if not fs.exists("/etc") else None
        fs.write_file("/etc/passwd", b"sandboxed")
        assert fs.read("/../../etc/passwd", 0, None) == b"sandboxed"


class TestDeltaCFSOverRealFiles:
    def test_end_to_end_sync(self, tmp_path):
        clock = VirtualClock()
        server = CloudServer()
        client = DeltaCFSClient(
            LocalDirFileSystem(str(tmp_path / "sync")),
            server=server,
            channel=Channel(),
            clock=clock,
        )
        client.create("/doc.txt")
        client.write("/doc.txt", 0, b"written to a real file")
        client.close("/doc.txt")
        for _ in range(5):
            clock.advance(1.0)
            client.pump()
        client.flush()
        assert server.file_content("/doc.txt") == b"written to a real file"
        # the bytes genuinely exist on disk
        assert (tmp_path / "sync" / "doc.txt").read_bytes() == b"written to a real file"

    def test_transactional_save_over_real_files(self, tmp_path):
        clock = VirtualClock()
        server = CloudServer()
        client = DeltaCFSClient(
            LocalDirFileSystem(str(tmp_path / "sync")),
            server=server,
            channel=Channel(),
            clock=clock,
        )
        old = bytes(range(256)) * 64
        client.create("/doc")
        client.write("/doc", 0, old)
        client.close("/doc")
        for _ in range(5):
            clock.advance(1.0)
            client.pump()
        client.flush()

        new = old[:4000] + b"EDIT" + old[4000:]
        client.rename("/doc", "/t0")
        client.create("/t1")
        client.write("/t1", 0, new)
        client.close("/t1")
        client.rename("/t1", "/doc")
        client.unlink("/t0")
        for _ in range(6):
            clock.advance(1.0)
            client.pump()
        client.flush()
        assert server.file_content("/doc") == new
        assert client.stats.deltas_kept == 1
        assert (tmp_path / "sync" / "doc").read_bytes() == new
