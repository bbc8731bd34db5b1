"""Tests for the in-memory POSIX-like file system."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.errors import NoSpaceError, NotFoundError
from repro.vfs.filesystem import MemoryFileSystem


@pytest.fixture
def fs():
    return MemoryFileSystem()


class TestBasics:
    def test_create_and_read_empty(self, fs):
        fs.create("/a")
        assert fs.read_file("/a") == b""
        assert fs.exists("/a")

    def test_create_existing_keeps_data(self, fs):
        # POSIX open(O_CREAT) on an existing file must not truncate
        fs.create("/a")
        fs.write("/a", 0, b"data")
        fs.create("/a")
        assert fs.read_file("/a") == b"data"

    def test_write_and_read(self, fs):
        fs.create("/a")
        fs.write("/a", 0, b"hello")
        assert fs.read("/a", 0, 5) == b"hello"
        assert fs.read("/a", 1, 3) == b"ell"

    def test_sparse_write(self, fs):
        fs.create("/a")
        fs.write("/a", 10, b"x")
        assert fs.size("/a") == 11
        assert fs.read("/a", 0, 10) == b"\x00" * 10

    def test_write_to_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.write("/nope", 0, b"x")

    def test_read_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.read("/nope")

    def test_truncate_shrink_and_grow(self, fs):
        fs.create("/a")
        fs.write("/a", 0, b"abcdef")
        fs.truncate("/a", 3)
        assert fs.read_file("/a") == b"abc"
        fs.truncate("/a", 5)
        assert fs.read_file("/a") == b"abc\x00\x00"

    def test_write_file_helper(self, fs):
        fs.write_file("/a", b"payload")
        assert fs.read_file("/a") == b"payload"
        fs.write_file("/a", b"x")  # replaces, does not append
        assert fs.read_file("/a") == b"x"

    def test_path_normalization(self, fs):
        fs.create("a")
        assert fs.exists("/a")
        fs.create("/b/../c") if fs.exists("/b") else fs.create("/c")
        assert fs.exists("/c")


class TestRename:
    def test_basic(self, fs):
        fs.write_file("/a", b"data")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_file("/b") == b"data"

    def test_replaces_destination(self, fs):
        fs.write_file("/a", b"new")
        fs.write_file("/b", b"old")
        fs.rename("/a", "/b")
        assert fs.read_file("/b") == b"new"

    def test_missing_source_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.rename("/nope", "/b")

    def test_rename_to_self_is_noop(self, fs):
        fs.write_file("/a", b"data")
        fs.rename("/a", "/a")
        assert fs.read_file("/a") == b"data"


class TestLinks:
    def test_link_shares_inode(self, fs):
        fs.write_file("/a", b"shared")
        fs.link("/a", "/b")
        assert fs.read_file("/b") == b"shared"
        fs.write("/a", 0, b"SHARED")
        assert fs.read_file("/b") == b"SHARED"

    def test_nlink_counts(self, fs):
        fs.write_file("/a", b"x")
        fs.link("/a", "/b")
        assert fs.stat("/a").nlink == 2
        assert fs.stat("/a").inode == fs.stat("/b").inode

    def test_unlink_one_name_keeps_data(self, fs):
        fs.write_file("/a", b"keep")
        fs.link("/a", "/b")
        fs.unlink("/a")
        assert fs.read_file("/b") == b"keep"

    def test_link_over_existing_raises(self, fs):
        fs.write_file("/a", b"1")
        fs.write_file("/b", b"2")
        with pytest.raises(FileExistsError):
            fs.link("/a", "/b")

    def test_gedit_pattern(self, fs):
        # 1-2 create-write tmp, 3 link f f~, 4 rename tmp f
        fs.write_file("/f", b"old content")
        fs.write_file("/tmp1", b"new content")
        fs.link("/f", "/f~")
        fs.rename("/tmp1", "/f")
        assert fs.read_file("/f") == b"new content"
        assert fs.read_file("/f~") == b"old content"


class TestUnlink:
    def test_basic(self, fs):
        fs.write_file("/a", b"x")
        fs.unlink("/a")
        assert not fs.exists("/a")

    def test_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.unlink("/nope")

    def test_data_freed(self, fs):
        fs.write_file("/a", b"x" * 1000)
        used = fs.used_bytes
        fs.unlink("/a")
        assert fs.used_bytes == used - 1000


class TestDirectories:
    def test_mkdir_listdir(self, fs):
        fs.mkdir("/dir")
        fs.write_file("/dir/a", b"1")
        fs.write_file("/dir/b", b"2")
        assert fs.listdir("/dir") == ["a", "b"]

    def test_create_in_missing_dir_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.create("/nodir/a")

    def test_rmdir_empty(self, fs):
        fs.mkdir("/dir")
        fs.rmdir("/dir")
        assert not fs.exists("/dir")

    def test_rmdir_nonempty_raises(self, fs):
        fs.mkdir("/dir")
        fs.write_file("/dir/a", b"x")
        with pytest.raises(OSError):
            fs.rmdir("/dir")

    def test_rmdir_root_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.rmdir("/")

    def test_mkdir_existing_raises(self, fs):
        fs.mkdir("/dir")
        with pytest.raises(FileExistsError):
            fs.mkdir("/dir")

    @pytest.mark.parametrize("op", ["rename", "link"])
    def test_file_onto_directory_refused(self, fs, op):
        # Both used to succeed and leave /d a directory *and* a file.
        fs.mkdir("/d")
        fs.write_file("/f", b"data")
        with pytest.raises(FileExistsError):
            getattr(fs, op)("/f", "/d")
        assert fs.stat("/d").is_dir
        assert list(fs.walk_files()) == ["/f"]
        assert fs.stat("/f").nlink == 1
        assert fs.read_file("/f") == b"data"

    def test_stat_dir(self, fs):
        fs.mkdir("/dir")
        assert fs.stat("/dir").is_dir


class TestCapacity:
    def test_enospc_on_write(self):
        fs = MemoryFileSystem(capacity=100)
        fs.create("/a")
        fs.write("/a", 0, b"x" * 100)
        with pytest.raises(NoSpaceError):
            fs.write("/a", 100, b"y")

    def test_delete_frees_space(self):
        fs = MemoryFileSystem(capacity=100)
        fs.write_file("/a", b"x" * 100)
        fs.unlink("/a")
        fs.write_file("/b", b"y" * 100)  # fits again
        assert fs.read_file("/b") == b"y" * 100

    def test_overwrite_not_double_charged(self):
        fs = MemoryFileSystem(capacity=100)
        fs.create("/a")
        fs.write("/a", 0, b"x" * 100)
        fs.write("/a", 0, b"y" * 100)  # same size, no growth
        assert fs.read_file("/a") == b"y" * 100


class TestCorruptionHook:
    def test_corrupt_flips_bit(self):
        fs = MemoryFileSystem()
        fs.write_file("/a", b"\x00" * 10)
        fs.corrupt("/a", 5, flip_mask=0x01)
        assert fs.read_file("/a")[5] == 0x01

    def test_corrupt_outside_raises(self):
        fs = MemoryFileSystem()
        fs.write_file("/a", b"ab")
        with pytest.raises(ValueError):
            fs.corrupt("/a", 10)

    def test_walk_files_sorted(self):
        fs = MemoryFileSystem()
        for name in ("/c", "/a", "/b"):
            fs.write_file(name, b"")
        assert list(fs.walk_files()) == ["/a", "/b", "/c"]


NAMES = ["/a", "/b", "/c", "/d/a"]


class LinkMachine(RuleBasedStateMachine):
    """The inode's name set against a scan of the tree: after every step,
    ``linked_paths`` and ``nlink`` must be what walking every file and
    grouping by inode says they are."""

    def __init__(self):
        super().__init__()
        self.fs = MemoryFileSystem()
        self.fs.mkdir("/d")

    def _attempt(self, op, *args):
        try:
            op(*args)
        except (NotFoundError, FileExistsError):
            pass

    @rule(name=st.sampled_from(NAMES))
    def create(self, name):
        self.fs.create(name)

    @rule(src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES + ["/d"]))
    def link(self, src, dst):
        self._attempt(self.fs.link, src, dst)

    # src may be an alias of dst, dst another file's alias, or src == dst.
    @rule(src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES + ["/d"]))
    def rename(self, src, dst):
        self._attempt(self.fs.rename, src, dst)

    @rule(name=st.sampled_from(NAMES))
    def unlink(self, name):
        self._attempt(self.fs.unlink, name)

    @invariant()
    def names_match_a_scan_by_inode(self):
        files = list(self.fs.walk_files())
        assert "/d" not in files and self.fs.stat("/d").is_dir
        inode_of = {p: self.fs.stat(p).inode for p in files}
        for path in files:
            scanned = [q for q in files if inode_of[q] == inode_of[path]]
            assert self.fs.linked_paths(path) == scanned
            assert self.fs.stat(path).nlink == len(scanned)


TestLinkedPathsStateful = LinkMachine.TestCase
TestLinkedPathsStateful.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
