"""``MemoryFileSystem``: the POSIX-like backing store.

Semantics implemented (the subset the paper's update patterns exercise):

- regular files with sparse writes (zero-fill on gaps) and truncate;
- hard links via an inode table (``link f f~`` — the gedit pattern);
- ``rename`` atomically replaces an existing destination;
- ``unlink`` removes a directory entry; inode data lives until nlink = 0;
- directories with mkdir/rmdir/listdir;
- an optional capacity so ENOSPC behaviour is testable (Section III-A's
  escape hatch for preserving unlinked files).

An inode's data is a :class:`~repro.common.pages.Pages` value: ``write`` and
``truncate`` replace it with a new value that shares every page they did
not touch, so an operation costs the bytes it changes (plus a page-table
copy), not the file. ``read_file`` of a paged file is a join — the one
O(file) operation left, for callers that need the whole file as one buffer.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.common.errors import NoSpaceError, NotFoundError
from repro.common.pages import EMPTY, Pages


@dataclass(frozen=True)
class Stat:
    """File metadata snapshot."""

    path: str
    size: int
    nlink: int
    is_dir: bool
    inode: int


class _Inode:
    """A file's content and every name bound to it: ``names`` mirrors the
    directory entries that point here, so the link count and the alias
    list are read off the inode, never found by scanning the tree."""

    __slots__ = ("data", "names")

    def __init__(self, name: str):
        self.data: Pages = EMPTY
        self.names = {name}


def _norm(path: str) -> str:
    """Normalize to an absolute, canonical POSIX path.

    An already canonical ``path`` comes back as the caller's own object, so
    a store that keys on the result holds no second copy of the spelling.
    A path that is visibly canonical — one leading slash and no empty,
    ``.`` or ``..`` component — skips ``normpath``; the rest (``/`` and
    ``//d/f``, which POSIX keeps, are canonical too) are normalised and
    compared.
    """
    if (
        path[:1] == "/"
        and "//" not in path
        and "/./" not in path
        and "/../" not in path
        and not path.endswith(("/", "/.", "/.."))
    ):
        return path
    normed = posixpath.normpath(path if path[:1] == "/" else "/" + path)
    return path if normed == path else normed


class FileSystemAPI:
    """The operation surface every layer of the stack implements.

    ``PassthroughFileSystem`` forwards these verbatim; ``MemoryFileSystem``
    terminates them. Paths are absolute POSIX paths.
    """

    def canonical(self, path: str) -> str:
        """The one spelling of ``path`` this store binds names under
        (``/d//f``, ``/d/./f`` and ``d/f`` all name ``/d/f``)."""
        return _norm(path)

    def create(self, path: str) -> None:
        """Create a regular file; a no-op if it already exists (O_CREAT)."""
        raise NotImplementedError

    def write(self, path: str, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, zero-filling any gap (sparse)."""
        raise NotImplementedError

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes at ``offset`` (to EOF when ``None``)."""
        raise NotImplementedError

    def truncate(self, path: str, length: int) -> None:
        """Set the file length: shrink, or zero-extend when growing."""
        raise NotImplementedError

    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` to ``dst``, replacing any existing dst."""
        raise NotImplementedError

    def link(self, src: str, dst: str) -> None:
        """Create a hard link: ``dst`` becomes another name for ``src``."""
        raise NotImplementedError

    def unlink(self, path: str) -> None:
        """Remove the directory entry; data lives while other links do."""
        raise NotImplementedError

    def close(self, path: str) -> None:
        """Close the (path-addressed) file; packs its Sync Queue node."""
        raise NotImplementedError

    def mkdir(self, path: str) -> None:
        """Create a directory (parent must exist)."""
        raise NotImplementedError

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        """Whether a file or directory exists at ``path``."""
        raise NotImplementedError

    def stat(self, path: str) -> Stat:
        """Metadata snapshot (size, nlink, inode, is_dir)."""
        raise NotImplementedError

    def listdir(self, path: str) -> List[str]:
        """Names directly under the directory ``path``, sorted."""
        raise NotImplementedError

    def linked_paths(self, path: str) -> List[str]:
        """All names bound to the same file as ``path`` (hard links).

        Always contains ``path`` itself. Layers without inode knowledge
        return just ``[path]``.
        """
        return [path]

    # convenience built on the primitives -------------------------------

    def size(self, path: str) -> int:
        """File size in bytes."""
        return self.stat(path).size

    def write_file(self, path: str, data: bytes) -> None:
        """create-if-missing + truncate + single write + close."""
        if not self.exists(path):
            self.create(path)
        self.truncate(path, 0)
        self.write(path, 0, data)
        self.close(path)

    def read_file(self, path: str) -> bytes:
        """Whole-file read."""
        return self.read(path, 0, None)

    def content(self, path: str):
        """The file's current value, safe to hold: ``bytes`` (a whole-file
        read) or an immutable value ``len`` and ``bytes`` read the same."""
        return self.read_file(path)


class MemoryFileSystem(FileSystemAPI):
    """In-memory file system with inode-based hard links.

    Args:
        capacity: total data bytes allowed across all inodes; ``None``
            means unlimited. Exceeding it raises :class:`NoSpaceError`,
            which the DeltaCFS unlink-preservation logic must tolerate.
    """

    def __init__(self, capacity: int | None = None):
        self._entries: Dict[str, int] = {}  # path -> inode id
        self._inodes: Dict[int, _Inode] = {}
        self._dirs = {"/"}
        self._next_inode = 1
        self._capacity = capacity
        self._used = 0

    # -- internals -------------------------------------------------------

    def _inode_of(self, path: str) -> _Inode:
        inode_id = self._entries.get(path)
        if inode_id is None:
            path = _norm(path)
            inode_id = self._entries.get(path)
            if inode_id is None:
                raise NotFoundError(f"no such file: {path}")
        return self._inodes[inode_id]

    def _charge(self, delta_bytes: int) -> None:
        if self._capacity is not None and self._used + delta_bytes > self._capacity:
            raise NoSpaceError(
                f"device full: used {self._used}, need {delta_bytes}, "
                f"capacity {self._capacity}"
            )
        self._used += delta_bytes

    def _require_parent(self, path: str) -> None:
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            raise NotFoundError(f"no such directory: {parent}")

    # -- FileSystemAPI ----------------------------------------------------

    def canonical(self, path: str) -> str:
        # A bound name is a key, and every key was normalised when it was
        # inserted: only a name this store does not hold is normalised.
        # One hash probe instead of _norm's five substring scans measured
        # +5 % ops/s on fleet_small (docs/performance.md, "name lookup").
        if path in self._entries or path in self._dirs:
            return path
        return _norm(path)

    def create(self, path: str) -> None:
        path = self.canonical(path)
        if path in self._dirs:
            raise FileExistsError(f"is a directory: {path}")
        self._require_parent(path)
        if path in self._entries:
            # POSIX open(O_CREAT) on an existing file: keep its data.
            return
        inode_id = self._next_inode
        self._next_inode += 1
        self._inodes[inode_id] = _Inode(path)
        self._entries[path] = inode_id

    def write(self, path: str, offset: int, data: bytes) -> None:
        inode = self._inode_of(path)
        new_data = inode.data.write(offset, data)
        self._charge(new_data.size - inode.data.size)
        inode.data = new_data

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        return self._inode_of(path).data.read(offset, length)

    def truncate(self, path: str, length: int) -> None:
        inode = self._inode_of(path)
        new_data = inode.data.truncate(length)
        self._charge(new_data.size - inode.data.size)
        inode.data = new_data

    def rename(self, src: str, dst: str) -> None:
        src, dst = self.canonical(src), self.canonical(dst)
        if src not in self._entries:
            raise NotFoundError(f"no such file: {src}")
        if dst in self._dirs:
            raise FileExistsError(f"is a directory: {dst}")
        self._require_parent(dst)
        if src == dst:
            return
        if dst in self._entries:
            self._drop_entry(dst)
        inode_id = self._entries[dst] = self._entries.pop(src)
        names = self._inodes[inode_id].names
        names.discard(src)
        names.add(dst)

    def link(self, src: str, dst: str) -> None:
        src, dst = self.canonical(src), self.canonical(dst)
        inode_id = self._entries.get(src)
        if inode_id is None:
            raise NotFoundError(f"no such file: {src}")
        if dst in self._dirs:
            raise FileExistsError(f"is a directory: {dst}")
        self._require_parent(dst)
        if dst in self._entries:
            raise FileExistsError(f"link target exists: {dst}")
        self._entries[dst] = inode_id
        self._inodes[inode_id].names.add(dst)

    def unlink(self, path: str) -> None:
        path = self.canonical(path)
        if path not in self._entries:
            raise NotFoundError(f"no such file: {path}")
        self._drop_entry(path)

    def close(self, path: str) -> None:
        # MemoryFileSystem is path-addressed; close is a no-op here but is
        # forwarded through the stack because DeltaCFS packs write nodes on
        # it (Section III-B).
        self._inode_of(path)

    def mkdir(self, path: str) -> None:
        path = self.canonical(path)
        if path in self._dirs:
            raise FileExistsError(f"directory exists: {path}")
        if path in self._entries:
            raise FileExistsError(f"file exists: {path}")
        self._require_parent(path)
        self._dirs.add(path)

    def rmdir(self, path: str) -> None:
        path = self.canonical(path)
        if path == "/":
            raise ValueError("cannot remove root")
        if path not in self._dirs:
            raise NotFoundError(f"no such directory: {path}")
        if any(p != path and self._is_under(p, path) for p in self._dirs) or any(
            self._is_under(p, path) for p in self._entries
        ):
            raise OSError(f"directory not empty: {path}")
        self._dirs.discard(path)

    def exists(self, path: str) -> bool:
        path = self.canonical(path)
        return path in self._entries or path in self._dirs

    def stat(self, path: str) -> Stat:
        path = self.canonical(path)
        if path in self._dirs:
            return Stat(path=path, size=0, nlink=1, is_dir=True, inode=0)
        inode_id = self._entries.get(path)
        if inode_id is None:
            raise NotFoundError(f"no such file: {path}")
        inode = self._inodes[inode_id]
        return Stat(
            path=path,
            size=inode.data.size,
            nlink=len(inode.names),
            is_dir=False,
            inode=inode_id,
        )

    def size(self, path: str) -> int:
        # Read off the inode: every write asks, and a Stat is five fields
        # built to read one.
        path = self.canonical(path)
        if path in self._dirs:
            return 0
        return self._inode_of(path).data.size

    def content(self, path: str) -> Pages:
        # An inode's value is replaced, never mutated: this is a reference.
        return self._inode_of(path).data

    def listdir(self, path: str) -> List[str]:
        path = self.canonical(path)
        if path not in self._dirs:
            raise NotFoundError(f"no such directory: {path}")
        out = set()
        for entry in list(self._entries) + [d for d in self._dirs if d != "/"]:
            if posixpath.dirname(entry) == path:
                out.add(posixpath.basename(entry))
        return sorted(out)

    def linked_paths(self, path: str) -> List[str]:
        path = self.canonical(path)
        inode_id = self._entries.get(path)
        if inode_id is None:
            raise NotFoundError(f"no such file: {path}")
        names = self._inodes[inode_id].names
        return [path] if len(names) == 1 else sorted(names)

    # -- extras used by fault injection and tests --------------------------

    def corrupt(self, path: str, byte_offset: int, flip_mask: int = 0x01) -> None:
        """Flip bits in a file *bypassing* the operation stack.

        This models the paper's debugfs-based corruption injection
        (Section IV-E): the change is invisible to any interception layer.
        """
        inode = self._inode_of(path)
        if not 0 <= byte_offset < inode.data.size:
            raise ValueError("corruption offset outside file")
        flipped = inode.data.read(byte_offset, 1)[0] ^ flip_mask
        inode.data = inode.data.write(byte_offset, bytes([flipped]))

    def walk_files(self) -> Iterator[str]:
        """All regular-file paths, sorted."""
        return iter(sorted(self._entries))

    @property
    def used_bytes(self) -> int:
        """Total data bytes across inodes (what capacity limits)."""
        return self._used

    @staticmethod
    def _is_under(path: str, directory: str) -> bool:
        return path.startswith(directory.rstrip("/") + "/")

    def _drop_entry(self, path: str) -> None:
        inode_id = self._entries.pop(path)
        inode = self._inodes[inode_id]
        inode.names.discard(path)
        if not inode.names:
            self._used -= inode.data.size
            del self._inodes[inode_id]
