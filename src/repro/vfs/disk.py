"""``LocalDirFileSystem``: the FileSystemAPI over a real directory.

Everything in this repository runs against ``MemoryFileSystem`` for speed
and determinism, but the client engine only needs the ``FileSystemAPI``
contract — so this adapter lets a ``DeltaCFSClient`` manage actual files
under a chosen root directory, the deployment shape of the paper's FUSE
prototype (mount point -> local file system).

Paths are the usual absolute POSIX paths of the sync namespace; they map
to ``root/<path>``. Escaping the root (``..``) is rejected.
"""

from __future__ import annotations

import os
import posixpath
from typing import List

from repro.common.errors import NotFoundError
from repro.vfs.filesystem import FileSystemAPI, Stat


class LocalDirFileSystem(FileSystemAPI):
    """A sync namespace rooted at a real directory.

    ``content`` is the inherited whole-file read, once per write node
    (O(file) per sync interval); no benchmark runs on this store.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- path mapping ------------------------------------------------------

    def _real(self, path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        normalized = posixpath.normpath(path)
        real = os.path.normpath(os.path.join(self.root, normalized.lstrip("/")))
        if not (real == self.root or real.startswith(self.root + os.sep)):
            raise ValueError(f"path escapes the sync root: {path}")
        return real

    def _require_file(self, path: str) -> str:
        real = self._real(path)
        if not os.path.isfile(real):
            raise NotFoundError(f"no such file: {path}")
        return real

    # -- FileSystemAPI -------------------------------------------------------

    def create(self, path: str) -> None:
        real = self._real(path)
        if os.path.isdir(real):
            raise FileExistsError(f"is a directory: {path}")
        parent = os.path.dirname(real)
        if not os.path.isdir(parent):
            raise NotFoundError(f"no such directory: {os.path.dirname(path)}")
        # O_CREAT without truncation
        fd = os.open(real, os.O_CREAT | os.O_WRONLY, 0o644)
        os.close(fd)

    def write(self, path: str, offset: int, data: bytes) -> None:
        real = self._require_file(path)
        with open(real, "r+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            if offset > size:
                fh.write(b"\x00" * (offset - size))
            fh.seek(offset)
            fh.write(data)

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        real = self._require_file(path)
        with open(real, "rb") as fh:
            fh.seek(offset)
            return fh.read() if length is None else fh.read(length)

    def truncate(self, path: str, length: int) -> None:
        real = self._require_file(path)
        size = os.path.getsize(real)
        with open(real, "r+b") as fh:
            if length > size:
                fh.seek(size)
                fh.write(b"\x00" * (length - size))
            else:
                fh.truncate(length)

    def rename(self, src: str, dst: str) -> None:
        real_src, real_dst = self._real(src), self._real(dst)
        if not os.path.exists(real_src):
            raise NotFoundError(f"no such file: {src}")
        if os.path.isdir(real_dst) and not os.path.isdir(real_src):
            raise FileExistsError(f"is a directory: {dst}")
        os.replace(real_src, real_dst)

    def link(self, src: str, dst: str) -> None:
        real_dst = self._real(dst)
        if os.path.exists(real_dst):
            raise FileExistsError(f"link target exists: {dst}")
        os.link(self._require_file(src), real_dst)

    def unlink(self, path: str) -> None:
        os.unlink(self._require_file(path))

    def close(self, path: str) -> None:
        self._require_file(path)  # path-addressed: nothing held open

    def mkdir(self, path: str) -> None:
        real = self._real(path)
        if os.path.exists(real):
            raise FileExistsError(f"exists: {path}")
        os.mkdir(real)

    def rmdir(self, path: str) -> None:
        real = self._real(path)
        if not os.path.isdir(real):
            raise NotFoundError(f"no such directory: {path}")
        os.rmdir(real)

    def exists(self, path: str) -> bool:
        return os.path.exists(self._real(path))

    def stat(self, path: str) -> Stat:
        real = self._real(path)
        if not os.path.exists(real):
            raise NotFoundError(f"no such file: {path}")
        info = os.stat(real)
        return Stat(
            path=path,
            size=info.st_size if os.path.isfile(real) else 0,
            nlink=info.st_nlink,
            is_dir=os.path.isdir(real),
            inode=info.st_ino,
        )

    def listdir(self, path: str) -> List[str]:
        real = self._real(path)
        if not os.path.isdir(real):
            raise NotFoundError(f"no such directory: {path}")
        return sorted(os.listdir(real))

    def linked_paths(self, path: str) -> List[str]:
        """Names under the root sharing ``path``'s inode (same-device scan)."""
        target = os.stat(self._require_file(path))
        if target.st_nlink <= 1:
            return [path]
        matches: List[str] = []
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                full = os.path.join(dirpath, name)
                try:
                    info = os.stat(full)
                except OSError:
                    continue
                if info.st_ino == target.st_ino and info.st_dev == target.st_dev:
                    rel = os.path.relpath(full, self.root)
                    matches.append("/" + rel.replace(os.sep, "/"))
        return sorted(matches) if matches else [path]

    def walk_files(self) -> List[str]:
        """All regular-file paths under the root, sorted (test helper)."""
        out: List[str] = []
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                out.append("/" + rel.replace(os.sep, "/"))
        return sorted(out)
