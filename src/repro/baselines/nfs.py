"""The NFSv4-like baseline: every file operation becomes an RPC.

NFS is the other endpoint of the design space the paper learns from: it
never computes deltas (zero client CPU for sync), but it ships *every
write* — and its caching semantics produce two pathologies the paper
measures (Section IV-C):

- **fetch-before-write**: a write that does not cover whole pages must
  first fetch the containing page(s) from the server (the WeChat-trace
  download traffic);
- **cache invalidation on rename**: after ``rename tmp -> f``, ``f``'s
  cached content is stale (NFS file handles are per-inode), so the next
  read of ``f`` re-fetches the whole file from the server — even though the
  client just wrote every byte of it under the name ``tmp`` (the
  Word-trace pathology: the server sends back as much as it received).

The client is a passthrough layer like DeltaCFS (in-kernel callbacks — the
paper skips its CPU numbers for that reason); the server stores plain
files. NFS traffic is not TLS-encrypted.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.common.pages import EMPTY
from repro.cost.meter import CostMeter, NULL_METER
from repro.net.messages import FileDownload, MetaOp, UploadTruncate, UploadWrite
from repro.net.transport import Channel, NetworkModel
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import FileSystemAPI, MemoryFileSystem
from repro.vfs.interception import PassthroughFileSystem


class NFSClient(PassthroughFileSystem):
    """Write-through NFS client with page cache semantics."""

    name = "nfs"

    def __init__(
        self,
        inner: FileSystemAPI | None = None,
        *,
        server: CloudServer | None = None,
        channel: Channel | None = None,
        meter: CostMeter = NULL_METER,
        page_size: int = 4096,
    ):
        super().__init__(inner if inner is not None else MemoryFileSystem())
        self.server = server
        if channel is None:
            channel = Channel(model=NetworkModel(encrypted=False))
        self.channel = channel
        self.meter = meter
        self.page_size = page_size
        # Pages of each file the client cache holds (valid pages).
        self._cached_pages: Dict[str, Set[int]] = {}
        self._now = 0.0

    def set_time(self, now: float) -> None:
        """Advance the clock used for channel accounting."""
        self._now = now

    # -- cache helpers -------------------------------------------------------

    def _pages(self, offset: int, length: int) -> range:
        if length <= 0:
            return range(0)
        return range(offset // self.page_size, (offset + length - 1) // self.page_size + 1)

    def _server_size(self, path: str) -> int:
        if self.server is None or not self.server.store.exists(path):
            return 0
        return self.server.store.get(path).size

    def _fetch_pages(self, path: str, pages: list[int]) -> None:
        """fetch-before-write / cache-miss read: pull pages from the server."""
        if not pages or self.server is None or not self.server.store.exists(path):
            return
        content = self.server.store.get(path).pages
        span = b"".join(
            content.read(p * self.page_size, self.page_size) for p in pages
        )
        if span:
            self.channel.download(FileDownload(path=path, data=span), self._now)
        self._cached_pages.setdefault(path, set()).update(pages)

    # -- operations ------------------------------------------------------------

    def create(self, path: str) -> None:
        self.inner.create(path)
        self.channel.upload(MetaOp(kind="create", path=path), self._now)
        if self.server is not None:
            self.server.store.put(path, EMPTY, None)
        self._cached_pages[path] = set()

    def write(self, path: str, offset: int, data: bytes) -> None:
        cached = self._cached_pages.setdefault(path, set())
        server_size = self._server_size(path)
        needed = []
        for page in self._pages(offset, len(data)):
            page_lo = page * self.page_size
            page_hi = page_lo + self.page_size
            fully_covered = offset <= page_lo and offset + len(data) >= page_hi
            beyond_server = page_lo >= server_size
            if not fully_covered and not beyond_server and page not in cached:
                needed.append(page)
        self._fetch_pages(path, needed)

        self.inner.write(path, offset, data)
        cached.update(self._pages(offset, len(data)))
        # NFS WRITE RPC: exactly the written byte range goes up.
        rpc = UploadWrite(path=path, offset=offset, data=data)
        self.channel.upload(rpc, self._now)
        if self.server is not None:
            self.server.meter.charge_bytes("write_io", len(data))
            stored = self.server.store.lookup(path)
            base = stored.pages if stored is not None else EMPTY
            self.server.store.put(path, rpc.apply_to(base), None)

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        size = self.inner.size(path)
        end = size if length is None else min(offset + length, size)
        cached = self._cached_pages.setdefault(path, set())
        needed = [p for p in self._pages(offset, end - offset) if p not in cached]
        if needed:
            # Cache miss (or post-rename invalidation): the data comes over
            # the wire even though the local copy is byte-identical —
            # exactly the Word-trace NFS pathology.
            self._fetch_pages(path, needed)
        return self.inner.read(path, offset, length)

    def truncate(self, path: str, length: int) -> None:
        self.inner.truncate(path, length)
        rpc = UploadTruncate(path=path, length=length)
        self.channel.upload(rpc, self._now)
        if self.server is not None and self.server.store.exists(path):
            stored = self.server.store.get(path)
            self.server.store.put(path, rpc.apply_to(stored.pages), None)

    def rename(self, src: str, dst: str) -> None:
        self.inner.rename(src, dst)
        self.channel.upload(MetaOp(kind="rename", path=src, dest=dst), self._now)
        if self.server is not None and self.server.store.exists(src):
            self.server.store.rename(src, dst)
        # The dst name now refers to a different inode: its cache is stale
        # (RFC 3530 volatile filehandles / data caching and file identity).
        self._cached_pages[dst] = set()
        self._cached_pages.pop(src, None)

    def link(self, src: str, dst: str) -> None:
        self.inner.link(src, dst)
        self.channel.upload(MetaOp(kind="link", path=src, dest=dst), self._now)
        if self.server is not None and self.server.store.exists(src):
            self.server.store.copy(src, dst)
        self._cached_pages[dst] = set(self._cached_pages.get(src, set()))

    def unlink(self, path: str) -> None:
        self.inner.unlink(path)
        self.channel.upload(MetaOp(kind="unlink", path=path), self._now)
        if self.server is not None and self.server.store.exists(path):
            self.server.store.delete(path)
        self._cached_pages.pop(path, None)

    def close(self, path: str) -> None:
        # close-to-open consistency: flush (we write through, so a no-op).
        self.inner.close(path)

    def mkdir(self, path: str) -> None:
        self.inner.mkdir(path)
        self.channel.upload(MetaOp(kind="mkdir", path=path), self._now)

    def rmdir(self, path: str) -> None:
        self.inner.rmdir(path)
        self.channel.upload(MetaOp(kind="rmdir", path=path), self._now)

    # -- harness hooks ---------------------------------------------------------

    def pump(self, now: float) -> int:
        """NFS is synchronous; nothing is deferred."""
        self.set_time(now)
        return 0

    def flush(self, now: float | None = None) -> int:
        return 0
