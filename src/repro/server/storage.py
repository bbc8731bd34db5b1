"""Versioned cloud file storage.

Keeps, per path, the current content and version stamp, plus a bounded
window of recent version snapshots addressable *by stamp*. Snapshots are
what let the server (a) apply a delta whose base content has already been
renamed or overwritten in the namespace, and (b) materialize a losing
update as a conflict copy (Section III-C: "servers keep recent versions of
files, the incremental data can still be applied to the proper file").

The window is also the version history (Section III-C's fine-grained
version control): each windowed stamp carries the names whose history
lists it, so a name's history is exactly the stamps the store can
restore, and a stamp leaves every history when it leaves the window. The
store's version memory is O(window x names per stamp), however long the
run and whether the names are live or deleted.

Content is held as :class:`~repro.common.pages.Pages` — current files and
snapshots alike — so a snapshot is a reference and successive versions of
a file share every page an update did not touch: the window costs the
pages that changed across its 64 versions, not 64 files.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import NotFoundError
from repro.common.pages import EMPTY, Pages
from repro.common.version import VersionStamp


@dataclass
class StoredFile:
    """Current state of one path on the cloud.

    ``pages`` is what the store holds and every update path reads;
    ``content`` is its ``bytes`` view — a join when the file is paged, so
    for readers that need the whole file as one buffer.
    """

    pages: Pages = field(repr=False, default=EMPTY)
    version: Optional[VersionStamp] = None

    @property
    def content(self) -> bytes:
        return bytes(self.pages)

    @content.setter
    def content(self, value) -> None:
        self.pages = value if type(value) is Pages else Pages(value)

    @property
    def size(self) -> int:
        return self.pages.size


class VersionedStore:
    """Path namespace + stamp-addressed version window."""

    def __init__(self, *, snapshot_window: int = 64):
        if snapshot_window <= 0:
            raise ValueError("snapshot_window must be positive")
        self._files: Dict[str, StoredFile] = {}
        # The version window, oldest first: each recent stamp's content,
        # and (same keys) the names whose history lists it — one entry per
        # applied Sync Queue node.
        self._snapshots: "OrderedDict[VersionStamp, Pages]" = OrderedDict()
        self._names: Dict[VersionStamp, Set[str]] = {}
        self._snapshot_window = snapshot_window

    # -- namespace ---------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def get(self, path: str) -> StoredFile:
        stored = self._files.get(path)
        if stored is None:
            raise NotFoundError(f"cloud has no file {path}")
        return stored

    def lookup(self, path: str) -> Optional[StoredFile]:
        """Like :meth:`get` but returns ``None`` when absent."""
        return self._files.get(path)

    def put(self, path: str, content, version: Optional[VersionStamp]) -> None:
        """Set current content+version and snapshot the new version.

        ``content`` is a :class:`Pages` (an update's effect) or plain
        ``bytes``. An existing entry is mutated *in place*: other names
        hard-linked to the same file (see :meth:`copy`) observe the update,
        mirroring the client file system's inode semantics.
        """
        if type(content) is not Pages:
            content = Pages(content)
        stored = self._files.get(path)
        if stored is None:
            self._files[path] = StoredFile(content, version)
        else:
            stored.pages = content
            stored.version = version
        if version is not None:
            self._remember(version, content).add(path)

    def rename(self, src: str, dst: str) -> None:
        """Move a path (replacing any existing destination).

        History is *copied* to the destination, joining any history the
        destination already has, and the source keeps a copy too: in the
        transactional-save dance (rename f -> t0; rename t1 -> f) the
        document's history must survive both hops so that "restore
        yesterday's version of f" stays meaningful. The copy is one pass
        over the window.
        """
        stored = self._files.pop(src, None)
        if stored is None:
            raise NotFoundError(f"cloud has no file {src}")
        self._files[dst] = stored
        for names in self._names.values():
            if src in names:
                names.add(dst)

    def copy(self, src: str, dst: str) -> None:
        """Bind ``dst`` to the same file as ``src`` (hard-link replay).

        The two names share one :class:`StoredFile`, so in-place updates
        through either name are visible through both — until a rename or
        a fresh create rebinds one of them (exactly POSIX's detachment
        semantics, which is what the gedit backup pattern relies on).
        """
        self._files[dst] = self.get(src)

    def delete(self, path: str) -> None:
        """Remove a path; its history stays until its stamps age out."""
        if path not in self._files:
            raise NotFoundError(f"cloud has no file {path}")
        del self._files[path]

    def paths(self) -> List[str]:
        """All live paths, sorted."""
        return sorted(self._files)

    # -- transactional rollback (a conflicting backindex group) ------------

    def save_entry(self, path: str) -> tuple:
        """What :meth:`restore_entry` needs to put ``path`` back exactly."""
        stored = self._files.get(path)
        return (
            stored,
            None if stored is None else (stored.pages, stored.version),
            [names for names in self._names.values() if path in names],
        )

    def restore_entry(self, path: str, saved: tuple) -> None:
        """Undo whatever happened to ``path`` since :meth:`save_entry`.

        The name is bound to the same :class:`StoredFile` object as before
        (so names hard-linked to it share content again) holding the
        content and version it held, or unbound if it was; its history
        is the stamps that listed it then and are still windowed (a stamp
        evicted meanwhile left every history anyway). Unlike :meth:`put`
        this snapshots nothing.
        """
        stored, fields, listed = saved
        if stored is None:
            self._files.pop(path, None)
        else:
            stored.pages, stored.version = fields
            self._files[path] = stored
        for names in self._names.values():
            names.discard(path)
        for names in listed:
            names.add(path)

    # -- shard migration (cross-shard rename/link/group co-location) -------

    def detach_entry(
        self, path: str
    ) -> Optional[Tuple[StoredFile, List[Tuple[VersionStamp, Pages]]]]:
        """Remove ``path`` and return everything another store needs to host it.

        Returns ``(stored, versions)`` — the live file object and its
        history as ``(stamp, snapshot)`` pairs, oldest first — or ``None``
        when the path is absent. Used by the shard router to move a file
        between shards before applying a cross-shard rename; the caller
        re-homes the bundle with :meth:`attach_entry`. Snapshots are
        copied out, not dropped: an aged-out base on the old shard behaves
        exactly like one that aged out of a single server.
        """
        stored = self._files.pop(path, None)
        if stored is None:
            return None
        versions = []
        for version, content in self._snapshots.items():
            names = self._names[version]
            if path in names:
                names.remove(path)
                versions.append((version, content))
        return stored, versions

    def attach_entry(
        self,
        path: str,
        stored: StoredFile,
        versions: List[Tuple[VersionStamp, Pages]],
    ) -> None:
        """Adopt a file bundle produced by :meth:`detach_entry`.

        The migrated versions join any history this store already has for
        ``path`` (:meth:`rename`'s rule), entering this store's window and
        aging out under its normal eviction policy.
        """
        self._files[path] = stored
        for version, content in versions:
            self._remember(version, content).add(path)

    # -- version history (fine-grained version control, Section III-C) -----

    def history(self, path: str) -> List[VersionStamp]:
        """The restorable versions of ``path``, each once, oldest first
        (Sync Queue node granularity — between open-to-close and
        per-write)."""
        return [v for v in self._snapshots if path in self._names[v]]

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, version: VersionStamp) -> Optional[Pages]:
        """Content of a recent version, or ``None`` if it aged out."""
        return self._snapshots.get(version)

    def _remember(self, version: VersionStamp, content: Pages) -> Set[str]:
        """Window ``content`` as ``version``, newest; returns the names
        whose history lists it. An evicted stamp leaves every history."""
        self._snapshots[version] = content
        self._snapshots.move_to_end(version)
        names = self._names.setdefault(version, set())
        while len(self._snapshots) > self._snapshot_window:
            del self._names[self._snapshots.popitem(last=False)[0]]
        return names
