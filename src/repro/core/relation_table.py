"""The Relation Table (paper Section III-A, Table I).

The table tracks filename transformations so transactional updates can be
recognized at runtime. Each entry is ``src -> dst`` meaning: *the file once
named ``src`` is currently preserved under the name ``dst``* (its old
version). Invariants: ``src`` and ``dst`` named the same file, and ``dst``
exists while ``src`` does not.

Table I's rules:

==========================  ==================================================
Create a relation entry     1. a ``rename src dst`` operation
                            2. an ``unlink path`` operation (the file is
                               preserved in a tmp area first)
Remove a relation entry     1. it triggered delta encoding
                            2. timeout (~2 s) without triggering
Trigger delta encoding      1. a file is created whose name equals an
                               entry's ``src``
                            2. the to-be-created name already exists
                               (handled by the client, not the table)
==========================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import NULL_OBS, Observability


@dataclass
class RelationEntry:
    """One ``src -> dst`` tuple with its creation time.

    ``origin`` records which operation created the entry (``rename`` or
    ``unlink``) — unlink-created entries own their preserved tmp file, which
    must be garbage-collected when the entry dies untriggered.
    """

    src: str
    dst: str
    created_at: float
    origin: str  # "rename" | "unlink"


class RelationTable:
    """Tracks live relations and answers trigger queries.

    One entry per ``src`` name: a newer transformation of the same name
    supersedes the older one (the old preserved version is superseded too,
    and its entry is returned for cleanup).
    """

    def __init__(self, timeout: float = 2.0, *, obs: Observability = NULL_OBS):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self.obs = obs
        self._entries: Dict[str, RelationEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[RelationEntry]:
        """Snapshot of live entries (for inspection/tests)."""
        return list(self._entries.values())

    def entry_for(self, src: str) -> Optional[RelationEntry]:
        """The live entry whose ``src`` is this name, if any (no expiry
        check, nothing removed — :meth:`match_created` is the trigger)."""
        return self._entries.get(src)

    def record_rename(self, src: str, dst: str, now: float) -> Optional[RelationEntry]:
        """A ``rename src dst`` happened: remember where the old version went.

        Returns the entry this rename *superseded* (same src), if any, so
        the caller can clean up its preserved file.
        """
        superseded = self._entries.get(src)
        self._entries[src] = RelationEntry(
            src=src, dst=dst, created_at=now, origin="rename"
        )
        self._note_insert(src, dst, "rename", superseded)
        return superseded

    def record_unlink(self, path: str, preserved_at: str, now: float) -> Optional[RelationEntry]:
        """An ``unlink path`` happened; the file was parked at ``preserved_at``."""
        superseded = self._entries.get(path)
        self._entries[path] = RelationEntry(
            src=path, dst=preserved_at, created_at=now, origin="unlink"
        )
        self._note_insert(path, preserved_at, "unlink", superseded)
        return superseded

    def restore(self, entry: RelationEntry) -> None:
        """Re-admit a journaled entry during crash recovery.

        The caller has already checked the ``dst exists`` invariant and
        refreshed ``created_at``; this is a plain insert that keeps the
        normal observability flowing.
        """
        self._entries[entry.src] = entry
        self._note_insert(entry.src, entry.dst, entry.origin, None)

    def match_created(
        self,
        path: str,
        now: float,
        *,
        stale_out: Optional[List[RelationEntry]] = None,
    ) -> Optional[RelationEntry]:
        """A file named ``path`` is being created — does it trigger encoding?

        Returns (and removes — Table I rule "triggered delta encoding") the
        matching live entry, or ``None``. Expired entries never match; one
        found here is evicted on the spot and appended to ``stale_out`` so
        the caller can garbage-collect its preserved tmp file immediately
        instead of leaking it until the next ``expire()`` pass.
        """
        entry = self._entries.get(path)
        if entry is None:
            return None
        if now - entry.created_at > self.timeout:
            del self._entries[path]
            if self.obs.enabled:
                self.obs.inc("relation.entries.stale")
                self.obs.event(
                    "relation.expire",
                    src=entry.src,
                    dst=entry.dst,
                    origin=entry.origin,
                )
                self.obs.set_gauge("relation.size", len(self._entries))
            if stale_out is not None:
                stale_out.append(entry)
            return None
        del self._entries[path]
        if self.obs.enabled:
            self.obs.inc("relation.entries.matched")
            self.obs.event(
                "relation.match",
                src=entry.src,
                dst=entry.dst,
                origin=entry.origin,
                age=now - entry.created_at,
            )
            self.obs.set_gauge("relation.size", len(self._entries))
        return entry

    def invalidate_dst(self, path: str) -> List[RelationEntry]:
        """The preserved copy at ``path`` was destroyed; drop entries on it.

        Keeps the ``dst exists`` invariant when an application reuses the
        preserved name (e.g. writes a fresh temp file over it).
        """
        doomed = [e for e in self._entries.values() if e.dst == path]
        for entry in doomed:
            del self._entries[entry.src]
        if self.obs.enabled and doomed:
            self.obs.inc("relation.entries.invalidated", len(doomed))
            for entry in doomed:
                self.obs.event("relation.invalidate", src=entry.src, dst=entry.dst)
            self.obs.set_gauge("relation.size", len(self._entries))
        return doomed

    def expire(self, now: float) -> List[RelationEntry]:
        """Remove and return all entries older than the timeout.

        The caller garbage-collects the preserved tmp files of
        unlink-origin entries.
        """
        expired = [
            e for e in self._entries.values() if now - e.created_at > self.timeout
        ]
        for entry in expired:
            del self._entries[entry.src]
        if self.obs.enabled and expired:
            self.obs.inc("relation.entries.expired", len(expired))
            for entry in expired:
                self.obs.event(
                    "relation.expire",
                    src=entry.src,
                    dst=entry.dst,
                    origin=entry.origin,
                )
            self.obs.set_gauge("relation.size", len(self._entries))
        return expired

    def _note_insert(
        self, src: str, dst: str, origin: str, superseded: Optional[RelationEntry]
    ) -> None:
        if not self.obs.enabled:
            return
        self.obs.inc("relation.entries.inserted", origin=origin)
        if superseded is not None:
            self.obs.inc("relation.entries.superseded")
        self.obs.event("relation.insert", src=src, dst=dst, origin=origin)
        self.obs.set_gauge("relation.size", len(self._entries))
