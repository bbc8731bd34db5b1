"""Sharded multi-tenant cloud topology.

The paper scopes the server deliberately thin (Section VI: "we have
minimized the overhead on the DeltaCFS server, it only needs to apply
incremental data") and leaves "the full server system design including
load balancing" out of scope. This module supplies the minimum of that
missing half: a :class:`ShardRouter` that consistent-hashes **namespace
prefixes** (a path's top-level directory, e.g. ``/u123``) onto N
unmodified :class:`~repro.server.cloud.CloudServer` shards.

Design rules, in order of importance:

1. **Single-shard mode is the identity.** ``ShardRouter(n_shards=1)``
   must reproduce a bare ``CloudServer`` bit-for-bit (same ticks, same
   bytes, same apply log) — the capacity-scaling baseline depends on it.
2. **Per-client session state lives on the home shard.** The reliable
   -delivery dedup window for a client is kept in exactly one shard's
   ``_dedup`` table (the *home shard*, chosen by hashing the client id),
   so exactly-once semantics never depend on which shard a particular
   envelope's payload routes to, and unregistering a client releases the
   window in one place.
3. **Placement is a function of the name.** Between two router calls
   every file sits on its namespace's shard. A rename, link or
   transactional group spanning shards is *migrate, apply, go home*: the
   router moves each touched file bundle (live content, version lineage,
   window snapshots) onto one shard via ``VersionedStore.detach_entry`` /
   ``attach_entry``, that shard applies the message as a purely local op
   — so version stamps, forwards and trace events come out of the
   ordinary apply path and INV-EXACTLY-ONCE / INV-VERSION-MONO hold
   unchanged — and every touched name, and any conflict copy, moves back
   to its own shard. Hard links are the one exception (see ShardRouter).

Hashing is ``md5`` over ``(shard index, virtual node)`` labels — stable
across processes and Python versions (``hash()`` is salted and must not
be used; see DET lint rules).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.pages import Pages
from repro.common.version import VersionStamp
from repro.cost.meter import CostMeter
from repro.net.messages import (
    Envelope,
    Message,
    MetaOp,
    ResyncReply,
    ResyncRequest,
    TxnGroup,
)
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import ApplyResult, CloudServer, ForwardSink, Outcome

#: Virtual nodes per shard on the hash ring.
VNODES = 32


def namespace_of(path: str) -> str:
    """A path's routing namespace: its first component.

    ``/u123/docs/a.txt`` -> ``/u123``; a top-level ``/file`` is its own
    namespace, ``/file`` (every sharded baseline pins that: the md5 of
    the namespace picks the shard); ``/`` and a relative path -> ``/``.
    """
    if not path.startswith("/"):
        return "/"
    cut = path.find("/", 1)
    top = path if cut < 0 else path[:cut]
    return top if len(top) > 1 else "/"


class HashRing:
    """Consistent-hash ring over shard indices with virtual nodes.

    Stable by construction: ring points are md5 digests of string labels,
    so every process — and every future version of this code base — maps
    a namespace to the same shard. The ring never changes once built, so
    :meth:`lookup` hashes each distinct key once.
    """

    def __init__(self, n_shards: int):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(VNODES):
                points.append((self._point(f"shard-{shard}-vn-{vnode}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]
        self._owners: Dict[str, int] = {}

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.md5(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def lookup(self, key: str) -> int:
        """Shard index owning ``key`` (first ring point clockwise)."""
        owner = self._owners.get(key)
        if owner is None:
            i = bisect_right(self._hashes, self._point(key))
            owner = self._owners[key] = self._shards[i % len(self._shards)]
        return owner


class _StoreView:
    """Read-only namespace facade over all shard stores.

    Exposes the subset of :class:`VersionedStore` that clients and tests
    read through ``server.store``: point lookups go to the path's own
    shard (every name lives there between router calls), and a
    stamp-addressed snapshot is searched for on every shard (a stamp does
    not say which shard's window holds it; N is small).
    """

    def __init__(self, router: "ShardRouter"):
        self._router = router

    def _store(self, path: str):
        return self._router.shard_for_path(path).store

    def exists(self, path: str) -> bool:
        return self._store(path).exists(path)

    def get(self, path: str):
        return self._store(path).get(path)

    def lookup(self, path: str):
        return self._store(path).lookup(path)

    def snapshot(self, version: VersionStamp) -> Optional[Pages]:
        for shard in self._router.shards:
            content = shard.store.snapshot(version)
            if content is not None:
                return content
        return None

    def history(self, path: str) -> List[VersionStamp]:
        return self._store(path).history(path)

    def restorable_history(self, path: str) -> List[VersionStamp]:
        return self._store(path).restorable_history(path)

    def paths(self) -> List[str]:
        out: List[str] = []
        for shard in self._router.shards:
            out.extend(shard.store.paths())
        return sorted(out)


class ShardRouter:
    """N CloudServer shards behind one CloudServer-shaped endpoint.

    Args:
        n_shards: number of shards.
        meter: when given, **all** shards charge this one meter — the
            single-tenant accounting mode the capacity harness uses so a
            1-shard router is indistinguishable from a bare server. When
            ``None``, each shard gets its own :class:`CostMeter` (read
            them via :attr:`shard_meters`) for per-shard load curves.
        obs: observability hub, shared by the router and every shard.

    Between calls a file lives on its namespace's shard (the ring's
    lookups are memoised per namespace and per client id). The one
    exception is a hard link: every name bound to one shared
    ``StoredFile`` lives on one shard, so a snapshot minted through one
    name is in the window a delta through another reads. The link
    directory ``_links`` maps each name a link bound to that shard; an
    entry follows its name through renames and goes when it is unlinked.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        meter: Optional[CostMeter] = None,
        obs: Observability = NULL_OBS,
    ):
        self.obs = obs
        self.ring = HashRing(n_shards)
        if meter is not None:
            self.shard_meters: List[CostMeter] = [meter] * n_shards
        else:
            self.shard_meters = [CostMeter() for _ in range(n_shards)]
        self.shards: List[CloudServer] = [
            CloudServer(meter=self.shard_meters[i], obs=obs)
            for i in range(n_shards)
        ]
        for index, shard in enumerate(self.shards):
            shard.shard_id = index
        self.store = _StoreView(self)
        self._links: Dict[str, int] = {}
        # client id -> (home shard index, registered shard indices).
        self._sessions: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self.migrations = 0
        self.cross_shard_renames = 0

    # -- placement -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_index_for_path(self, path: str) -> int:
        """The shard ``path`` lives on: its link group's, else its
        namespace's ring owner."""
        linked = self._links.get(path)
        return self.ring.lookup(namespace_of(path)) if linked is None else linked

    def shard_for_path(self, path: str) -> CloudServer:
        return self.shards[self.shard_index_for_path(path)]

    def home_shard_index(self, client_id: int) -> int:
        return self.ring.lookup(f"client-{client_id}")

    # -- client registry ------------------------------------------------------

    def register_client(
        self,
        client_id: int,
        sink: ForwardSink,
        *,
        shares: Tuple[str, ...] = ("/",),
    ) -> None:
        """Attach a client on every shard its share prefixes can touch.

        A share scoped inside one namespace (``/u123`` or deeper) lands
        on that namespace's shard only; a root or top-level-spanning
        share (``/``) must register everywhere, since any shard may apply
        a message the client is entitled to see.
        """
        targets = self._target_shards(shares)
        for index in range(len(self.shards)):
            if index in targets:
                self.shards[index].register_client(client_id, sink, shares=shares)
            else:
                # Re-registration may narrow the shard set; drop the stale
                # subscription but keep any dedup state (it lives on the
                # home shard and must survive re-registration).
                self.shards[index]._drop_registration(client_id)
        self._sessions[client_id] = (
            self.home_shard_index(client_id),
            tuple(sorted(targets)),
        )

    def unregister_client(self, client_id: int) -> None:
        """Detach a client everywhere and release its session state."""
        session = self._sessions.pop(client_id, None)
        if session is None:
            return
        home, targets = session
        for index in targets:
            self.shards[index]._drop_registration(client_id)
        self.shards[home]._dedup.pop(client_id, None)

    def last_msg_id(self, client_id: int) -> int:
        """The high-water mark of the client's dedup window (home shard)."""
        home = self.home_shard_index(client_id)
        return self.shards[home].last_msg_id(client_id)

    def _target_shards(self, shares: Sequence[str]) -> Set[int]:
        targets: Set[int] = set()
        for prefix in shares:
            if namespace_of(prefix) == "/":
                return set(range(len(self.shards)))
            targets.add(self.shard_index_for_path(prefix))
        return targets if targets else set(range(len(self.shards)))

    # -- apply path -----------------------------------------------------------

    def handle(self, message: Message, origin_client: int = 0) -> ApplyResult:
        """Route one message to the shard its paths live on; when a rename /
        link / transactional group spans shards, move every touched file
        onto one shard, apply there, and send every touched name home.

        Single-shard messages apply directly — bit-identically to an
        unsharded :class:`CloudServer`. Multi-shard messages get a
        ``server.shard.route`` wrapper span around the moves and the apply.
        """
        indices = self._touched_shards(message)
        if len(indices) == 1:
            target = indices[0]
            result = self.shards[target].handle(message, origin_client)
            if result.conflict_paths or isinstance(message, (MetaOp, TxnGroup)):
                self._settle(message, result, target, colocated=False)
            return result
        target, kind = self._colocation_target(message, indices)
        with self.obs.span("server.shard.route", shards=len(indices), target=target):
            if kind == "rename":
                self.cross_shard_renames += 1
                if self.obs.enabled:
                    self.obs.event(
                        "server.shard.rename_forward",
                        path=message.path,
                        dest=message.dest,
                        src_shard=self.shard_index_for_path(message.path),
                        dst_shard=target,
                    )
            for path in message.touched_paths():
                self._migrate(path, self.shard_index_for_path(path), target, reason=kind)
            # The apply span nests inside the route span.
            result = self.shards[target].handle(message, origin_client)
            self._settle(message, result, target, colocated=True)
        return result

    def handle_envelope(
        self, envelope: Envelope, origin_client: int = 0
    ) -> Tuple[List[Message], bool]:
        """Exactly-once apply with the dedup window on the home shard.

        The envelope witness events (``server.envelope``) and the dedup
        cache both live on the client's home shard regardless of where
        the payload routes, so INV-EXACTLY-ONCE is evaluated against one
        coherent stream per client.
        """
        home_index = self.home_shard_index(origin_client)
        return self.shards[home_index].deliver_once(
            envelope, origin_client, self.handle, home=home_index
        )

    def _touched_shards(self, message: Message) -> List[int]:
        """Distinct shard indices the message touches, first-touch order."""
        indices: List[int] = []
        for path in message.touched_paths():
            index = self.shard_index_for_path(path)
            if index not in indices:
                indices.append(index)
        return indices if indices else [0]

    def _colocation_target(
        self, message: Message, indices: List[int]
    ) -> Tuple[int, str]:
        """Where a multi-shard message will land, and why (side-effect free):
        with the first hard-linked name it touches, else — a rename or
        link — on the destination's shard, so the new name is already
        home, else on its first path's shard."""
        if isinstance(message, MetaOp) and message.kind in ("rename", "link"):
            target, kind = self.shard_index_for_path(message.dest), message.kind
        else:
            target = indices[0]
            kind = "group" if isinstance(message, TxnGroup) else "meta"
        linked = (self._links[p] for p in message.touched_paths() if p in self._links)
        return next(linked, target), kind

    def _settle(
        self, message: Message, result: ApplyResult, target: int, *, colocated: bool
    ) -> None:
        """After shard ``target`` applied ``message``: follow its links,
        renames and unlinks in the link directory, then send every touched
        name (when it was co-located) and each conflict copy to the shard
        it lives on."""
        if result.ok:
            self._relink(message, target)
        touched = message.touched_paths() if colocated else ()
        for path in (*touched, *result.conflict_paths):
            self._migrate(path, target, self.shard_index_for_path(path), reason="home")

    def _relink(self, message: Message, target: int) -> None:
        """A link puts both names on the source's shard, a rename carries
        an entry to the new name and an unlink drops it, in member order."""
        for op in getattr(message, "members", (message,)):
            if not isinstance(op, MetaOp):
                continue
            if op.kind == "link":
                self._links[op.path] = self._links[op.dest] = self._links.get(op.path, target)
            elif op.kind in ("rename", "unlink") and op.path in self._links:
                shard = self._links.pop(op.path)
                if op.kind == "rename":
                    self._links[op.dest] = shard

    def _migrate(self, path: str, source: int, target: int, *, reason: str) -> None:
        if source == target:
            return
        origin = self.shards[source]
        if path in origin.dirs:
            # A directory has no stored entry: its ``dirs`` membership
            # moves with the name, silently (no event, not a migration).
            origin.dirs.discard(path)
            self.shards[target].dirs.add(path)
        bundle = origin.store.detach_entry(path)
        if bundle is None:
            return
        stored, lineage, snapshots = bundle
        if self.obs.enabled:
            self.obs.event(
                "server.shard.detach",
                path=path,
                src_shard=source,
                dst_shard=target,
                reason=reason,
                versions=len(lineage),
            )
        self.shards[target].store.attach_entry(path, stored, lineage, snapshots)
        self.migrations += 1
        if self.obs.enabled:
            # versions is re-derived from the destination store *after*
            # the merge — an independent count the migration-safety
            # invariant diffs against the detach-side lineage length.
            self.obs.event(
                "server.shard.attach",
                path=path,
                src_shard=source,
                dst_shard=target,
                versions=len(self.shards[target].store.history(path)),
            )
            self.obs.inc("server.shard.migrations", reason=reason)

    # -- aggregate accounting -------------------------------------------------

    @property
    def apply_log(self) -> List[Outcome]:
        """Interleaved apply log across shards is meaningless; expose the
        concatenation in shard order for coarse assertions only."""
        out: List[Outcome] = []
        for shard in self.shards:
            out.extend(shard.apply_log)
        return out

    @property
    def upload_order(self) -> List[str]:
        out: List[str] = []
        for shard in self.shards:
            out.extend(shard.upload_order)
        return out

    @property
    def dedup_drops(self) -> int:
        return sum(shard.dedup_drops for shard in self.shards)

    @property
    def dirs(self) -> Set[str]:
        out: Set[str] = set()
        for shard in self.shards:
            out.update(shard.dirs)
        return out

    # -- read API (routed by name) ---------------------------------------------

    def file_content(self, path: str) -> bytes:
        return self.shard_for_path(path).file_content(path)

    def file_version(self, path: str) -> Optional[VersionStamp]:
        return self.shard_for_path(path).file_version(path)

    def answer(self, request: Message, origin_client: int = 0) -> Message:
        """A read-style request, answered by the shard its path lives on; a
        resync's paths each by their own shard, in request order."""
        if isinstance(request, ResyncRequest):
            versions = []
            for path in request.paths:
                reply = self.shard_for_path(path).answer(
                    ResyncRequest(paths=(path,)), origin_client
                )
                versions.extend(reply.versions)
            return ResyncReply(versions=tuple(versions))
        return self.shard_for_path(request.path).answer(request, origin_client)
