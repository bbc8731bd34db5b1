"""ShardRouter: placement, identity with a bare server, cross-shard moves."""

import pytest

from repro.common.version import VersionStamp
from repro.cost.meter import CostMeter
from repro.delta.bitwise import bitwise_delta
from repro.net.messages import (
    Envelope,
    FileDownload,
    HistoryRequest,
    MetaOp,
    RangeRequest,
    RestoreRequest,
    ResyncRequest,
    TxnGroup,
    UploadDelta,
    UploadWrite,
)
from repro.server import CloudServer, HashRing, ShardRouter, namespace_of


def _two_namespaces_on_different_shards(router):
    """First two /uN namespaces the ring places on distinct shards."""
    seen = {}
    for i in range(200):
        ns = f"/u{i}"
        seen.setdefault(router.shard_index_for_path(ns + "/f"), ns)
        if len(seen) >= 2:
            break
    assert len(seen) >= 2, "ring degenerated onto one shard"
    (s1, ns1), (s2, ns2) = list(seen.items())[:2]
    return (s1, ns1), (s2, ns2)


def _stamp(counter, client=1):
    return VersionStamp(client, counter)


def _history(server, path):
    return list(server.answer(HistoryRequest(path=path)).versions)


def _range(server, path, offset, length):
    reply = server.answer(RangeRequest(path=path, offset=offset, length=length))
    return reply.data, reply.version


def assert_placed(router):
    """Every path on shard *i* is a path the router places on shard *i*."""
    for index, shard in enumerate(router.shards):
        for path in shard.store.paths():
            assert router.shard_index_for_path(path) == index, (path, index)


class TestNamespaceAndRing:
    def test_namespace_of(self):
        assert namespace_of("/u123/docs/a.txt") == "/u123"
        assert namespace_of("/u123") == "/u123"
        assert namespace_of("/file") == "/file"
        assert namespace_of("/") == "/"
        assert namespace_of("rel") == "/"

    def test_ring_is_stable_across_instances(self):
        a, b = HashRing(8), HashRing(8)
        for i in range(100):
            assert a.lookup(f"/u{i}") == b.lookup(f"/u{i}")

    def test_ring_spreads_namespaces(self):
        ring = HashRing(8)
        owners = {ring.lookup(f"/u{i}") for i in range(500)}
        assert len(owners) == 8

    def test_ring_lookup_in_range(self):
        ring = HashRing(3)
        for i in range(50):
            assert 0 <= ring.lookup(f"key{i}") < 3


class TestRouting:
    def test_single_namespace_message_routes_to_owner(self):
        router = ShardRouter(4)
        (s1, ns1), _ = _two_namespaces_on_different_shards(router)
        router.handle(MetaOp(kind="create", path=f"{ns1}/a", new_version=_stamp(1)))
        assert router.shards[s1].store.exists(f"{ns1}/a")
        for i, shard in enumerate(router.shards):
            if i != s1:
                assert not shard.store.exists(f"{ns1}/a")

    def test_reads_route_like_writes(self):
        router = ShardRouter(4)
        (_, ns1), _ = _two_namespaces_on_different_shards(router)
        path = f"{ns1}/a"
        router.handle(MetaOp(kind="create", path=path, new_version=_stamp(1)))
        router.handle(
            UploadWrite(path=path, offset=0, data=b"xyz",
                        base_version=_stamp(1), new_version=_stamp(2))
        )
        assert router.file_content(path) == b"xyz"
        assert router.file_version(path) == _stamp(2)
        assert _range(router, path, 1, 1) == (b"y", _stamp(2))
        resync = router.answer(ResyncRequest(paths=(path,)))
        assert list(resync.versions) == [(path, _stamp(2))]
        assert _history(router, path) == [_stamp(1), _stamp(2)]
        assert router.store.exists(path)
        assert router.store.paths() == [path]

    def test_store_view_snapshot_searches_all_shards(self):
        router = ShardRouter(4)
        (_, ns1), (_, ns2) = _two_namespaces_on_different_shards(router)
        router.handle(MetaOp(kind="create", path=f"{ns1}/a", new_version=_stamp(1)))
        router.handle(MetaOp(kind="create", path=f"{ns2}/b", new_version=_stamp(9)))
        assert router.store.snapshot(_stamp(1)) == b""
        assert router.store.snapshot(_stamp(9)) == b""
        assert router.store.snapshot(_stamp(77)) is None


class TestCrossShardRename:
    def test_rename_migrates_and_applies(self):
        router = ShardRouter(4)
        (s1, ns1), (s2, ns2) = _two_namespaces_on_different_shards(router)
        src, dst = f"{ns1}/a.txt", f"{ns2}/b.txt"
        router.handle(MetaOp(kind="create", path=src, new_version=_stamp(1)))
        router.handle(
            UploadWrite(path=src, offset=0, data=b"hello",
                        base_version=_stamp(1), new_version=_stamp(2))
        )
        result = router.handle(MetaOp(kind="rename", path=src, dest=dst,
                                      new_version=_stamp(3)))
        assert result.ok
        assert router.cross_shard_renames == 1
        assert router.migrations == 1
        assert router.file_content(dst) == b"hello"
        assert not router.shards[s1].store.exists(src)
        assert not router.shards[s1].store.exists(dst)
        assert router.shards[s2].store.exists(dst)
        # Lineage and snapshots moved with the file: old versions restorable.
        assert _stamp(2) in _history(router, dst)
        restored = router.answer(RestoreRequest(path=dst, version=_stamp(2)))
        assert restored == FileDownload(path=dst, data=b"hello", version=_stamp(2))

    def test_rename_within_one_shard_does_not_migrate(self):
        router = ShardRouter(4)
        (_, ns1), _ = _two_namespaces_on_different_shards(router)
        router.handle(MetaOp(kind="create", path=f"{ns1}/a", new_version=_stamp(1)))
        router.handle(MetaOp(kind="rename", path=f"{ns1}/a", dest=f"{ns1}/b",
                             new_version=_stamp(2)))
        assert router.migrations == 0
        assert router.cross_shard_renames == 0

    def test_updates_after_cross_shard_rename_apply_at_new_home(self):
        router = ShardRouter(4)
        (_, ns1), (s2, ns2) = _two_namespaces_on_different_shards(router)
        src, dst = f"{ns1}/a.txt", f"{ns2}/b.txt"
        router.handle(MetaOp(kind="create", path=src, new_version=_stamp(1)))
        router.handle(MetaOp(kind="rename", path=src, dest=dst))
        result = router.handle(
            UploadWrite(path=dst, offset=0, data=b"post",
                        base_version=_stamp(1), new_version=_stamp(2))
        )
        assert result.ok
        assert router.shards[s2].file_content(dst) == b"post"

    def test_cross_shard_group_colocates_members(self):
        router = ShardRouter(4)
        (s1, ns1), (s2, ns2) = _two_namespaces_on_different_shards(router)
        a, b = f"{ns2}/a", f"{ns1}/b"
        router.handle(MetaOp(kind="create", path=a, new_version=_stamp(1)))
        router.handle(MetaOp(kind="create", path=b, new_version=_stamp(2)))
        group = TxnGroup(members=[
            UploadWrite(path=a, offset=0, data=b"A", base_version=_stamp(1),
                        new_version=_stamp(3)),
            UploadWrite(path=b, offset=0, data=b"B", base_version=_stamp(2),
                        new_version=_stamp(4)),
        ])
        result = router.handle(group)
        assert result.ok
        assert router.migrations == 2  # b moved next to a, then back home
        assert router.shards[s2].store.exists(a)
        assert not router.shards[s2].store.exists(b)
        assert router.shards[s1].store.exists(b)
        assert router.shard_index_for_path(b) == s1
        assert router.file_content(b) == b"B"
        assert_placed(router)


def _write(path, base, new, data, offset=0):
    return UploadWrite(path=path, offset=offset, data=data,
                       base_version=_stamp(base), new_version=_stamp(new))


def _delta(path, base, new, old, target):
    """A delta through ``path`` whose COPY ops read the snapshot of
    ``base``, whichever name minted it."""
    return UploadDelta(path=path, base_version=_stamp(base), new_version=_stamp(new),
                       content_base=_stamp(base), delta=bitwise_delta(old, target, 4))


class TestHardLinkAcrossShards:
    """One file, two names: ``/notes`` and ``/notes~`` are two top-level
    namespaces on two shards, and ``/c`` is on a third. A router must
    answer every message exactly as a bare server does — in particular a
    delta through one name whose content base was minted through the
    other, wherever a rename, link or group took either name."""

    LINKED = [
        MetaOp(kind="create", path="/notes", new_version=_stamp(1)),
        _write("/notes", 1, 2, b"0123456789"),
        MetaOp(kind="link", path="/notes", dest="/notes~"),
        _write("/notes~", 2, 3, b"AB"),
        _write("/notes", 3, 4, b"YZ", offset=8),  # b"AB234567YZ"
    ]
    TAILS = {
        "unlink-first": [
            _delta("/notes~", 4, 5, b"AB234567YZ", b"AB23--4567YZ"),
            MetaOp(kind="unlink", path="/notes"),
        ],
        "unlink-second": [
            _delta("/notes~", 4, 5, b"AB234567YZ", b"AB23--4567YZ"),
            MetaOp(kind="unlink", path="/notes~"),
        ],
        "rename-first-away": [
            MetaOp(kind="rename", path="/notes", dest="/c"),
            _write("/c", 4, 5, b"!!"),
            _delta("/notes~", 5, 6, b"!!234567YZ", b"!!23--4567YZ"),
        ],
        "link-second-again": [
            MetaOp(kind="link", path="/notes~", dest="/c"),
            _write("/c", 4, 5, b"!!"),
            _delta("/notes", 5, 6, b"!!234567YZ", b"!!23--4567YZ"),
        ],
        "group-led-elsewhere": [
            MetaOp(kind="create", path="/c", new_version=_stamp(5)),
            TxnGroup(members=[
                _write("/c", 5, 6, b"c"),
                _delta("/notes~", 4, 7, b"AB234567YZ", b"AB23--4567YZ"),
            ]),
        ],
    }

    @pytest.mark.parametrize("tail", TAILS)
    def test_router_answers_like_a_bare_server(self, tail):
        bare, router = CloudServer(), ShardRouter(4)
        assert len({router.shard_index_for_path(p) for p in ("/notes", "/notes~", "/c")}) == 3
        for message in self.LINKED + self.TAILS[tail]:
            a, b = bare.handle(message, 1), router.handle(message, 1)
            assert (a.status, a.version) == (b.status, b.version), message
            assert_placed(router)
            for path in bare.store.paths():
                assert router.file_content(path) == bare.file_content(path)
                assert router.file_version(path) == bare.file_version(path)
                assert _history(router, path) == _history(bare, path)
        assert router.store.paths() == bare.store.paths()
        assert all(r.ok for r in bare.apply_log)
        # The link directory names live files only.
        assert set(router._links) <= set(bare.store.paths())


class TestSessions:
    def test_scoped_share_registers_on_one_shard(self):
        router = ShardRouter(4)
        (s1, ns1), _ = _two_namespaces_on_different_shards(router)
        router.register_client(7, lambda o, m: None, shares=(ns1,))
        registered = [i for i, s in enumerate(router.shards) if 7 in s._sinks]
        assert registered == [s1]

    def test_root_share_registers_everywhere(self):
        router = ShardRouter(4)
        router.register_client(7, lambda o, m: None, shares=("/",))
        assert all(7 in shard._sinks for shard in router.shards)

    def test_forwarding_reaches_cross_shard_subscriber(self):
        router = ShardRouter(4)
        (_, ns1), _ = _two_namespaces_on_different_shards(router)
        got = []
        router.register_client(7, lambda origin, msg: got.append(msg),
                               shares=(ns1,))
        router.handle(MetaOp(kind="create", path=f"{ns1}/a",
                             new_version=_stamp(1)), origin_client=2)
        assert len(got) == 1
        assert got[0].inner.path == f"{ns1}/a"

    def test_unregister_releases_all_session_state(self):
        router = ShardRouter(4)
        router.register_client(7, lambda o, m: None, shares=("/",))
        env = Envelope(msg_id=1, attempt=1,
                       inner=MetaOp(kind="mkdir", path="/d"))
        router.handle_envelope(env, origin_client=7)
        home = router.shards[router.home_shard_index(7)]
        assert 7 in home._dedup
        router.unregister_client(7)
        assert all(7 not in shard._sinks for shard in router.shards)
        assert all(7 not in shard._dedup for shard in router.shards)

    def test_envelope_dedup_lives_on_home_shard(self):
        router = ShardRouter(4)
        env = Envelope(msg_id=1, attempt=1,
                       inner=MetaOp(kind="mkdir", path="/d"))
        replies1, dup1 = router.handle_envelope(env, origin_client=3)
        replies2, dup2 = router.handle_envelope(env, origin_client=3)
        assert not dup1 and dup2
        assert replies1 == replies2
        assert router.dedup_drops == 1
        home = router.home_shard_index(3)
        assert 3 in router.shards[home]._dedup
        for i, shard in enumerate(router.shards):
            if i != home:
                assert 3 not in shard._dedup


class TestSingleShardIdentity:
    def test_single_shard_apply_stream_matches_bare_server(self):
        """Same messages, same meter charges, same store state."""
        meter_a, meter_b = CostMeter(), CostMeter()
        bare = CloudServer(meter=meter_a)
        router = ShardRouter(1, meter=meter_b)
        messages = [
            MetaOp(kind="mkdir", path="/u1"),
            MetaOp(kind="create", path="/u1/f.bin", new_version=_stamp(1)),
            UploadWrite(path="/u1/f.bin", offset=0, data=b"abcd" * 64,
                        base_version=_stamp(1), new_version=_stamp(2)),
            MetaOp(kind="rename", path="/u1/f.bin", dest="/u1/g.bin",
                   new_version=_stamp(3)),
            UploadWrite(path="/u1/g.bin", offset=4, data=b"zz",
                        base_version=_stamp(2), new_version=_stamp(4)),
        ]
        for msg in messages:
            ra = bare.handle(msg, origin_client=1)
            rb = router.handle(msg, origin_client=1)
            assert (ra.status, ra.path, ra.version) == (rb.status, rb.path, rb.version)
        assert meter_a.total == meter_b.total
        assert bare.store.paths() == router.store.paths()
        assert bare.file_content("/u1/g.bin") == router.file_content("/u1/g.bin")
        assert bare.upload_order == router.upload_order
        assert router.migrations == 0

    def test_router_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestStoreView:
    @staticmethod
    def _four_conflicts(n_shards):
        """Four top-level files, each first-write-wins lost once."""
        router = ShardRouter(n_shards)
        names = ["/a.txt", "/b.txt", "/c.txt", "/d.txt"]
        for i, path in enumerate(names):
            router.handle(
                MetaOp(kind="create", path=path, new_version=_stamp(i + 1)),
                origin_client=1,
            )
            first, late = (
                UploadWrite(path=path, offset=0, data=who * 8,
                            base_version=_stamp(i + 1),
                            new_version=_stamp(10 + i, client))
                for client, who in ((1, b"A"), (2, b"B"))
            )
            assert router.handle(first, origin_client=1).status == "applied"
            assert router.handle(late, origin_client=2).status == "conflict"
        copies = [p for p in router.store.paths() if "conflicted copy" in p]
        assert len(copies) == len(names)
        return router

    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    def test_conflict_copies_live_on_their_own_shard(self, n_shards):
        """A top-level copy's own name is its whole namespace: written
        beside the file it lost to, it is moved to its own shard."""
        assert_placed(self._four_conflicts(n_shards))

    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    def test_point_lookups_find_every_listed_path(self, n_shards):
        """A conflict copy is written on the shard of the file it lost to;
        a top-level copy's own name — its whole namespace — routes
        elsewhere. ``store.paths()`` listed such copies while ``exists`` /
        ``get`` / ``lookup`` denied them (8 shards: 4 of 4 unreachable)."""
        store = self._four_conflicts(n_shards).store
        for path in store.paths():
            assert store.exists(path), path
            assert store.get(path) is store.lookup(path) is not None
            assert store.get(path).content in (b"A" * 8, b"B" * 8)
            assert store.history(path) != []
        assert not store.exists("/nowhere.txt")
        assert store.lookup("/nowhere.txt") is None

    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    def test_content_reads_find_every_listed_path(self, n_shards):
        """``file_content`` / ``file_version`` / a range read where the
        point lookups do: they routed a conflict copy by its own name and
        raised for it behind more than one shard."""
        router = self._four_conflicts(n_shards)
        for path in router.store.paths():
            stored = router.store.get(path)
            assert router.file_content(path) == stored.content
            assert router.file_version(path) == stored.version
            assert _range(router, path, 2, 3) == (stored.content[2:5], stored.version)
