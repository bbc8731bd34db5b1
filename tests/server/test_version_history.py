"""Tests for the per-path version history (fine-grained version control)."""

from repro.common.version import VersionStamp
from repro.net.messages import MetaOp, UploadWrite
from repro.server.cloud import CloudServer
from repro.server.storage import VersionedStore

V = VersionStamp


class TestLineage:
    def test_appends_in_order(self):
        store = VersionedStore()
        for i in range(1, 4):
            store.put("/f", str(i).encode(), V(1, i))
        assert store.history("/f") == [V(1, 1), V(1, 2), V(1, 3)]

    def test_consecutive_duplicates_collapsed(self):
        store = VersionedStore()
        store.put("/f", b"x", V(1, 1))
        store.put("/f", b"x", V(1, 1))
        assert store.history("/f") == [V(1, 1)]

    def test_none_version_not_recorded(self):
        store = VersionedStore()
        store.put("/f", b"x", None)
        assert store.history("/f") == []

    def test_rename_extends_destination(self):
        store = VersionedStore()
        store.put("/f", b"old", V(1, 1))
        store.put("/tmp", b"new", V(1, 2))
        store.rename("/tmp", "/f")
        assert store.history("/f") == [V(1, 1), V(1, 2)]

    def test_source_keeps_copy_across_rename(self):
        # the Word dance: f's history must survive rename f -> t0
        store = VersionedStore()
        store.put("/f", b"v1", V(1, 1))
        store.rename("/f", "/t0")
        assert store.history("/f") == [V(1, 1)]
        assert store.history("/t0") == [V(1, 1)]

    def test_history_is_the_restorable_window(self):
        store = VersionedStore(snapshot_window=2)
        for i in range(1, 5):
            store.put("/f", str(i).encode(), V(1, i))
        assert store.history("/f") == [V(1, 3), V(1, 4)]
        assert [store.snapshot(v) for v in store.history("/f")] == [b"3", b"4"]
        assert store.snapshot(V(1, 2)) is None

    def test_unknown_path_empty(self):
        assert VersionedStore().history("/nope") == []


def _word_saves(store, saves):
    """Word's transactional save, ``saves`` times: rename f -> t_i, create
    and write n_i, rename n_i -> f, unlink t_i."""
    store.put("/f", b"v0", V(1, 0))
    for i in range(saves):
        store.rename("/f", f"/t{i}")
        store.put(f"/n{i}", b"", V(1, 2 * i + 1))
        store.put(f"/n{i}", f"save {i}".encode(), V(1, 2 * i + 2))
        store.rename(f"/n{i}", "/f")
        store.delete(f"/t{i}")
    return ["/f"] + [f"/{kind}{i}" for i in range(saves) for kind in "tn"]


class TestWindowBound:
    """The history is the version window: it holds O(window) stamps, not
    one per apply, whatever the run length or the rename pattern."""

    def test_many_writes_to_one_file_keep_the_window(self):
        server = CloudServer()
        server.handle(MetaOp(kind="create", path="/f", new_version=V(1, 0)))
        for n in range(20_000):
            write = UploadWrite(
                path="/f", offset=n % 8, data=b"x",
                base_version=V(1, n), new_version=V(1, n + 1),
            )
            assert server.handle(write).ok
        history = server.store.history("/f")
        assert history == [V(1, n) for n in range(20_001 - 64, 20_001)]
        assert sum(map(len, server.store._names.values())) == 64

    def test_word_saves_keep_at_most_the_window(self):
        store = VersionedStore()
        names = _word_saves(store, 200)
        stamps = {v for name in names for v in store.history(name)}
        assert len(stamps) <= 64
        assert all(store.snapshot(v) is not None for v in stamps)

    def test_a_deleted_name_with_nothing_to_restore_has_no_entry(self):
        store = VersionedStore()
        names = _word_saves(store, 200)
        assert store.history("/t0") == store.history("/n0") == []
        held = set().union(*store._names.values())
        assert held == {name for name in names if store.history(name)}
        # the document itself keeps the whole window it is named by
        assert len(store.history("/f")) == 64
        assert store.snapshot(store.history("/f")[-1]) == b"save 199"


class TestServerSurface:
    def _seeded(self):
        server = CloudServer()
        server.handle(MetaOp(kind="create", path="/f", new_version=V(1, 1)))
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"one", base_version=V(1, 1), new_version=V(1, 2))
        )
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"two", base_version=V(1, 2), new_version=V(1, 3))
        )
        return server

    def test_version_history(self):
        server = self._seeded()
        assert server.version_history("/f") == [V(1, 1), V(1, 2), V(1, 3)]

    def test_restore_sets_head(self):
        server = self._seeded()
        content = server.restore_version("/f", V(1, 2))
        assert content == b"one"
        assert server.file_content("/f") == b"one"
        assert server.file_version("/f") == V(1, 2)

    def test_restore_forwards(self):
        server = self._seeded()
        received = []
        server.register_client(7, lambda origin, msg: received.append(msg))
        server.restore_version("/f", V(1, 2), origin_client=1)
        assert len(received) == 1

    def test_restore_missing_version_raises(self):
        import pytest

        from repro.common.errors import NotFoundError

        server = self._seeded()
        with pytest.raises(NotFoundError):
            server.restore_version("/f", V(9, 9))

    def test_restore_reusing_its_stamp_lists_it_once(self):
        server = self._seeded()
        server.restore_version("/f", V(1, 2))
        assert server.version_history("/f") == [V(1, 1), V(1, 3), V(1, 2)]

    def test_restore_is_itself_a_version(self):
        server = self._seeded()
        server.restore_version("/f", V(1, 2), as_version=V(1, 4))
        assert server.version_history("/f")[-1] == V(1, 4)
        assert server.file_content("/f") == b"one"
