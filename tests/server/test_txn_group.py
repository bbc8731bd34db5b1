"""Tests for transactional (backindex) group application."""

import pytest

from repro.common.version import VersionStamp
from repro.net.messages import HistoryRequest, MetaOp, TxnGroup, UploadWrite
from repro.server.cloud import CloudServer
from repro.server.shard import ShardRouter

V = VersionStamp


def _seeded():
    server = CloudServer()
    server.handle(MetaOp(kind="create", path="/f", new_version=V(1, 0)))
    server.handle(
        UploadWrite(path="/f", offset=0, data=b"0" * 50, base_version=V(1, 0), new_version=V(1, 1))
    )
    return server


class TestAtomicity:
    def test_group_applies_all(self):
        server = _seeded()
        group = TxnGroup(
            members=(
                MetaOp(kind="create", path="/a", new_version=V(1, 2)),
                UploadWrite(path="/a", offset=0, data=b"aa", base_version=V(1, 2), new_version=V(1, 3)),
                MetaOp(kind="create", path="/b", new_version=V(1, 4)),
            )
        )
        result = server.handle(group)
        assert result.ok
        assert server.file_content("/a") == b"aa"
        assert server.store.exists("/b")

    def test_conflict_rolls_back_whole_group(self):
        server = _seeded()
        # stale base on the second member
        group = TxnGroup(
            members=(
                MetaOp(kind="create", path="/new", new_version=V(1, 9)),
                UploadWrite(path="/f", offset=0, data=b"X", base_version=V(9, 9), new_version=V(1, 10)),
            )
        )
        result = server.handle(group)
        assert result.status == "conflict"
        # the create was rolled back too: all-or-nothing
        assert not server.store.exists("/new")
        assert server.file_content("/f") == b"0" * 50

    def test_group_conflict_materializes_losers(self):
        # "if one file in this atomic operation has conflict, we label all
        # the files in this operation as conflict"
        server = _seeded()
        # another client moved /f forward; the group below is based on the
        # now-stale V(1,1), which still sits in the snapshot window
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"W", base_version=V(1, 1), new_version=V(2, 1)),
            origin_client=2,
        )
        group = TxnGroup(
            members=(
                UploadWrite(path="/f", offset=0, data=b"Y", base_version=V(1, 1), new_version=V(3, 1)),
            )
        )
        result = server.handle(group, origin_client=3)
        assert result.status == "conflict"
        assert len(result.conflict_paths) == 1
        # the conflict copy holds the losing content applied to its base
        copy = result.conflict_paths[0]
        assert server.file_content(copy)[0:1] == b"Y"
        # the winner's content was untouched
        assert server.file_content("/f")[0:1] == b"W"

    def test_group_internal_version_chain_ok(self):
        # a member may base on a version another member just created
        server = _seeded()
        group = TxnGroup(
            members=(
                MetaOp(kind="create", path="/t", new_version=V(1, 5)),
                UploadWrite(path="/t", offset=0, data=b"one", base_version=V(1, 5), new_version=V(1, 6)),
                UploadWrite(path="/t", offset=3, data=b"two", base_version=V(1, 6), new_version=V(1, 7)),
            )
        )
        assert server.handle(group).ok
        assert server.file_content("/t") == b"onetwo"

    def test_rename_within_group_satisfies_base_check(self):
        server = _seeded()
        server.handle(MetaOp(kind="create", path="/tmp", new_version=V(1, 2)))
        server.handle(
            UploadWrite(path="/tmp", offset=0, data=b"new!", base_version=V(1, 2), new_version=V(1, 3))
        )
        group = TxnGroup(
            members=(
                MetaOp(kind="rename", path="/tmp", dest="/f"),
                UploadWrite(path="/f", offset=4, data=b"more", base_version=V(1, 3), new_version=V(1, 4)),
            )
        )
        result = server.handle(group)
        assert result.ok
        assert server.file_content("/f") == b"new!more"

    def test_empty_group(self):
        server = _seeded()
        assert server.handle(TxnGroup(members=())).ok


@pytest.fixture(params=["bare", "router4"])
def server(request):
    return CloudServer() if request.param == "bare" else ShardRouter(4)


def _stale_write():
    """A member whose base the server has never seen: the group conflicts."""
    return UploadWrite(
        path="/zz", offset=0, data=b"Z", base_version=V(9, 9), new_version=V(1, 90)
    )


class TestExactRollback:
    """A rolled-back group leaves no trace on the paths it rolled back."""

    def test_lineage_has_no_uncommitted_version(self, server):
        server.handle(MetaOp(kind="create", path="/zz", new_version=V(2, 1)))
        server.handle(MetaOp(kind="create", path="/a", new_version=V(1, 0)))
        server.handle(
            UploadWrite(path="/a", offset=0, data=b"one", base_version=V(1, 0), new_version=V(1, 1))
        )
        group = TxnGroup(
            members=(
                UploadWrite(path="/a", offset=0, data=b"two", base_version=V(1, 1), new_version=V(1, 2)),
                _stale_write(),
            )
        )
        assert server.handle(group).status == "conflict"
        assert server.file_content("/a") == b"one"
        assert server.store.history("/a") == [V(1, 0), V(1, 1)]
        history = server.answer(HistoryRequest(path="/a")).versions
        assert list(history) == [V(1, 0), V(1, 1)]

    def test_mkdir_is_rolled_back(self, server):
        server.handle(MetaOp(kind="create", path="/zz", new_version=V(2, 1)))
        server.handle(MetaOp(kind="mkdir", path="/keep"))
        group = TxnGroup(
            members=(
                MetaOp(kind="mkdir", path="/d"),
                MetaOp(kind="rmdir", path="/keep"),
                _stale_write(),
            )
        )
        assert server.handle(group).status == "conflict"
        assert "/d" not in server.dirs
        assert "/keep" in server.dirs

    @pytest.mark.parametrize("kind", ["rename", "unlink"])
    def test_hard_link_still_shares_content(self, server, kind):
        server.handle(MetaOp(kind="create", path="/zz", new_version=V(2, 1)))
        server.handle(MetaOp(kind="create", path="/a", new_version=V(1, 0)))
        server.handle(MetaOp(kind="link", path="/a", dest="/c"))
        shared = server.store.get("/c")
        assert server.store.get("/a") is shared
        group = TxnGroup(
            members=(
                MetaOp(kind=kind, path="/a", dest="/b" if kind == "rename" else None),
                _stale_write(),
            )
        )
        assert server.handle(group).status == "conflict"
        assert not server.store.exists("/b")
        assert server.store.get("/a") is server.store.get("/c") is shared
        assert (shared.content, shared.version) == (b"", V(1, 0))
        # an update through one name is visible through the other again
        server.handle(
            UploadWrite(path="/a", offset=0, data=b"both", base_version=V(1, 0), new_version=V(1, 1))
        )
        assert server.file_content("/c") == b"both"
