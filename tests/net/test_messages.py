"""Tests for the wire protocol's size accounting."""

from repro.common.version import VersionStamp
from repro.delta.format import Copy, Delta, Literal
from repro.net.messages import (
    Ack,
    ChunkData,
    ChunkHave,
    ConflictNotice,
    FileDownload,
    Forward,
    MetaOp,
    SignatureMessage,
    TxnGroup,
    UploadDelta,
    UploadFull,
    UploadTruncate,
    UploadWrite,
    UploadWriteBatch,
)

V1 = VersionStamp(1, 1)
V2 = VersionStamp(1, 2)


class TestPayloadDominates:
    def test_upload_write_size(self):
        msg = UploadWrite(path="/f", offset=0, data=b"x" * 1000, base_version=V1, new_version=V2)
        assert 1000 < msg.wire_size() < 1100

    def test_upload_full_size(self):
        msg = UploadFull(path="/f", data=b"x" * 5000)
        assert 5000 < msg.wire_size() < 5100

    def test_delta_message_size_tracks_delta(self):
        delta = Delta.from_ops([Copy(0, 4096), Literal(b"y" * 256)])
        msg = UploadDelta(path="/f", delta=delta, base_version=V1, new_version=V2, content_base=V1)
        assert delta.wire_size() < msg.wire_size() < delta.wire_size() + 100

    def test_write_batch_sums_runs(self):
        msg = UploadWriteBatch(path="/f", runs=((0, b"a" * 100), (500, b"b" * 200)))
        assert 300 < msg.wire_size() < 400

    def test_download_size(self):
        msg = FileDownload(path="/f", data=b"z" * 2048)
        assert 2048 < msg.wire_size() < 2150


class TestControlMessagesAreSmall:
    def test_meta_op(self):
        assert MetaOp(kind="rename", path="/a", dest="/b").wire_size() < 50

    def test_ack(self):
        assert Ack(path="/f", version=V1).wire_size() < 40

    def test_truncate(self):
        assert UploadTruncate(path="/f", length=0, base_version=V1, new_version=V2).wire_size() < 60

    def test_conflict_notice(self):
        notice = ConflictNotice(path="/f", conflict_path="/f (conflicted copy c1-2)", winning_version=V1)
        assert notice.wire_size() < 100


class TestVersionOverhead:
    def test_versions_add_bytes(self):
        # the paper: DeltaCFS sends "some control information such as
        # files' versions" — versions must cost something on the wire
        bare = UploadWrite(path="/f", offset=0, data=b"x" * 100)
        stamped = UploadWrite(path="/f", offset=0, data=b"x" * 100, base_version=V1, new_version=V2)
        assert stamped.wire_size() > bare.wire_size()
        assert stamped.wire_size() - bare.wire_size() <= 20


class TestGroupsAndExchange:
    def test_txn_group_sums_members(self):
        members = (
            MetaOp(kind="rename", path="/a", dest="/b"),
            UploadWrite(path="/b", offset=0, data=b"d" * 50),
        )
        group = TxnGroup(members=members)
        assert group.wire_size() > sum(m.wire_size() for m in members)

    def test_signature_scales_with_blocks(self):
        small = SignatureMessage(path="/f", block_count=1)
        large = SignatureMessage(path="/f", block_count=1000)
        assert large.wire_size() - small.wire_size() == 999 * 20

    def test_chunk_have_scales_with_fingerprints(self):
        msg = ChunkHave(path="/f", fingerprints=tuple(bytes(32) for _ in range(10)))
        assert msg.wire_size() >= 320

    def test_chunk_data_carries_bodies(self):
        msg = ChunkData(path="/f", chunks=(b"a" * 1000, b"b" * 2000))
        assert msg.wire_size() > 3000

    def test_forward_wraps_inner(self):
        inner = UploadWrite(path="/f", offset=0, data=b"x" * 100)
        fwd = Forward(origin_client=1, inner=inner)
        assert fwd.wire_size() > inner.wire_size()


class TestTouchedPaths:
    """`touched_paths()` is total: every message class answers it."""

    @staticmethod
    def _subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from TestTouchedPaths._subclasses(sub)

    def test_every_message_class_answers(self):
        from repro.net.messages import Message
        from tests.net.test_golden_wire import message_instances

        instances = message_instances().values()
        assert {type(msg) for msg in instances} == set(self._subclasses(Message))
        for msg in instances:
            paths = msg.touched_paths()
            assert isinstance(paths, tuple), type(msg).__name__
            assert all(isinstance(p, str) and p for p in paths), type(msg).__name__

    def test_resync_request_field_does_not_shadow_it(self):
        # The dataclass field `paths` used to win over a method of the same
        # name: calling it was `TypeError: 'tuple' object is not callable`,
        # and so were `_forward` and the router's `_touched_shards`.
        from repro.net.messages import ResyncRequest
        from repro.server.shard import ShardRouter

        request = ResyncRequest(paths=("/a", "/b"))
        assert request.paths == ("/a", "/b")
        assert request.touched_paths() == ()  # it asks; it updates nothing
        assert ShardRouter(2)._touched_shards(request) == [0]

    def test_update_messages_name_what_they_touch(self):
        write = UploadWrite(path="/b", offset=0, data=b"d")
        rename = MetaOp(kind="rename", path="/a", dest="/b")
        assert write.touched_paths() == ("/b",)
        assert rename.touched_paths() == ("/a", "/b")
        assert TxnGroup(members=(rename, write)).touched_paths() == ("/a", "/b", "/b")
        assert Ack().touched_paths() == ()
