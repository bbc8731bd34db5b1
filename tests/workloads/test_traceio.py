"""Tests for trace serialization."""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.vfs import ops as vfs_ops
from repro.vfs.ops import (
    CloseOp,
    CreateOp,
    LinkOp,
    MkdirOp,
    ReadOp,
    RenameOp,
    RmdirOp,
    TruncateOp,
    UnlinkOp,
    WriteOp,
)
from repro.workloads import gedit_trace, wechat_trace, word_trace
from repro.workloads.generators import append_write_trace, random_write_trace
from repro.workloads.traceio import (
    load_trace_file,
    save_trace_file,
    trace_from_bytes,
    trace_to_bytes,
)
from repro.workloads.traces import Trace, TraceStats


def _assert_traces_equal(a: Trace, b: Trace):
    assert a.name == b.name
    assert a.preload == b.preload
    assert a.stats == b.stats
    assert a.ops == b.ops


def _all_kinds_trace() -> Trace:
    trace = Trace(name="kinds", preload={"/seed": b"\x00seed\xff", "/a/b": b""})
    trace.ops = [
        MkdirOp("/d", timestamp=0.25),
        CreateOp("/d/a", timestamp=0.5),
        WriteOp("/d/a", 7, b"\x00\xffdata", timestamp=1.0),
        ReadOp("/d/a", 2, 4, timestamp=1.5),
        TruncateOp("/d/a", 3, timestamp=2.0),
        RenameOp("/d/a", "/d/b", timestamp=2.5),
        LinkOp("/d/b", "/d/c", timestamp=3.0),
        CloseOp("/d/c", timestamp=3.5),
        UnlinkOp("/d/c", timestamp=4.0),
        UnlinkOp("/d/b", timestamp=4.5),
        RmdirOp("/d", timestamp=5.0),
    ]
    trace.stats = TraceStats(op_count=11, bytes_written=6, update_bytes=6)
    return trace


GENERATORS = {
    "append": lambda: append_write_trace(scale=64, appends=5),
    "random": lambda: random_write_trace(scale=64, writes=5),
    "word": lambda: word_trace(scale=128, saves=2),
    "wechat": lambda: wechat_trace(scale=256, modifications=3),
    "gedit": lambda: gedit_trace(saves=2, file_size=5000),
}

with open(os.path.join(os.path.dirname(__file__), "trace_golden.json")) as _handle:
    GOLDEN = json.load(_handle)


class TestGoldenBytes:
    """``DCFSTRC1`` files are byte-stable: the digests were recorded from
    the hand-written codec this format's field tables replaced."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bytes_unchanged(self, name):
        trace = _all_kinds_trace() if name == "all_kinds" else GENERATORS[name]()
        raw = trace_to_bytes(trace)
        assert {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()} == GOLDEN[name]

    def test_golden_covers_every_kind_and_generator(self):
        assert set(GOLDEN) == set(GENERATORS) | {"all_kinds"}
        assert {type(op).__name__ for op in _all_kinds_trace().ops} == {
            member.name for member in vfs_ops.OP_RECORD.members
        }


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generators_round_trip(self, name):
        trace = GENERATORS[name]()
        _assert_traces_equal(trace, trace_from_bytes(trace_to_bytes(trace)))

    def test_all_op_kinds(self):
        trace = Trace(name="kinds")
        trace.ops = [
            CreateOp("/a", timestamp=0.5),
            WriteOp("/a", 7, b"\x00\xffdata", timestamp=1.0),
            ReadOp("/a", 2, 4, timestamp=1.5),
            TruncateOp("/a", 3, timestamp=2.0),
            RenameOp("/a", "/b", timestamp=2.5),
            LinkOp("/b", "/c", timestamp=3.0),
            CloseOp("/c", timestamp=3.5),
            UnlinkOp("/c", timestamp=4.0),
        ]
        trace.stats = TraceStats(op_count=8, bytes_written=6, update_bytes=6)
        _assert_traces_equal(trace, trace_from_bytes(trace_to_bytes(trace)))

    def test_file_round_trip(self, tmp_path):
        trace = gedit_trace(saves=2, file_size=2000)
        path = str(tmp_path / "trace.bin")
        save_trace_file(trace, path)
        _assert_traces_equal(trace, load_trace_file(path))

    def test_empty_trace(self):
        trace = Trace(name="empty")
        _assert_traces_equal(trace, trace_from_bytes(trace_to_bytes(trace)))

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("w"), st.binary(max_size=100)).map(
                    lambda t: WriteOp("/f", 0, t[1], timestamp=1.0)
                ),
                st.just(CreateOp("/f", timestamp=0.0)),
                st.just(RenameOp("/f", "/g", timestamp=2.0)),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=30)
    def test_property_round_trip(self, ops):
        trace = Trace(name="prop")
        trace.ops = ops
        _assert_traces_equal(trace, trace_from_bytes(trace_to_bytes(trace)))


def _traces():
    """Small traces over all ten op kinds, read off the ops' field tables."""
    from tests.common.test_wire import values_of

    counts = st.integers(0, 2**40)
    return st.builds(
        Trace,
        name=st.text(max_size=8),
        ops=st.lists(values_of(vfs_ops.OP_RECORD), max_size=6),
        preload=st.dictionaries(st.text(max_size=6), st.binary(max_size=16), max_size=3),
        stats=st.builds(TraceStats, counts, counts, counts),
    )


def _with_meta(raw: bytes, meta) -> bytes:
    """``raw`` with ``meta`` as its (re-framed) JSON metadata block."""
    end = 12 + int.from_bytes(raw[8:12], "little")
    block = json.dumps(meta).encode()
    return raw[:8] + len(block).to_bytes(4, "little") + block + raw[end:]


def _edit_meta(raw: bytes, edit) -> bytes:
    """``raw`` after ``edit(meta)`` changed its metadata in place."""
    meta = json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])
    edit(meta)
    return _with_meta(raw, meta)


class TestStrictDecoder:
    """Anything but exactly what ``trace_to_bytes`` writes is ``ValueError``."""

    @given(trace=_traces())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_every_prefix_and_extension(self, trace):
        raw = trace_to_bytes(trace)
        assert trace_from_bytes(raw) == trace
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                trace_from_bytes(raw[:cut])
        with pytest.raises(ValueError, match="trailing"):
            trace_from_bytes(raw + b"\x00")

    @given(trace=_traces(), lie=st.sampled_from([-1, +1, "negative"]))
    @settings(max_examples=30, deadline=None)
    def test_lying_op_count(self, trace, lie):
        def edit(meta):
            meta["op_records"] = -1 if lie == "negative" else meta["op_records"] + lie

        with pytest.raises(ValueError):
            trace_from_bytes(_edit_meta(trace_to_bytes(trace), edit))

    def test_length_prefix_overrunning_the_buffer(self):
        data = b"payload"
        for trace in (
            Trace(name="w", ops=[WriteOp("/f", 0, data)]),
            Trace(name="p", preload={"/f": data}),
        ):
            raw = trace_to_bytes(trace)
            at = len(raw) - len(data) - 4
            assert raw[at : at + 4] == len(data).to_bytes(4, "little")
            for lie in (len(data) + 1, 2**32 - 1):
                with pytest.raises(ValueError, match="truncated"):
                    trace_from_bytes(raw[:at] + lie.to_bytes(4, "little") + raw[at + 4 :])

    @pytest.mark.parametrize("other", [[], ["name"], "meta", 7, None])
    def test_metadata_that_is_not_an_object(self, other):
        with pytest.raises(ValueError, match="malformed trace metadata"):
            trace_from_bytes(_with_meta(trace_to_bytes(_all_kinds_trace()), other))

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("stats"),
        lambda meta: meta.pop("name"),
        lambda meta: meta.update(extra=1),
        lambda meta: meta.update(name=5),
        lambda meta: meta.update(op_records="1"),
        lambda meta: meta.update(op_records=True),
        lambda meta: meta.update(op_records=1.0),
        lambda meta: meta.update(stats=[1, 2, 3]),
        lambda meta: meta["stats"].update(reads=0),
        lambda meta: meta["stats"].pop("op_count"),
        lambda meta: meta["stats"].update(op_count="1"),
        lambda meta: meta.update(preload_paths="/seed"),
        lambda meta: meta.update(preload_paths=[1, 2]),
        lambda meta: meta.update(preload_paths=["/seed", "/a/b"]),   # unsorted
        lambda meta: meta.update(preload_paths=["/a/b", "/a/b"]),    # duplicate
    ])
    def test_malformed_metadata(self, edit):
        with pytest.raises(ValueError, match="malformed trace"):
            trace_from_bytes(_edit_meta(trace_to_bytes(_all_kinds_trace()), edit))

    def test_metadata_that_is_not_json(self):
        raw = trace_to_bytes(Trace(name="x"))
        with pytest.raises(ValueError):
            trace_from_bytes(raw[:12] + b"\xff" + raw[13:])

    def test_unknown_kind_tag(self):
        raw = trace_to_bytes(Trace(name="x", ops=[CreateOp("/f")]))
        at = len(raw) - len(CreateOp("/f").encode())
        with pytest.raises(ValueError, match="unknown trace op tag 0x0b"):
            trace_from_bytes(raw[:at] + b"\x0b" + raw[at + 1 :])

    def test_unserializable_op_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot encode"):
            trace_to_bytes(Trace(name="x", ops=[object()]))


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            trace_from_bytes(b"NOTATRACE" + b"\x00" * 20)

    def test_truncated_ops(self):
        raw = trace_to_bytes(gedit_trace(saves=1, file_size=1000))
        with pytest.raises(ValueError):
            trace_from_bytes(raw[: len(raw) - 10])

    def test_replay_after_round_trip(self):
        from repro.vfs.filesystem import MemoryFileSystem
        from repro.workloads.traces import apply_op

        trace = wechat_trace(scale=256, modifications=2)
        restored = trace_from_bytes(trace_to_bytes(trace))
        fs1, fs2 = MemoryFileSystem(), MemoryFileSystem()
        for fs, t in ((fs1, trace), (fs2, restored)):
            for path, content in t.preload.items():
                fs.write_file(path, content)
            for op in t.ops:
                apply_op(fs, op)
        assert {p: fs1.read_file(p) for p in fs1.walk_files()} == {
            p: fs2.read_file(p) for p in fs2.walk_files()
        }
