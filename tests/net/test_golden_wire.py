"""Pinned bytes: every wire record reproduces its committed layout.

``golden_wire.json`` was captured from the hand-written codecs that
preceded the field tables in :mod:`repro.common.wire`. It holds, for one
representative instance of every concrete message class, its
``wire_size()``; and for every record that has a real byte encoding —
``Copy``/``Literal``/``Delta``, the four journal node kinds, the journal's
relation/undo/vercnt records (keys included) and a WAL record — the hex
of its encoding. A change to any field table must reproduce every entry.

Regenerate after an *intentional* wire-format change with::

    PYTHONPATH=src python tests/net/test_golden_wire.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.common.version import VersionStamp
from repro.core.recovery import SyncJournal, encode_node
from repro.core.relation_table import RelationEntry
from repro.core.sync_queue import DeltaNode, MetaNode, TruncateNode, WriteNode
from repro.delta.format import Copy, Delta, Literal
from repro.delta.rsync import compute_signature
from repro.kvstore import wal
from repro.kvstore.kv import MemoryKV
from repro.net import messages as m

GOLDEN_PATH = Path(__file__).with_name("golden_wire.json")

V1 = VersionStamp(3, 7)
V2 = VersionStamp(3, 8)
V3 = VersionStamp(2**31, 2**32 - 1)
DELTA = Delta.from_ops(
    [Copy(0, 4096), Literal(b"new \x00 data"), Copy(1 << 21, 300), Literal(b"z" * 130)]
)
WRITE = m.UploadWrite(path="/d/f", offset=1 << 33, data=b"x" * 37, base_version=V1, new_version=V2)


def message_instances():
    """One representative instance per concrete message class."""
    instances = [
        m.UploadFull(path="/d/full", data=b"f" * 100, base_version=None, new_version=V1),
        WRITE,
        m.UploadWriteBatch(
            path="/d/b", runs=((0, b"a" * 10), (500, b""), (900, b"c" * 3)),
            base_version=V1, new_version=V2,
        ),
        m.UploadTruncate(path="/d/j", length=0, base_version=V1, new_version=V2),
        m.UploadDelta(path="/d/é", delta=DELTA, base_version=V1, new_version=V2, content_base=V3),
        m.MetaOp(kind="rename", path="/a", dest="/b/c", new_version=V1),
        m.MetaOp(kind="unlink", path="/a"),
        m.MetaOp(kind="create", path="/a", dest=""),
        m.TxnGroup(members=(m.MetaOp(kind="rename", path="/a", dest="/b"), WRITE)),
        m.TxnGroup(),
        m.SignatureMessage(path="/s", block_count=17),
        m.ChunkHave(path="/c", fingerprints=(bytes(32), b"\x01" * 32, b"\x02" * 32)),
        m.ChunkData(path="/c", chunks=(b"a" * 1000, b"", b"b" * 7)),
        m.Ack(),
        m.Ack(path="/f", version=V1),
        m.ConflictNotice(path="/f", conflict_path="/f (conflicted copy c1-2)", winning_version=V1),
        m.HistoryRequest(path="/h"),
        m.HistoryResponse(path="/h", versions=(V1, V2, V3)),
        m.RestoreRequest(path="/h", version=V2),
        m.FileDownload(path="/dl", data=b"z" * 2048, version=None),
        m.ResyncRequest(paths=("/a", "/b/c", "/ü")),
        m.ResyncReply(versions=(("/a", V1), ("/b/c", None))),
        m.RangeRequest(path="/r", offset=4096, length=8192),
        m.RangeReply(path="/r", offset=4096, data=b"r" * 512, version=V1),
        m.Envelope(msg_id=9, attempt=2, inner=WRITE),
        m.EnvelopeAck(
            ack_of=9, duplicate=True,
            replies=(m.Ack(path="/f", version=V1), m.ConflictNotice(path="/f", conflict_path="/g")),
        ),
        m.EnvelopeAck(ack_of=1),
        m.Forward(origin_client=4, inner=WRITE),
    ]
    return {f"{type(msg).__name__}#{i}": msg for i, msg in enumerate(instances)}


def journal_nodes():
    head = dict(path="/dir/ñ.txt", base_version=V1, new_version=V3)
    return {
        "WriteNode": WriteNode(writes=[(0, b"hello world"), (1 << 40, b""), (7, b"\xff" * 5)], packed=True, **head),
        "WriteNode.unpacked": WriteNode(path="/a", writes=[(3, b"x")]),
        "TruncateNode": TruncateNode(length=(1 << 63) + 5, **head),
        "DeltaNode": DeltaNode(delta=DELTA, content_base=V2, **head),
        "DeltaNode.empty": DeltaNode(path="/e"),
        "MetaNode": MetaNode(kind="rename", dest="/dir/b", **head),
        "MetaNode.no_dest": MetaNode(path="/gone", kind="unlink"),
    }


def journal_kv_image():
    """Every journal record kind as the (key, value) pairs the KV holds."""
    kv = MemoryKV()
    journal = SyncJournal(kv)
    journal.record_vercnt(41)
    node = journal_nodes()["WriteNode"]
    node.seq = 258
    journal.record_node(node)
    journal.record_relation(RelationEntry(src="/doc", dst="/.tmp/t1", created_at=12.5, origin="rename"))
    journal.record_undo("/db", 8192, 100, 4, b"old!")
    journal.record_undo("/db", 8192, 4096, 0, b"")
    return {key.hex(): value.hex() for key, value in kv.items()}


def snapshot():
    sig = compute_signature(bytes(range(256)) * 2, 64, with_strong=True)
    weak = compute_signature(bytes(range(256)) * 2, 64, with_strong=False)
    return {
        "message_wire_size": {name: msg.wire_size() for name, msg in message_instances().items()},
        "sized": {
            "VersionStamp": V1.wire_size(),
            "Signature.strong": sig.wire_size(),
            "Signature.weak": weak.wire_size(),
            "Delta": DELTA.wire_size(),
            "Delta.empty": Delta().wire_size(),
        },
        "encoded": {
            "Copy": Copy(1 << 21, 300).encode().hex(),
            "Copy.zero": Copy(0, 0).encode().hex(),
            "Literal": Literal(b"z" * 130).encode().hex(),
            "Literal.empty": Literal(b"").encode().hex(),
            "Delta": DELTA.encode().hex(),
            "Delta.empty": Delta().encode().hex(),
            "wal.put": wal.encode_record(wal.PUT, b"key\x00", b"value").hex(),
            "wal.delete": wal.encode_record(wal.DELETE, b"k").hex(),
            **{f"journal.{name}": encode_node(node).hex() for name, node in journal_nodes().items()},
        },
        "journal_kv": journal_kv_image(),
    }


def test_every_concrete_message_class_is_pinned():
    pinned = {name.split("#")[0] for name in message_instances()}
    declared = {cls.__name__ for cls in m.Message.__subclasses__()}
    assert pinned == declared and len(declared) == 23


@pytest.mark.parametrize("section", ["message_wire_size", "sized", "encoded", "journal_kv"])
def test_matches_golden(section):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert snapshot()[section] == golden[section]


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
