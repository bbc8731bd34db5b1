"""A client op pays for what it touches, not for what the client holds.

A machine-independent gate: the same op is run on a small client and on
one that holds 16x the files, 16x the queued nodes and 16x the KV keys,
and the Python work it executes — ``sys.settrace`` line events, which see
every iteration of a comprehension or generator scan, never wall time —
may grow by at most 1.25x. A lookup costs the same at any size; a scan of
the tree, the queue or a KV store grows 16-fold and fails the gate.

On the commit before the three indexes existed (3c99a5b: ``MemoryKV.items``
tested every key, ``MemoryFileSystem.linked_paths`` walked every directory
entry, ``unlink`` and ``_apply_remote`` walked the queue) the line counts
at 8 and at 128 files per group were

    write+close      419 ->  899   2.1x  (linked_paths; journal KV scan)
    unlink, synced   403 -> 2563   6.4x  (queue scans; both KV stores)
    unlink, queued   478 -> 3118   6.5x  (the same, plus the cancel's)
    create           113 ->  113   1.0x  (the control: it never scanned)
    forward          285 -> 1245   4.4x  (pending_nodes; linked_paths; KV)

and with any one of the three scans put back alone the gate still fails
(KV: four cases, 1.6-3.3x; directory entries: write+close and forward,
1.6x and 1.9x; queue: both unlinks and forward, 2.0-5.2x). With the
indexes every case is 1.00x: the counts do not move at all.

Beside it, three exact work gates on the fleet path's per-op tax: an op on
names the store already binds normalises nothing (``posixpath.normpath``
runs only for a name no store holds yet), ``MemoryFileSystem.size`` builds
no ``Stat``, and the server's apply log keeps no ``ApplyResult`` alive.
"""

import gc
import posixpath
import sys
import weakref

import pytest

from repro.common.clock import VirtualClock
from repro.common.version import VersionStamp
from repro.core.client import DeltaCFSClient
from repro.kvstore.kv import MemoryKV
from repro.net.messages import Forward, MetaOp, UploadWrite
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.vfs import filesystem
from repro.vfs.filesystem import MemoryFileSystem

SMALL, SCALE, LIMIT = 8, 16, 1.25


def build(files):
    """A client holding ``files`` synced files and ``files`` more whose
    create and write are still queued: 2x files, 2x queued nodes, 4x
    checksum keys and 2x journal records, all proportional to ``files``."""
    clock = VirtualClock()
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), channel=Channel(), clock=clock,
        checksum_kv=MemoryKV(), journal_kv=MemoryKV(),
    )
    assert client.checksums is not None
    for name in ("/s", "/q"):
        for i in range(files):
            path = f"{name}{i:04d}"
            client.create(path)
            client.write(path, 0, bytes(8192))
            client.close(path)
        if name == "/s":
            clock.advance(60.0)
            client.flush()
            assert len(client.queue) == 0
    assert len(client.queue) == 2 * files
    return client


def write_close(client):
    client.write("/s0001", 100, b"x" * 512)
    client.close("/s0001")


def unlink_synced(client):
    client.unlink("/s0002")


def unlink_queued(client):
    client.unlink("/q0002")  # its create never shipped: the nodes are cancelled


def create(client):
    client.create("/new")


def forward(client):
    update = UploadWrite(
        path="/s0003", offset=0, data=b"y" * 512,
        base_version=client.versions["/s0003"], new_version=VersionStamp(2, 1),
    )
    client._receive_forward(2, Forward(origin_client=2, inner=update))


def lines_executed(fn, *args):
    """Line events of every Python frame under ``fn(*args)``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize(
    "op", [write_close, unlink_synced, unlink_queued, create, forward]
)
def test_op_work_does_not_grow_with_client_state(op):
    small = lines_executed(op, build(SMALL))
    large = lines_executed(op, build(SMALL * SCALE))
    assert small > 0
    assert large <= LIMIT * small, (
        f"{op.__name__}: {small} lines at {SMALL} files, {large} at "
        f"{SMALL * SCALE} ({large / small:.1f}x for {SCALE}x the state)"
    )


def test_the_ops_did_what_they_claim():
    """The measured ops take the paths the gate is about."""
    client = build(SMALL)
    before = len(client.queue)
    unlink_queued(client)
    assert len(client.queue) == before - 2  # create + write cancelled
    unlink_synced(client)
    assert client.queue.nodes()[-1].kind == "unlink"
    forward(client)
    assert client.inner.read("/s0003", 0, 512) == b"y" * 512
    assert client.stats.conflicts == 0


@pytest.mark.parametrize("op", [write_close, forward, unlink_synced])
def test_an_op_on_bound_names_normalises_nothing(op, monkeypatch):
    client = build(SMALL)
    calls = []
    normpath = posixpath.normpath
    monkeypatch.setattr(
        posixpath, "normpath", lambda path: calls.append(path) or normpath(path)
    )
    op(client)
    assert calls == []


@pytest.mark.parametrize(
    "op, calls",
    [
        (lambda c: c.write("/s0001", 100, b"x" * 512), 1),
        (lambda c: c.truncate("/s0001", 100), 1),
        (lambda c: c.close("/s0001"), 0),
    ],
    ids=["write", "truncate", "close"],
)
def test_a_one_name_file_asks_for_its_names_once_per_byte_change(op, calls):
    # The name set is what finds a hard-linked file's write node and every
    # name its stamp and checksums go to: one store call where a change of
    # bytes needs it, none where an op only changes names.
    client = build(SMALL)
    names = []
    linked_paths = client.inner.linked_paths
    client.inner.linked_paths = lambda path: names.append(path) or linked_paths(path)
    op(client)
    assert names == ["/s0001"] * calls


def test_size_reads_the_inode_and_builds_no_stat(monkeypatch):
    fs = MemoryFileSystem()
    fs.create("/f")
    fs.write("/f", 0, b"abc")
    built = []
    stat = filesystem.Stat
    monkeypatch.setattr(filesystem, "Stat", lambda **kw: built.append(kw) or stat(**kw))
    assert fs.size("/f") == 3
    assert built == []


def test_the_apply_log_keeps_no_result():
    server = build(SMALL).server
    result = server.handle(MetaOp(kind="create", path="/new", new_version=VersionStamp(9, 1)))
    assert result.ok and server.apply_log[-1].ok
    alive = weakref.ref(result)
    del result
    gc.collect()
    assert alive() is None
    assert len(server.apply_log) > 2
    assert len({id(outcome) for outcome in server.apply_log}) <= 2
