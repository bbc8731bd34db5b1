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

Beside it, exact work gates on the fleet path's per-op tax: an op on
names the store already binds normalises nothing (``posixpath.normpath``
runs only for a name no store holds yet), ``MemoryFileSystem.size`` builds
no ``Stat``, the server's apply log keeps no ``ApplyResult`` alive, and an
in-place write reads nothing back from the store (the old version its
write node holds is the store's immutable value, not a copy-out). And on
the fan-out path: a message is wrapped in one ``Forward`` for all its
recipients, its write makes one content value that the server and every
recipient then hold, an idle peer's pump sweeps neither its queue nor its
relation table, and a meter charge is the profile's own float expression.
And in the checksum store: a write, a verified read and an unlink of a
file of one block group each touch that group's one KV record. And on the
upload path: a queued write ships the bytes the application wrote, the
object itself, with no copy on the way to the cloud.
"""

import gc
import posixpath
import sys
import tracemalloc
import weakref

import pytest

from repro.common.clock import VirtualClock
from repro.common.pages import Pages
from repro.common.config import DeltaCFSConfig
from repro.common.version import VersionStamp
from repro.core.client import DeltaCFSClient
from repro.core.relation_table import RelationTable
from repro.core.sync_queue import SyncQueue
from repro.cost.meter import CostMeter
from repro.cost.profile import MOBILE_PROFILE, PC_PROFILE
from repro.kvstore.kv import MemoryKV
from repro.net.messages import Forward, MetaOp, UploadWrite
from repro.net.transport import Channel
from repro.server import cloud
from repro.server.cloud import CloudServer
from repro.sim import Simulation
from repro.vfs import filesystem
from repro.vfs.filesystem import MemoryFileSystem

SMALL, SCALE, LIMIT = 8, 16, 1.25


def build(files):
    """A client holding ``files`` synced files and ``files`` more whose
    create and write are still queued: 2x files, 2x queued nodes, 2x
    checksum records and 2x journal records, all proportional to ``files``."""
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


def _counted_kv_calls(kv):
    """Calls per method on ``kv`` from here on."""
    calls = {"get": 0, "put": 0, "delete": 0}
    for name in calls:
        method = getattr(kv, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        setattr(kv, name, counted)
    return calls


@pytest.mark.parametrize(
    "op, expected",
    [
        (lambda c: c.write("/s0001", 100, b"x" * 512), {"get": 1, "put": 1, "delete": 0}),
        (lambda c: c.write("/s0001", 4000, b"x" * 512), {"get": 1, "put": 1, "delete": 0}),
        (lambda c: c.read("/s0001", 0, 8192), {"get": 1, "put": 0, "delete": 0}),
        (lambda c: c.unlink("/s0002"), {"get": 0, "put": 0, "delete": 1}),
    ],
    ids=["write", "write-two-blocks", "read-two-blocks", "unlink"],
)
def test_a_checksum_op_touches_one_record_per_group(op, expected):
    # Section III-E: a file's block checksums are kept a group of 64 blocks
    # to a KV record, so an op inside one group reads and writes that
    # record once, however many of its blocks the op covers.
    client = build(SMALL)
    calls = _counted_kv_calls(client.checksums.kv)
    op(client)
    assert calls == expected


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
    server = build(SMALL)._link.server
    result = server.handle(MetaOp(kind="create", path="/new", new_version=VersionStamp(9, 1)))
    assert result.ok and server.apply_log[-1].ok
    alive = weakref.ref(result)
    del result
    gc.collect()
    assert alive() is None
    assert len(server.apply_log) > 2
    assert len({id(outcome) for outcome in server.apply_log}) <= 2


def test_an_in_place_write_reads_nothing_back(monkeypatch):
    # With checksums off nothing else reads: the write that opens the node
    # takes the file's value as its base, the next one joins the node.
    # The model still charges the paper's copy-out of the overwritten bytes.
    meter = CostMeter()
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), channel=Channel(),
        clock=VirtualClock(), config=DeltaCFSConfig(enable_checksums=False),
        meter=meter,
    )
    client.create("/f")
    client.write("/f", 0, bytes(8192))
    client.close("/f")
    client.flush()
    reads = []
    read = MemoryFileSystem.read
    monkeypatch.setattr(
        MemoryFileSystem, "read", lambda fs, *a: reads.append(a) or read(fs, *a)
    )
    before = meter.bytes_by_category["write_io"]
    client.write("/f", 8000, b"x" * 512)  # 192 bytes overwritten, 320 appended
    client.write("/f", 100, b"y" * 50)
    assert reads == []
    assert meter.bytes_by_category["write_io"] == before + (512 + 192) + (50 + 50)
    assert client.queue.active_write_node("/f").base == bytes(8192)


@pytest.mark.parametrize("clients", [3, 9])
def test_a_fanned_out_message_builds_one_forward(clients, monkeypatch):
    # Section III-D: the cloud forwards the same incremental data to every
    # other shared client; what a recipient adds is its own download + apply.
    sim = Simulation(clients=clients)
    built = []
    monkeypatch.setattr(
        cloud, "Forward", lambda **kw: built.append(kw) or Forward(**kw)
    )
    create = MetaOp(kind="create", path="/new", new_version=VersionStamp(1, 1))
    assert sim.server.handle(create, origin_client=1).ok
    assert built == [{"origin_client": 1, "inner": create}]
    assert [c.stats.forwards_applied for c in sim.clients] == [0] + [1] * (clients - 1)
    assert all(c.inner.exists("/new") for c in sim.clients[1:])


@pytest.mark.parametrize("recipients", [3, 9])
def test_a_forwarded_write_is_computed_once_for_every_recipient(
    recipients, monkeypatch
):
    # Replicas that hold one value apply the one forwarded run to it and
    # get back the successor the writer already made: the writer's own
    # write is the only content value built, however many receive it.
    sim = Simulation(clients=recipients + 1)
    writer = sim.clients[0]
    writer.create("/f")
    writer.write("/f", 0, bytes([recipients]) * 256 * 1024)
    writer.close("/f")
    sim.settle()
    applied = [c.stats.forwards_applied for c in sim.clients]
    made = []
    init = Pages.__init__

    def counted(value, *args, **kwargs):
        made.append(value)
        init(value, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Pages, "__init__", counted)
        writer.write("/f", 5 * 4096 + 100, b"w" * 4096)
        writer.close("/f")
        sim.settle()
    stored = sim.server.store.get("/f").pages
    assert len(made) == 1 and made[0] is stored
    assert sim.mismatched() == []
    assert [c.stats.forwards_applied for c in sim.clients] == [
        n + (i > 0) for i, n in enumerate(applied)
    ]
    assert all(c.inner.content("/f") is stored for c in sim.clients)


@pytest.mark.parametrize("recipients", [2, 8])
def test_a_forward_is_sized_once_per_fan_out(recipients, monkeypatch):
    # Every recipient downloads the one Forward; its size is worked out
    # once, not once per download.
    sim = Simulation(clients=recipients + 1)
    sized = []
    own_size = MetaOp.wire_size
    monkeypatch.setattr(
        MetaOp, "wire_size", lambda message: sized.append(message) or own_size(message)
    )
    create = MetaOp(kind="create", path="/new", new_version=VersionStamp(1, 1))
    down = [c.channel.stats.down_bytes for c in sim.clients]
    assert sim.server.handle(create, origin_client=1).ok
    assert sized == [create]
    forward = Forward(origin_client=1, inner=create).wire_size()
    assert [c.channel.stats.down_bytes - d for c, d in zip(sim.clients, down)] == [
        0
    ] + [forward] * recipients


@pytest.mark.parametrize("recipients", [2, 8])
def test_a_fan_outs_repeat_writes_compare_no_bytes(recipients, monkeypatch):
    # The server's apply and every recipient's pass the very object the
    # writer wrote: each is known for the writer's result by identity.
    sim = Simulation(clients=recipients + 1)
    writer = sim.clients[0]
    writer.create("/f")
    writer.write("/f", 0, bytes([recipients]) * 256 * 1024)
    writer.close("/f")
    sim.settle()
    compared = []
    holds = Pages._holds
    with monkeypatch.context() as patch:
        patch.setattr(
            Pages, "_holds", lambda *args: compared.append(args) or holds(*args)
        )
        writer.write("/f", 5 * 4096 + 100, b"w" * 4096)
        writer.close("/f")
        sim.settle()
    assert compared == []
    stored = sim.server.store.get("/f").pages
    assert all(c.inner.content("/f") is stored for c in sim.clients)
    assert sim.mismatched() == []


def _sweeps(monkeypatch):
    """The names of the queue sweeps and relation scans a pump makes."""
    calls = []
    for cls, name in ((SyncQueue, "drain_due"), (RelationTable, "expire")):
        original = getattr(cls, name)

        def counted(self, now, original=original, name=name):
            calls.append(name)
            return original(self, now)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _lone_client():
    clock = VirtualClock()
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), channel=Channel(), clock=clock,
    )
    return client, clock


def test_an_idle_pump_sweeps_nothing(monkeypatch):
    client, clock = _lone_client()
    calls = _sweeps(monkeypatch)
    clock.advance(60.0)
    assert client.pump() == 0 and client.pump(clock.now()) == 0
    assert calls == []


def test_a_pump_with_a_due_node_still_sweeps(monkeypatch):
    client, clock = _lone_client()
    client.create("/f")
    calls = _sweeps(monkeypatch)
    clock.advance(60.0)
    assert client.pump() == 1
    assert calls == ["expire", "drain_due"]
    assert len(client.queue) == 0 and client._link.server.store.exists("/f")


def test_a_pump_with_a_live_relation_still_sweeps(monkeypatch):
    client, clock = _lone_client()
    client.create("/f")
    client.rename("/f", "/g")
    client.flush()
    assert len(client.queue) == 0 and len(client.relations) == 1
    calls = _sweeps(monkeypatch)
    assert client.pump() == 0
    assert calls == ["expire", "drain_due"]
    clock.advance(60.0)
    client.pump()  # the entry expires here; the next pump is idle again
    assert len(client.relations) == 0
    calls.clear()
    client.pump()
    assert calls == []


def test_an_upload_ships_the_written_object_itself():
    # A run that is one write is that write's bytes: no zero-filled scratch
    # run and no copy of it (2 MiB for this write before), and the cloud
    # applies the payload to an empty file by keeping it.
    client, clock = _lone_client()
    client.create("/f")
    data = b"u" * (1 << 20)
    client.write("/f", 0, data)
    clock.advance(60.0)
    tracemalloc.start()
    try:
        assert client.pump() == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(client.queue) == 0
    assert peak < 64 * 1024
    assert bytes(client._link.server.store.get("/f").pages) is data


@pytest.mark.parametrize(
    "profile",
    [PC_PROFILE, MOBILE_PROFILE, PC_PROFILE.scaled(0.37, name="odd")],
    ids=lambda profile: profile.name,
)
def test_a_charge_is_the_profiles_own_float(profile):
    # The meter reads its rates from a table built once; its floats must
    # stay the profile's, or model_ticks and every golden move.
    meter = CostMeter(profile)
    for category in profile.rates():
        for nbytes in (0, 1, 3, 511, 4096, 65_537, 1 << 20, 123_456_789):
            expected = profile.per_byte(category, nbytes)
            assert meter.charge_bytes(category, nbytes) == expected
            repeated = CostMeter(profile)
            repeated.charge_repeat(category, nbytes, 1)
            assert repeated.by_category[category] == expected
