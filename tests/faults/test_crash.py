"""Tests for the crash model (a restart) and inconsistency injection."""

from repro.common.clock import VirtualClock
from repro.core.client import DeltaCFSClient
from repro.cost.meter import CostMeter
from repro.faults.crash import inject_crash_inconsistency, restart
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem


def test_injection_changes_data_without_events():
    fs = MemoryFileSystem()
    original = bytes(range(256)) * 100
    fs.write_file("/f", original)
    offset = inject_crash_inconsistency(fs, "/f", seed=1, span=512)
    data = fs.read_file("/f")
    assert data != original
    assert len(data) == len(original)  # metadata (size) unchanged
    # damage confined to the reported span
    assert data[:offset] == original[:offset]
    assert data[offset + 512 :] == original[offset + 512 :]


def test_injection_deterministic():
    fs1, fs2 = MemoryFileSystem(), MemoryFileSystem()
    content = bytes(range(256)) * 10
    fs1.write_file("/f", content)
    fs2.write_file("/f", content)
    assert inject_crash_inconsistency(fs1, "/f", seed=7) == inject_crash_inconsistency(
        fs2, "/f", seed=7
    )
    assert fs1.read_file("/f") == fs2.read_file("/f")


def test_injectors_replace_the_damaged_pages_only():
    # Both under-the-stack injectors are a write on the content value: the
    # file stays the one content type and shares every page they spared.
    fs = MemoryFileSystem()
    fs.write_file("/f", bytes(range(256)) * 512)  # 32 pages
    fs.write("/f", 5, b"x")  # a partial write pages the file
    intact = fs._inode_of("/f").data
    fs.corrupt("/f", 9000)
    flipped = fs._inode_of("/f").data
    inject_crash_inconsistency(fs, "/f", seed=3, span=100)
    torn = fs._inode_of("/f").data
    assert type(flipped) is type(torn) is type(intact)
    assert sum(a is not b for a, b in zip(intact.table, flipped.table)) == 1
    assert 1 <= sum(a is not b for a, b in zip(flipped.table, torn.table)) <= 2
    assert flipped.read(9000, 1)[0] == intact.read(9000, 1)[0] ^ 0x01
    assert fs.used_bytes == len(torn) == len(intact)


def test_restart_drops_volatile_state():
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), clock=VirtualClock()
    )
    client.create("/a")
    client.write("/a", 0, b"pending")
    client.rename("/a", "/b")
    client.stats.conflicts = 3
    reborn = restart(client)
    assert reborn is not client
    assert len(reborn.queue) == 0
    assert len(reborn.relations) == 0
    assert reborn.versions == {} and reborn._counter.current == 0
    assert reborn.stats.conflicts == 0
    # the disk, the link and the registration's place are what survived
    assert reborn.inner is client.inner and reborn.channel is client.channel
    assert reborn.inner.read_file("/b") == b"pending"
    assert reborn._link.server is client._link.server


def test_restart_starts_a_fresh_transport_and_keeps_the_dedup_window():
    from repro.faults.network import NetworkFaults
    from repro.sim import Simulation

    sim = Simulation(faults=NetworkFaults(partitions=((100, 101),)))
    client = sim.client
    client.create("/f")
    client.close("/f")
    sim.settle()
    old = client.transport
    window = sim.server._dedup[client.client_id]
    high_water = sim.server.last_msg_id(client.client_id)
    assert high_water == old._next_msg_id - 1 > 0
    reborn = sim.restart(client)
    assert sim.clients == [reborn]
    assert reborn.transport is not old
    assert reborn.transport.channel is old.channel  # fate stream and counters
    assert reborn.transport.policy == old.policy
    # the server kept what landed; the new ids continue past it
    assert sim.server._dedup[client.client_id] is window
    assert reborn.transport._next_msg_id == high_water + 1
    reborn.create("/g")
    reborn.close("/g")
    sim.settle()
    assert sim.server.store.exists("/g") and sim.server.dedup_drops == 0
    assert sim.server.last_msg_id(client.client_id) > high_water


def test_transport_ids_resume_after_the_home_shards_window():
    from repro.net.reliable import ReliableTransport
    from repro.net.messages import MetaOp
    from repro.net.transport import Channel
    from repro.server.shard import ShardRouter

    router = ShardRouter(4)
    clock = VirtualClock()
    first = ReliableTransport(Channel(), router, client_id=7)
    for name in ("/a", "/b", "/c"):
        first.send(MetaOp(kind="mkdir", path=name), clock.now())
    first.settle(clock)
    home = router.shards[router.home_shard_index(7)]
    assert router.last_msg_id(7) == home.last_msg_id(7) == 3
    assert ReliableTransport(Channel(), router, client_id=7)._next_msg_id == 4
    assert ReliableTransport(Channel(), router, client_id=8)._next_msg_id == 1


def test_post_crash_queue_keeps_observability():
    """Regression: the crash model used to rebuild the queue/relations/undo
    log bare, silently detaching them from the run's Observability — post-crash
    activity disappeared from every ``queue.*``/``relation.*`` series."""
    from repro.obs import Observability

    obs = Observability()
    clock = VirtualClock()
    obs.bind_clock(clock)
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(obs=obs), clock=clock, obs=obs,
        meter=CostMeter(),
    )
    client.create("/a")
    client.write("/a", 0, b"before")
    before = obs.metrics.counter_total("queue.nodes.created")
    assert before > 0
    reborn = restart(client)
    reborn.create("/b")
    reborn.write("/b", 0, b"after")
    assert obs.metrics.counter_total("queue.nodes.created") > before
    assert reborn.queue.obs is obs
    assert reborn.relations.obs is obs
    # the in-place copy-out still charges the client meter, which survived
    assert reborn.meter is client.meter
    copied = client.meter.bytes_by_category["write_io"]
    assert copied == 6 + 5
    reborn.write("/b", 0, b"AFT")  # three bytes written over three
    assert client.meter.bytes_by_category["write_io"] == copied + 3 + 3


def test_checksum_store_survives_crash():
    # the checksum store is the durable piece (LevelDB in the paper)
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), clock=VirtualClock()
    )
    client.create("/f")
    client.write("/f", 0, b"x" * 8192)
    assert restart(client).checksums.blocks_of("/f") == [0, 1]


def test_restart_reopens_a_wal_backed_kv(tmp_path):
    from repro.kvstore import LogStructuredKV

    kv = LogStructuredKV(str(tmp_path / "journal.wal"), sync=True)
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), clock=VirtualClock(), journal_kv=kv
    )
    client.create("/f")
    client.write("/f", 0, b"x" * 100)
    reborn = restart(client)
    reopened = reborn.journal.kv
    assert reopened is not kv and kv._fh.closed
    assert reopened._sync and len(reopened) == len(kv) > 0
    assert reborn.recover().nodes_replayed == 2
    reopened.close()
