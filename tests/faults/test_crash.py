"""Tests for crash simulation and inconsistency injection."""

from repro.common.clock import VirtualClock
from repro.core.client import DeltaCFSClient
from repro.faults.crash import inject_crash_inconsistency, simulate_crash
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


def test_simulate_crash_drops_volatile_state():
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), clock=VirtualClock()
    )
    client.create("/a")
    client.write("/a", 0, b"pending")
    client.rename("/a", "/b")
    dirty = simulate_crash(client)
    assert "/a" in dirty or "/b" in dirty
    assert len(client.queue) == 0
    assert len(client.relations) == 0


def test_post_crash_queue_keeps_observability():
    """Regression: simulate_crash used to rebuild the queue/relations/undo
    bare, silently detaching them from the run's Observability — post-crash
    activity disappeared from every ``queue.*``/``relation.*`` series."""
    from repro.obs import Observability

    obs = Observability()
    clock = VirtualClock()
    obs.bind_clock(clock)
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(obs=obs), clock=clock, obs=obs
    )
    client.create("/a")
    client.write("/a", 0, b"before")
    before = obs.metrics.counter_total("queue.nodes.created")
    assert before > 0
    simulate_crash(client)
    client.create("/b")
    client.write("/b", 0, b"after")
    assert obs.metrics.counter_total("queue.nodes.created") > before
    assert client.queue.obs is obs
    assert client.relations.obs is obs
    # the rebuilt undo log still charges the client meter
    assert client.undo.meter is client.meter


def test_checksum_store_survives_crash():
    # the checksum store is the durable piece (LevelDB in the paper)
    client = DeltaCFSClient(
        MemoryFileSystem(), server=CloudServer(), clock=VirtualClock()
    )
    client.create("/f")
    client.write("/f", 0, b"x" * 8192)
    simulate_crash(client)
    assert client.checksums.blocks_of("/f") == [0, 1]
