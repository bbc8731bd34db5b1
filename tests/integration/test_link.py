"""The client reaches the cloud only through its link, and every byte it
learns from the cloud crossed the channel and was charged.

A client holds one link (``DirectLink`` or ``ReliableTransport``) with
``send`` and ``call``; the server it was built with is behind that link.
The tests below hand the stack a guarded server that answers only the link
protocol's entry points, drive every client path that talks to the cloud
over it, and price a forwarded delta message by message.
"""

import pytest

from repro.common.clock import VirtualClock
from repro.common.rng import DeterministicRandom
from repro.common.version import VersionStamp
from repro.cost.meter import CostMeter
from repro.delta.bitwise import bitwise_delta
from repro.faults.crash import inject_crash_inconsistency
from repro.faults.network import NetworkFaults
from repro.kvstore.kv import MemoryKV
from repro.net.link import TO_THE_END
from repro.net.messages import (
    Forward,
    RangeReply,
    RangeRequest,
    ResyncReply,
    ResyncRequest,
    UploadDelta,
)
from repro.server.cloud import CloudServer
from repro.server.shard import ShardRouter
from repro.sim import Simulation, attach_client

#: The server attributes a link uses; a client that reads anything else
#: learned something no message carried.
LINK_PROTOCOL = frozenset(
    {
        "handle",
        "handle_envelope",
        "answer",
        "register_client",
        "last_msg_id",
        "dedup_window_of",
    }
)
LOSSY = NetworkFaults(drop_prob=0.1, dup_prob=0.05, reorder_prob=0.05)
SERVERS = {
    "bare": lambda: CloudServer(meter=CostMeter()),
    "router4": lambda: ShardRouter(4, meter=CostMeter()),
}


class Guarded:
    """A server seen only through the link protocol."""

    def __init__(self, server):
        self._server = server

    def __getattr__(self, name):
        if name not in LINK_PROTOCOL:
            raise AssertionError(f"the client reached server.{name}")
        return getattr(self._server, name)


def _system(kind, lossy, **first):
    """Two devices over a guarded ``kind`` server; the first gets the
    ``first`` keywords (a journal, a checksum KV)."""
    clock, server = VirtualClock(), SERVERS[kind]()
    guarded = Guarded(server)
    devices = [
        attach_client(
            guarded,
            clock=clock,
            client_id=index + 1,
            meter=CostMeter(),
            faults=LOSSY if lossy else NetworkFaults(),
            fault_seed=3 + index,
            **(first if index == 0 else {}),
        )
        for index in range(2)
    ]
    return Simulation(clients=devices, server=server, clock=clock)


def _write(client, path, content):
    client.create(path)
    client.write(path, 0, content)
    client.close(path)


def _save(client, path, content):
    """The Word save: a temp file swapped in over ``path``."""
    tmp = path + ".tmp"
    client.create(tmp)
    client.write(tmp, 0, content)
    client.close(tmp)
    client.rename(path, path + ".bak")
    client.rename(tmp, path)
    client.unlink(path + ".bak")


@pytest.mark.parametrize("lossy", [False, True], ids=["direct", "lossy"])
@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_the_client_reaches_the_cloud_only_through_its_link(kind, lossy):
    sim = _system(kind, lossy, journal_kv=MemoryKV(), checksum_kv=MemoryKV())
    a, b = sim.clients
    rng = DeterministicRandom(21).fork("one-link")
    doc = rng.random_bytes(48 * 1024)
    _write(a, "/doc", doc)
    _write(a, "/f", rng.random_bytes(64 * 1024))
    _write(a, "/g", rng.random_bytes(64 * 1024))
    sim.settle()
    sim.flush()

    # A forwarded delta whose base b holds: patched locally, nothing asked.
    doc = doc[:9000] + rng.random_bytes(700) + doc[9000:]
    _save(a, "/doc", doc)
    sim.settle()
    sim.flush()
    assert b.meter.bytes_by_category.get("apply_delta", 0) > 0
    assert b.channel.stats.up_messages == 0
    # Delete, then rewrite: b no longer holds the delta's base and reads
    # the cloud's copy with one call.
    a.unlink("/doc")
    a.create("/doc")
    a.write("/doc", 0, doc[:20000] + rng.random_bytes(300) + doc[20000:])
    a.close("/doc")
    sim.settle()
    sim.flush()
    assert a.stats.deltas_kept == 2
    assert b.channel.stats.up_messages == 1
    assert b.read("/doc") == a.read("/doc")

    # Version history and a restore.
    history = a.version_history("/f")
    assert len(history) >= 2
    restored = a.restore_version("/f", history[0])
    sim.settle()
    sim.flush()
    assert b.read("/f") == restored

    # A corrupt verified read recovers from the cloud.
    b.inner.corrupt("/g", 100)
    assert b.read("/g") == a.read("/g")
    assert b.stats.recoveries == 1

    # A crash under pending writes and a pending in-place delta, torn
    # blocks in both files: block repair and the full-file fallback.
    a.write("/f", 100, b"A" * 300)
    a.truncate("/f", 40_000)
    a.write("/f", 39_000, b"C" * 3000)
    g = a.read("/g")
    a.write("/g", 0, g[:5000] + rng.random_bytes(200) + g[5200 : 40 * 1024])
    a.close("/g")
    inject_crash_inconsistency(a.inner, "/f", seed=3)
    inject_crash_inconsistency(a.inner, "/g", seed=4)
    report = sim.restart(a).recover()
    assert report.blocks_repaired > 0 and report.full_file_fallbacks > 0
    sim.settle()
    sim.flush()
    assert sim.mismatched() == []


# -- a forwarded delta costs what it carries -----------------------------------


def _synced_pair():
    """Two direct clients on a bare server; ``/f`` synced on both. Returns
    the system, ``/f``'s create stamp and its content stamp."""
    sim = Simulation(clients=2)
    a, b = sim.clients
    a.create("/f")
    created = a.versions["/f"]
    a.write("/f", 0, DeterministicRandom(22).random_bytes(32 * 1024))
    a.close("/f")
    sim.settle()
    assert b.versions["/f"] == a.versions["/f"] != created
    return sim, created, a.versions["/f"]


def _forward_delta(sim, base, content_base):
    """The cloud applies a delta from client 1 that rewrites ``/f``'s
    content from the ``content_base`` snapshot; returns the message."""
    server = sim.server
    old = bytes(server.store.snapshot(content_base))
    new = old[:1000] + b"fresh" * 200 + old[2000:]
    message = UploadDelta(
        path="/f",
        delta=bitwise_delta(old, new, 4096),
        base_version=base,
        new_version=VersionStamp(1, 99),
        content_base=content_base,
    )
    assert server.handle(message, origin_client=1).ok
    assert server.file_content("/f") == new
    return message


def test_a_forwarded_delta_over_a_held_base_costs_the_forward():
    sim, _, synced = _synced_pair()
    b = sim.clients[1]
    before = b.channel.stats
    up, down, messages = before.up_bytes, before.down_bytes, before.down_messages
    patched = b.meter.bytes_by_category.get("apply_delta", 0)
    server_patched = sim.server.meter.bytes_by_category.get("apply_delta", 0)
    message = _forward_delta(sim, synced, synced)
    forward = Forward(origin_client=1, inner=message)
    assert b.channel.stats.up_bytes == up
    assert b.channel.stats.down_bytes == down + forward.wire_size()
    assert b.channel.stats.down_messages == messages + 1
    # b patched it as the cloud did: the same apply, charged the same.
    charged = sim.server.meter.bytes_by_category["apply_delta"] - server_patched
    assert b.meter.bytes_by_category["apply_delta"] - patched == charged > 0
    assert b.inner.read_file("/f") == sim.server.file_content("/f")
    assert b.versions["/f"] == VersionStamp(1, 99)


def test_a_forwarded_delta_over_an_unheld_base_reads_the_file_once():
    sim, created, synced = _synced_pair()
    b = sim.clients[1]
    stats = b.channel.stats
    up, up_messages = stats.up_bytes, stats.up_messages
    down, down_messages = stats.down_bytes, stats.down_messages
    patched = b.meter.bytes_by_category.get("apply_delta", 0)
    # b holds /f at ``synced``; no name of b's is stamped ``created``.
    message = _forward_delta(sim, synced, created)
    content = sim.server.file_content("/f")
    request = RangeRequest(path="/f", offset=0, length=TO_THE_END)
    reply = RangeReply(path="/f", offset=0, data=content, version=VersionStamp(1, 99))
    forward = Forward(origin_client=1, inner=message)
    assert b.channel.stats.up_messages == up_messages + 1
    assert b.channel.stats.up_bytes == up + request.wire_size()
    assert b.channel.stats.down_messages == down_messages + 2
    assert b.channel.stats.down_bytes == down + forward.wire_size() + reply.wire_size()
    assert b.meter.bytes_by_category.get("apply_delta", 0) == patched
    assert b.inner.read_file("/f") == content
    assert b.versions["/f"] == VersionStamp(1, 99)


@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_an_absent_path_answers_no_version(kind):
    server = SERVERS[kind]()
    reply = server.answer(RangeRequest(path="/u1/none", offset=0, length=TO_THE_END))
    assert reply == RangeReply(path="/u1/none", offset=0, data=b"", version=None)
    reply = server.answer(ResyncRequest(paths=("/u1/none", "/u2/none")))
    assert reply == ResyncReply(versions=(("/u1/none", None), ("/u2/none", None)))
