"""Regression tests for convergence bugs found by the property suite.

Each was discovered by ``test_property_sync`` and fixed; pinned here so
they stay fixed even without the hypothesis example database.
"""

import pytest

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.common.errors import NotFoundError
from repro.common.version import VersionStamp
from repro.core.client import DeltaCFSClient
from repro.net.messages import MetaOp, TxnGroup, UploadWrite
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.server.shard import ShardRouter
from repro.sim import Simulation
from repro.vfs.disk import LocalDirFileSystem
from repro.vfs.filesystem import MemoryFileSystem


def build():
    clock = VirtualClock()
    server = CloudServer()
    client = DeltaCFSClient(
        MemoryFileSystem(), server=server, channel=Channel(), clock=clock
    )
    return clock, client, server


def converged(client, server):
    tmp = client.config.tmp_dir
    local = {
        p: client.inner.read_file(p)
        for p in client.inner.walk_files()
        if not p.startswith(tmp)
    }
    cloud = {
        p: server.file_content(p)
        for p in server.store.paths()
        if "conflicted copy" not in p
    }
    return cloud == local


def settle(clock, client, seconds=8):
    for _ in range(seconds):
        clock.advance(1.0)
        client.pump()
    client.flush()


def test_unlink_after_pending_rename_into_path():
    # create /a; create /d; rename /d -> /a; unlink /a — the unlink used to
    # be elided because /a's *create* was pending, missing that the queued
    # rename would re-materialize /a on the cloud.
    clock, client, server = build()
    client.create("/a")
    client.create("/d")
    client.rename("/d", "/a")
    client.unlink("/a")
    settle(clock, client)
    assert not server.store.exists("/a")
    assert converged(client, server)


def test_unlink_after_pending_link_out_of_path():
    # create /a; link /a -> /b; unlink /a — the elision used to cancel the
    # queued link too, so /b never reached the cloud.
    clock, client, server = build()
    client.create("/a")
    client.link("/a", "/b")
    client.unlink("/a")
    settle(clock, client)
    assert server.store.exists("/b")
    assert not server.store.exists("/a")
    assert converged(client, server)


def test_write_through_hard_link_alias():
    # create /a; link /a -> /b; write /a — the server used to replay link
    # as a deep copy, so the write diverged the two names.
    clock, client, server = build()
    client.create("/a")
    client.close("/a")
    settle(clock, client)
    client.link("/a", "/b")
    client.write("/a", 0, b"shared bytes")
    client.close("/a")
    settle(clock, client)
    assert server.file_content("/b") == b"shared bytes"
    assert converged(client, server)


def test_write_through_both_aliases_interleaved():
    clock, client, server = build()
    client.create("/a")
    client.write("/a", 0, b"0" * 32)
    client.close("/a")
    settle(clock, client)
    client.link("/a", "/b")
    client.write("/a", 0, b"AAAA")
    client.write("/b", 8, b"BBBB")
    client.write("/a", 16, b"CCCC")
    client.close("/a")
    client.close("/b")
    settle(clock, client)
    expected = b"AAAA" + b"0" * 4 + b"BBBB" + b"0" * 4 + b"CCCC" + b"0" * 12
    assert client.inner.read_file("/a") == expected
    assert server.file_content("/a") == expected
    assert server.file_content("/b") == expected
    assert converged(client, server)


def test_trigger2_delta_with_unsynced_base_falls_back_to_rpc():
    # create /a; create /d; write /a; rename /d -> /a — the trigger-2 delta
    # used to name the pending write node's own version as its content
    # base; that version dies with the replaced node, so the server could
    # never resolve it and the whole group conflicted and rolled back.
    clock, client, server = build()
    client.create("/a")
    client.create("/d")
    client.write("/a", 0, b"\x00" * 9)
    client.rename("/d", "/a")
    settle(clock, client)
    assert server.file_content("/a") == b""  # /d's (empty) content won
    assert not server.store.exists("/d")
    assert all(r.status == "applied" for r in server.apply_log)
    assert converged(client, server)


def test_alias_read_verifies_after_cross_link_write():
    # checksum store must track writes arriving through the other name
    clock, client, server = build()
    client.create("/a")
    client.write("/a", 0, b"x" * 8192)
    client.close("/a")
    settle(clock, client)
    client.link("/a", "/b")
    client.write("/a", 4096, b"y" * 4096)
    client.close("/a")
    settle(clock, client)
    assert client.read("/b", 0, None) == b"x" * 4096 + b"y" * 4096
    assert client.stats.corruptions_detected == 0


def test_a_write_past_eof_rechecksums_the_zero_filled_gap():
    # The write zero-fills [100, 10 000): the old partial tail block and the
    # gap's blocks changed, but only the blocks under the written bytes were
    # re-checksummed. The read then raised a false CorruptionDetected and the
    # repair replaced the local file with the stale 100-byte cloud copy.
    clock, client, server = build()
    client.create("/f")
    client.write("/f", 0, b"x" * 100)
    client.close("/f")
    settle(clock, client)
    client.write("/f", 10_000, b"y" * 50)
    assert client.read("/f", 0, 200) == b"x" * 100 + bytes(100)
    assert client.stats.corruptions_detected == 0
    client.close("/f")
    settle(clock, client)
    assert server.file_content("/f") == b"x" * 100 + bytes(9_900) + b"y" * 50
    assert converged(client, server)


def _empty_write_past_eof(sim):
    """ROADMAP item 4, ledger (ii): a zero-length write past EOF used to
    zero-extend the local file while the Sync Queue shipped no run."""
    writer = sim.clients[0]
    writer.create("/f")
    writer.write("/f", 0, b"ab")
    writer.close("/f")
    sim.settle()
    before = (writer.stats.ops_intercepted, writer.stats.writes_intercepted)
    writer.write("/f", 5, b"")
    assert (writer.stats.ops_intercepted, writer.stats.writes_intercepted) == before
    assert not writer.queue.nodes()
    writer.close("/f")
    sim.settle()
    assert writer.inner.size("/f") == 2
    assert sim.mismatched() == []
    assert sim.server.file_content("/f") == b"ab"
    assert not any(c.conflict_notices for c in sim.clients)


def test_empty_write_past_eof_is_a_noop():
    sim = Simulation(clients=2)
    _empty_write_past_eof(sim)
    assert sim.clients[1].inner.read_file("/f") == b"ab"


def test_empty_write_past_eof_is_a_noop_on_disk(tmp_path):
    _empty_write_past_eof(Simulation(fs=LocalDirFileSystem(str(tmp_path / "sync"))))
    assert (tmp_path / "sync" / "f").read_bytes() == b"ab"


def test_empty_write_to_a_missing_path_still_raises():
    _, client, _ = build()
    with pytest.raises(NotFoundError):
        client.write("/missing", 0, b"")


def test_link_onto_a_synced_directory_raises_before_any_bookkeeping():
    # The backing store used to accept the link, so the client recorded a
    # version for the directory's name and queued a link node whose dest
    # was a directory.
    clock, client, server = build()
    client.mkdir("/d")
    client.create("/f")
    client.write("/f", 0, b"data")
    client.close("/f")
    queued, versions = client.queue.nodes(), dict(client.versions)
    with pytest.raises(FileExistsError):
        client.link("/f", "/d")
    assert client.queue.nodes() == queued
    assert client.versions == versions
    assert client.inner.stat("/d").is_dir
    settle(clock, client)
    assert converged(client, server)


@pytest.mark.parametrize("enable_checksums", [True, False])
def test_forwarded_update_realigns_hard_link_versions(enable_checksums):
    # ROADMAP item 4, ledger (v): without a Checksum Store the alias kept
    # its old version after the forward, so B's edit through it was
    # rejected as a conflict and the replicas diverged.
    sim = Simulation(
        clients=2, config=DeltaCFSConfig(enable_checksums=enable_checksums)
    )
    a, b = sim.clients
    a.create("/d.txt")
    a.write("/d.txt", 0, b"first draft")
    a.close("/d.txt")
    a.link("/d.txt", "/alias.txt")
    sim.settle()
    a.write("/d.txt", 0, b"FIRST")
    a.close("/d.txt")
    sim.settle()
    b.write("/alias.txt", 6, b"DRAFT")
    b.close("/alias.txt")
    sim.settle()
    assert sim.mismatched() == []
    assert not any(c.conflict_notices for c in sim.clients)
    assert sim.server.file_content("/d.txt") == b"FIRST DRAFT"


def _partitioned(write_at):
    """A journaled client behind a link that is cut during [20, 40): sync
    /f, write 100 bytes so that the unit ships at ``write_at`` + 3 s, let
    the queue drain — one envelope is then unacked — and cut the power."""
    from repro.faults.network import NetworkFaults
    from repro.kvstore.kv import MemoryKV

    sim = Simulation(
        faults=NetworkFaults(partitions=((20, 40),)),
        journal_kv=MemoryKV(),
        checksum_kv=MemoryKV(),
    )
    client = sim.client
    client.create("/f")
    client.write("/f", 0, bytes(range(256)) * 256)
    client.close("/f")
    sim.settle(12)
    assert sim.converged() and client.transport.idle
    sim.clock.advance(write_at - sim.clock.now())
    client.write("/f", 1000, b"w" * 100)
    sim.clock.advance(3.0)
    sim.pump()
    sim.settle(6)
    assert len(client.queue) == 0 and client.transport.inflight_depth == 1
    report = sim.restart(client).recover()
    sim.clock.advance(41 - sim.clock.now())  # the link heals
    sim.settle(12)
    sim.flush()
    return sim, report


def test_update_whose_envelope_was_lost_survives_a_restart():
    # The unit's journal records used to be retired when it was handed to
    # the transport, so an envelope unacked at the cut was in neither the
    # journal nor — the transport being process memory — anywhere else:
    # the restarted client never re-sent it (mismatched() == ['/f']).
    sim, report = _partitioned(write_at=21.0)  # sent into the partition
    assert report.nodes_replayed == 1 and report.nodes_already_applied == 0
    assert sim.converged()
    assert sim.client.inner.read("/f", 1000, 100) == b"w" * 100


def test_update_whose_ack_was_lost_is_not_applied_twice():
    # Sent at 19.99, applied at 20.01, its ack dropped by the partition:
    # the journal still holds the node, recovery finds the cloud already at
    # its version and neither re-uploads it nor conflicts with itself.
    sim, report = _partitioned(write_at=16.99)
    assert report.nodes_already_applied == 1 and report.nodes_replayed == 0
    assert sim.converged()
    assert sim.client.stats.conflicts == 0
    assert not any("conflicted copy" in p for p in sim.server.store.paths())


def _rewrite_mostly_in_place(client, original):
    """Bytes of the *original* /f, then rewrites of what is already there:
    three quarters of the file overwritten (the pack-time "inplace" rule
    fires) — against a stale old version, a mostly-COPY delta of the wrong
    base."""
    n = len(original)
    client.write("/f", n // 2, original[: n // 4])
    current = client.inner.read_file("/f")
    client.write("/f", 3 * n // 4, current[3 * n // 4 :])
    client.write("/f", n // 4, current[n // 4 : n // 2])
    client.close("/f")


def test_rename_over_a_file_retires_its_undo_log():
    # rename(src, dst) packed dst's write node but left dst's undo log
    # behind, so the next pack-time "inplace" delta was encoded against the
    # bytes of a file that no longer existed: its COPY ops named offsets of
    # a base the cloud never held (mismatched() == ['/f'], no conflict).
    # The old version is now the write node's own: it goes with the node.
    from repro.common.rng import DeterministicRandom

    rng = DeterministicRandom(1)
    n = 64 * 1024
    sim = Simulation()
    client = sim.client
    original = rng.random_bytes(n)
    client.create("/f")
    client.write("/f", 0, original)
    client.close("/f")
    sim.settle()
    client.write("/f", 0, rng.random_bytes(n // 4))  # in place, left open
    client.create("/t")
    client.write("/t", 0, rng.random_bytes(n))
    client.close("/t")
    held = client.queue.active_write_node("/f")
    assert held is not None and held.base is not None
    client.rename("/t", "/f")
    assert held.packed and client.queue.active_write_node("/f") is None
    sim.settle()
    assert sim.converged()
    _rewrite_mostly_in_place(client, original)
    sim.settle()
    assert sim.converged()
    assert client.stats.conflicts == 0


def test_forwarded_rename_over_a_file_retires_its_undo_log():
    sim = Simulation(clients=2)
    a, b = sim.clients
    for path in ("/f", "/t"):
        a.create(path)
        a.write(path, 0, path.encode() * 4096)
        a.close(path)
    sim.settle()
    b.write("/f", 0, b"x" * 4096)  # in place on b, left open; it ships
    assert b.queue.active_write_node("/f").base is not None
    sim.settle()
    # the queue packed and shipped the node: its old version went with it
    assert b.queue.active_write_node("/f") is None
    a.rename("/t", "/f")
    sim.settle()
    assert sim.converged() and b.queue.active_write_node("/f") is None
    b.write("/f", 0, b"y" * 4096)  # and again, for the forwarded unlink
    sim.settle()
    assert b.queue.active_write_node("/f") is None
    a.unlink("/f")
    sim.settle()
    assert sim.converged() and b.queue.active_write_node("/f") is None


def test_undo_log_does_not_outlive_the_node_it_grew_with():
    # Found while fixing the rename case above: a file left open ships its
    # write node when the upload delay runs out (the queue packs it, the
    # client is not asked), the undo log stays, and the *next* node's
    # pack-time delta was encoded against the pre-first-node bytes while
    # naming the first node's version as its base (mismatched() == ['/f']).
    from repro.common.rng import DeterministicRandom

    rng = DeterministicRandom(1)
    n = 64 * 1024
    sim = Simulation()
    client = sim.client
    original = rng.random_bytes(n)
    client.create("/f")
    client.write("/f", 0, original)
    client.close("/f")
    sim.settle()
    client.write("/f", 0, rng.random_bytes(n // 4))  # left open; it ships
    sim.settle()
    assert sim.converged()
    _rewrite_mostly_in_place(client, original)
    sim.settle()
    assert sim.converged()
    assert client.stats.inplace_deltas == 1  # still compressed, against v1


def _ack_lost(script):
    """A journaled client behind a link cut during [20, 40): sync /f and /a,
    run ``script(client)`` at 16.99 so everything it queues ships at 19.99
    and lands, let the partition drop every ack, and cut the power."""
    from repro.faults.network import NetworkFaults
    from repro.kvstore.kv import MemoryKV

    sim = Simulation(
        faults=NetworkFaults(partitions=((20, 40),)),
        journal_kv=MemoryKV(),
        checksum_kv=MemoryKV(),
    )
    client = sim.client
    for path in ("/f", "/a"):
        client.create(path)
        client.write(path, 0, path.encode() * 8192)
        client.close(path)
    client.create("/t")
    sim.settle(12)
    assert sim.converged() and client.transport.idle
    sim.clock.advance(16.99 - sim.clock.now())
    script(client)
    sim.clock.advance(3.0)
    sim.pump()
    sim.settle(6)
    assert len(client.queue) == 0 and not client.transport.idle
    reborn = sim.restart(client)
    up = reborn.channel.stats.up_bytes
    report = reborn.recover()
    sim.clock.advance(41 - sim.clock.now())  # the link heals
    sim.settle(12)
    sim.flush()
    return sim, report, reborn.channel.stats.up_bytes - up


def test_applied_group_whose_ack_was_lost_is_not_reshipped():
    # A transactional save's TxnGroup (rename + the delta that replaced the
    # write) landed, its ack did not. Recovery compared path heads by hand:
    # the rename names /t, which the cloud no longer has, so it was re-sent,
    # and the group's members went out again one by one.
    def save(client):
        client.write("/t", 0, b"/f" * 4000 + b"an edit" + b"/f" * 4189)
        client.close("/t")
        client.rename("/t", "/f")

    sim, report, uplink = _ack_lost(save)
    assert report.nodes_already_applied == 2 and report.nodes_replayed == 0
    assert uplink < 1000  # the resync round trip, nothing re-shipped
    assert sim.converged() and sim.client.stats.conflicts == 0


def test_applied_rename_whose_ack_was_lost_is_not_reexecuted():
    # rename /a -> /b landed, its ack did not, and /a was created again (and
    # landed too) before the cut. A versionless rename cannot say whether it
    # ran: re-executing it moved the *new* /a over /b on the cloud.
    def rename_and_recreate(client):
        client.rename("/a", "/b")
        client.create("/a")
        client.write("/a", 0, b"a new /a")
        client.close("/a")

    sim, report, _ = _ack_lost(rename_and_recreate)
    assert report.nodes_replayed == 0 and report.nodes_already_applied >= 3
    assert sim.server.file_content("/b") == b"/a" * 8192
    assert sim.server.file_content("/a") == b"a new /a"
    assert sim.converged() and sim.client.stats.conflicts == 0


def test_queued_transactional_save_ships_as_one_group_after_a_crash():
    # The save was still queued at the cut. Its span was never journaled, so
    # recovery re-queued the nodes as independent units, and rebased the
    # delta onto the head /f held *before* the rename: the cloud rejected it.
    from repro.kvstore.kv import MemoryKV

    sim = Simulation(journal_kv=MemoryKV(), checksum_kv=MemoryKV())
    client = sim.client
    client.create("/f")
    client.write("/f", 0, b"/f" * 8192)
    client.close("/f")
    sim.settle()
    client.create("/t")
    client.write("/t", 0, b"/f" * 4000 + b"an edit" + b"/f" * 4189)
    client.close("/t")
    client.rename("/t", "/f")
    assert client.stats.deltas_kept == 1 and client.queue.spans()
    reborn = sim.restart(client)
    report = reborn.recover()
    assert report.nodes_replayed == 3
    sim.settle()
    assert reborn.stats.groups_uploaded == 1
    assert reborn.stats.conflicts == 0
    assert sim.converged() and not any(
        "conflicted copy" in p for p in sim.server.store.paths()
    )


def test_recovered_version_map_follows_a_pending_rename():
    # A save whose delta lost to RPC was still queued at the cut: its write
    # sits under the tmp name and the rename carries that version to /f.
    # Recovery set each node's path to its new_version only, so /f kept the
    # version the cloud held *before* the rename, and the next save's delta
    # named it as its content base while encoding against the renamed bytes
    # (mismatched() == ['/f'], no conflict).
    from repro.common.rng import DeterministicRandom
    from repro.kvstore.kv import MemoryKV

    rng = DeterministicRandom(4)
    sim = Simulation(journal_kv=MemoryKV(), checksum_kv=MemoryKV())
    client = sim.client
    client.create("/f")
    client.write("/f", 0, rng.random_bytes(64 * 1024))
    client.close("/f")
    sim.settle()
    rewrite = rng.random_bytes(64 * 1024)
    for content in (rewrite, rewrite[:1000] + b"EDIT" + rewrite[1004:]):
        client.create("/t")
        client.write("/t", 0, content)
        client.close("/t")
        client.rename("/t", "/f")
        if content is rewrite:
            assert client.stats.deltas_kept == 0
            versions = dict(client.versions)
            client = sim.restart(client)
            client.recover()
            assert client.versions["/f"] == versions["/f"]
    assert client.stats.deltas_kept == 1
    sim.settle()
    assert sim.converged() and client.stats.conflicts == 0


def _group_router():
    """A 4-shard router where /u1 and /u2 live on different shards, and
    a file on each: ROADMAP item 9, ledger (ix)."""
    router = ShardRouter(4)
    assert router.shard_index_for_path("/u1/a") != router.shard_index_for_path("/u2/b")
    for counter, path in enumerate(("/u1/a", "/u2/b"), 1):
        router.handle(MetaOp(kind="create", path=path, new_version=VersionStamp(1, counter)))
        router.handle(UploadWrite(
            path=path, offset=0, data=path.encode(),
            base_version=VersionStamp(1, counter), new_version=VersionStamp(2, counter),
        ))
    return router


def _on_no_shard(router, path):
    return not any(shard.store.exists(path) for shard in router.shards)


def test_a_name_created_inside_a_colocated_group_is_found_by_its_name():
    # The group lands on /u1's shard, so /u2/new was created there, and
    # nothing recorded that it was: reads of it raised NotFoundError.
    router = _group_router()
    new = "/u2/new"
    group = TxnGroup(members=[
        UploadWrite(path="/u1/a", offset=0, data=b"A", base_version=VersionStamp(2, 1),
                    new_version=VersionStamp(3, 1)),
        MetaOp(kind="create", path=new, new_version=VersionStamp(3, 2)),
        UploadWrite(path=new, offset=0, data=b"new", base_version=VersionStamp(3, 2),
                    new_version=VersionStamp(3, 3)),
    ])
    assert router.handle(group).ok
    assert router.file_content(new) == b"new"
    assert router.file_version(new) == VersionStamp(3, 3)
    assert router.version_history(new) == [VersionStamp(3, 2), VersionStamp(3, 3)]
    router.handle(MetaOp(kind="unlink", path=new))
    assert _on_no_shard(router, new)


def test_a_file_a_group_moved_survives_later_colocations():
    # The moved file was found through a 4 096-entry LRU: 4 097 later
    # co-locations evicted its entry, reads raised, and an unlink routed to
    # its own shard left the file orphaned where the group had put it.
    router = _group_router()
    group = TxnGroup(members=[
        UploadWrite(path="/u1/a", offset=0, data=b"A", base_version=VersionStamp(2, 1),
                    new_version=VersionStamp(3, 1)),
        UploadWrite(path="/u2/b", offset=0, data=b"B", base_version=VersionStamp(2, 2),
                    new_version=VersionStamp(3, 2)),
    ])
    assert router.handle(group).ok
    for i in range(4097):
        router.handle(MetaOp(kind="create", path=f"/u2/f{i}"))
        router.handle(TxnGroup(members=[
            MetaOp(kind="create", path=f"/u1/g{i}"),
            MetaOp(kind="create", path=f"/u2/f{i}"),
        ]))
    assert router.file_content("/u2/b") == b"Bu2/b"
    router.handle(MetaOp(kind="unlink", path="/u2/b"))
    assert _on_no_shard(router, "/u2/b")


def _synced_dir():
    """A client and server that both hold /d/f, with content."""
    clock, client, server = build()
    client.mkdir("/d")
    client.create("/d/f")
    client.write("/d/f", 0, bytes(range(256)) * 64)
    client.close("/d/f")
    settle(clock, client)
    return clock, client, server


def test_every_spelling_of_a_name_syncs_as_that_one_file():
    # The client queued writes under the name as spelled: the local store
    # normalised each spelling to its one file /d/f, while the cloud
    # created /d//f, /d/./f and d/f beside it.
    clock, client, server = _synced_dir()
    for index, spelling in enumerate(("/d//f", "/d/./f", "d/f")):
        client.write(spelling, 8 * index, b"edit")
        client.close(spelling)
    settle(clock, client)
    assert sorted(server.store.paths()) == list(client.inner.walk_files()) == ["/d/f"]
    assert converged(client, server)
    assert all(r.status == "applied" for r in server.apply_log)
    # The version-control ops take any spelling of the name too.
    history = client.version_history("/d//f")
    assert len(history) > 1 and history == client.version_history("/d/f")
    restored = client.restore_version("d/f", history[0])
    assert client.inner.read_file("/d/f") == restored == server.file_content("/d/f")
    assert list(client.versions) == ["/d/f"]


def test_a_save_renamed_onto_another_spelling_still_triggers_the_delta():
    # The relation entry is keyed by the name the backup rename saw (/d/f);
    # a save renamed onto /d//f missed it, so no delta was triggered and
    # the save shipped as RPC under a second cloud name.
    clock, client, server = _synced_dir()
    content = client.inner.read_file("/d/f")
    client.create("/d/f.tmp")
    client.write("/d/f.tmp", 0, content[:100] + b"edit" + content[104:])
    client.close("/d/f.tmp")
    client.rename("/d/f", "/d/f~")
    client.rename("/d/f.tmp", "/d//f")
    settle(clock, client)
    assert client.stats.deltas_triggered == 1
    assert server.file_content("/d/f") == content[:100] + b"edit" + content[104:]
    assert converged(client, server)


# A hard-linked file is one file on the client: whichever name a change
# comes through, every name takes the file's stamp and checksums, and the
# file has one write node. Each case starts from a synced /a linked to /b.


def _linked(size, enable_checksums):
    sim = Simulation(config=DeltaCFSConfig(enable_checksums=enable_checksums))
    client = sim.client
    client.create("/a")
    client.write("/a", 0, bytes(range(256)) * (size // 256))
    client.close("/a")
    sim.settle()
    client.link("/a", "/b")
    return sim, client


def _preserved_copy_written_through_its_link(client):
    # The preserved copy of /a kept /a's old stamp while /b changed its
    # bytes: the re-created /a's delta named that stamp over new bytes.
    client.unlink("/a")
    client.write("/b", 0, b"w" * 4096)
    client.create("/a")
    client.write("/a", 0, client.read("/b", 0, None) + b"x" * 40)


def _write_order_across_names(client):
    # The second /a write joined /a's older node, so the cloud replayed
    # it before /b's: the server held B, the replica A.
    client.write("/a", 0, b"A")
    client.write("/b", 0, b"B")
    client.write("/a", 0, b"A")


def _inplace_delta_then_the_other_name(client):
    # The pack-time delta re-stamped /a alone: /b's next write named the
    # replaced node's dead version as its base and conflicted with itself.
    content = client.read("/a", 0, None)
    client.write("/a", 0, content[:40 * 1024])
    client.write("/a", 100, b"e" * 50)
    client.close("/a")
    client.write("/b", 0, b"w" * 4096)


def _truncate_through_the_other_name(client):
    # The truncate packed /b's (absent) node, not /a's: the second write
    # joined /a's node ahead of the truncate, and no conflict said so.
    client.write("/a", 0, b"1" * 100)
    client.truncate("/b", 50)
    client.write("/a", 50, b"2" * 100)


@pytest.mark.parametrize("enable_checksums", [False, True])
@pytest.mark.parametrize(
    "size, script",
    [
        (16 * 1024, _preserved_copy_written_through_its_link),
        (4096, _write_order_across_names),
        (64 * 1024, _inplace_delta_then_the_other_name),
        (8192, _truncate_through_the_other_name),
    ],
    ids=lambda value: getattr(value, "__name__", "").strip("_") or None,
)
def test_a_hard_linked_file_syncs_as_one_file(size, script, enable_checksums):
    sim, client = _linked(size, enable_checksums)
    script(client)
    for name in ("/a", "/b"):
        client.close(name)
    sim.settle()
    assert sim.mismatched() == []
    assert client.stats.conflicts == 0


def _save_by_unlink(client):
    client.unlink("/b")
    client.create("/b")
    client.write("/b", 0, client.read("/a", 0, None) + b"tail")
    client.close("/b")


def _save_by_backup_rename(client):
    client.rename("/b", "/b~")
    client.create("/t")
    client.write("/t", 0, client.read("/a", 0, None) + b"tail")
    client.close("/t")
    client.rename("/t", "/b")


def _save_over_the_name(client):
    client.create("/t")
    client.write("/t", 0, client.read("/a", 0, None) + b"tail")
    client.close("/t")
    client.rename("/t", "/b")


@pytest.mark.parametrize("enable_checksums", [False, True])
@pytest.mark.parametrize(
    "save",
    [_save_by_unlink, _save_by_backup_rename, _save_over_the_name],
    ids=lambda save: save.__name__.strip("_"),
)
def test_a_delta_never_names_a_version_still_being_written(save, enable_checksums):
    # /a's write node is open when /b is saved over (each trigger rule):
    # the old version /b's delta named was still absorbing writes through
    # /a, so the cloud decoded the delta against bytes it was never made of.
    sim, client = _linked(24 * 1024, enable_checksums)
    client.write("/a", 0, b"Q" * 100)
    save(client)
    client.write("/a", 5000, b"R" * 100)
    client.close("/a")
    sim.settle()
    assert client.stats.deltas_triggered == 1
    assert sim.mismatched() == []
    assert client.stats.conflicts == 0


# Read repair: a verified read that finds a damaged block adopts the cloud
# copy. The file's pending writes are not on the cloud yet; they used to be
# dropped from the local file while their node still shipped them, so the
# server held the write and the replica did not (mismatched() == ['/f'],
# no conflict).


def _damaged_with_a_pending_write(write_through):
    sim = Simulation(config=DeltaCFSConfig(enable_checksums=True))
    client = sim.client
    client.create("/f")
    client.write("/f", 0, bytes(range(256)) * 256)
    client.close("/f")
    sim.settle()
    if write_through != "/f":
        client.link("/f", write_through)
        sim.settle()
    client.write(write_through, 100, b"N" * 50)  # pending
    client.inner.corrupt("/f", 40000)
    return sim, client


@pytest.mark.parametrize("write_through", ["/f", "/g"])
def test_read_repair_keeps_the_files_pending_writes(write_through):
    sim, client = _damaged_with_a_pending_write(write_through)
    stamp, synced = client.versions["/f"], bytes(range(256)) * 256
    assert client.read("/f", 40000, 10) == synced[40000:40010]
    assert client.stats.recoveries == 1
    assert client.read("/f", 100, 50) == b"N" * 50
    assert client.versions["/f"] == client.versions[write_through] == stamp
    client.close(write_through)
    sim.settle()
    sim.flush()
    assert sim.mismatched() == []
    assert client.stats.conflicts == 0
