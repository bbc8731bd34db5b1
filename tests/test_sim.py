"""Tests for the Simulation facade."""

import pytest

from repro.common.config import DeltaCFSConfig
from repro.sim import Simulation


def test_single_client_round_trip():
    sim = Simulation()
    sim.client.create("/f")
    sim.client.write("/f", 0, b"payload")
    sim.client.close("/f")
    sim.settle()
    assert sim.server.file_content("/f") == b"payload"
    assert sim.converged()


def test_two_clients_share():
    sim = Simulation(clients=2)
    a, b = sim.clients
    a.create("/shared")
    a.write("/shared", 0, b"from a")
    a.close("/shared")
    sim.settle()
    assert b.read("/shared", 0, None) == b"from a"
    assert sim.converged()


def test_report_contains_principals():
    sim = Simulation(clients=2)
    sim.client.create("/f")
    sim.settle()
    report = sim.report()
    assert "client 1" in report and "client 2" in report and "cloud" in report


def test_custom_config_applied():
    sim = Simulation(config=DeltaCFSConfig(upload_delay=0.5))
    assert sim.client.config.upload_delay == 0.5


def test_converged_detects_divergence():
    sim = Simulation()
    sim.client.create("/f")
    sim.client.write("/f", 0, b"x")
    # not settled: the write is still queued
    assert not sim.converged()
    sim.settle()
    assert sim.converged()


def test_zero_clients_rejected():
    with pytest.raises(ValueError):
        Simulation(clients=0)


def test_converged_scopes_tmp_area_like_the_client():
    """``/.deltacfs_tmp_notes.txt`` merely shares the tmp dir's prefix; it
    is an ordinary synced file and must not be skipped on one side only."""
    sim = Simulation(clients=2)
    a, b = sim.clients
    a.create("/.deltacfs_tmp_notes.txt")
    a.write("/.deltacfs_tmp_notes.txt", 0, b"not a preserved file")
    a.close("/.deltacfs_tmp_notes.txt")
    sim.settle()
    assert b.read("/.deltacfs_tmp_notes.txt", 0, None) == b"not a preserved file"
    assert sim.mismatched() == []
    assert sim.converged()


def test_conflict_copy_recognised_by_tag_not_substring():
    from repro.common.version import VersionStamp
    from repro.core.conflict import conflict_path, is_conflict_copy

    assert is_conflict_copy(conflict_path("/docs/report.txt", VersionStamp(7, 42)))
    assert is_conflict_copy(conflict_path("/.gitignore", VersionStamp(1, 2)))
    assert not is_conflict_copy("/my conflicted copy notes.txt")
    assert not is_conflict_copy("/report (conflicted copy).txt")

    sim = Simulation(clients=2)
    a, b = sim.clients
    a.create("/my conflicted copy notes.txt")
    a.write("/my conflicted copy notes.txt", 0, b"a user file")
    a.close("/my conflicted copy notes.txt")
    sim.settle()
    assert sim.converged()
    # ... and it is compared, not skipped: losing it on one replica shows.
    b.inner.unlink("/my conflicted copy notes.txt")
    assert sim.mismatched() == ["/my conflicted copy notes.txt"]


def test_real_conflict_copies_do_not_count_as_divergence():
    sim = Simulation(clients=2)
    a, b = sim.clients
    a.create("/notes.md")
    a.write("/notes.md", 0, b"base\n")
    a.close("/notes.md")
    sim.settle()
    a.write("/notes.md", 5, b"from a\n")
    a.close("/notes.md")
    b.write("/notes.md", 5, b"from b\n")
    b.close("/notes.md")
    a.flush()  # a wins; b's update is now stale
    sim.settle()
    from repro.core.conflict import is_conflict_copy

    assert any(is_conflict_copy(p) for p in sim.server.store.paths())
    assert b.stats.conflicts > 0
    # b keeps its losing edit locally until it pulls; the cloud's copy of
    # /notes.md is a's. That is a real mismatch, the conflict copy is not.
    assert sim.mismatched() == ["/notes.md"]


def _word_style_save(fs, path, content):
    """The Word save dance: preserve old, write new under a temp name, swap."""
    fs.rename(path, path + "~old")
    fs.create(path + ".new")
    fs.write(path + ".new", 0, content)
    fs.close(path + ".new")
    fs.rename(path + ".new", path)
    fs.unlink(path + "~old")


@pytest.mark.parametrize("journal", [False, True], ids=["nojournal", "journal"])
@pytest.mark.parametrize("lossy", [False, True], ids=["perfect", "lossy"])
@pytest.mark.parametrize("shards", [0, 4], ids=["cloud", "router4"])
def test_topology_matrix_converges_and_holds_invariants(shards, lossy, journal):
    from repro.check import verify_trace
    from repro.faults.network import NO_FAULTS, NetworkFaults
    from repro.kvstore.kv import MemoryKV
    from repro.obs import Observability
    from repro.obs.analyze import load_trace_lines
    from repro.server.cloud import CloudServer
    from repro.server.shard import ShardRouter

    obs = Observability()
    server = ShardRouter(shards, obs=obs) if shards else CloudServer(obs=obs)
    sim = Simulation(
        server=server,
        obs=obs,
        faults=NetworkFaults(drop_prob=0.2, dup_prob=0.1) if lossy else NO_FAULTS,
        fault_seed=3,
        shares=("/shared",),
        journal_kv=MemoryKV() if journal else None,
    )
    a = sim.client
    b = sim.attach(shares=("/shared",), journal_kv=MemoryKV() if journal else None)
    assert (a.transport is not None) == lossy and (a.journal is not None) == journal

    document = bytes(i % 251 for i in range(64 * 1024))
    a.mkdir("/shared")
    a.create("/shared/report.doc")
    a.write("/shared/report.doc", 0, document)
    a.close("/shared/report.doc")
    sim.settle()
    sim.flush()
    revised = document[:20_000] + b"<<REVISED>>" + document[20_000:]
    _word_style_save(a, "/shared/report.doc", revised)
    sim.settle()
    sim.flush()

    assert a.stats.deltas_kept == 1
    assert b.read("/shared/report.doc", 0, None) == revised
    assert sim.mismatched() == []
    results = verify_trace(load_trace_lines(obs.tracer.to_jsonl().splitlines()))
    applicable = [r for r in results if r.status != "skipped"]
    assert applicable and all(r.status == "ok" for r in applicable), [
        (r.id, r.violations) for r in applicable if r.status != "ok"
    ]
    if lossy:
        assert a.transport.stats.retransmits > 0


def test_restart_swaps_the_client_in_place_and_keeps_the_world():
    from repro.kvstore.kv import MemoryKV

    sim = Simulation(clients=2, journal_kv=MemoryKV(), checksum_kv=MemoryKV())
    a, b = sim.clients
    a.create("/f")
    a.write("/f", 0, b"synced" * 100)
    a.close("/f")
    sim.settle()
    a.write("/f", 0, b"dirty")
    up_before = a.channel.stats.up_bytes
    reborn = sim.restart(a)
    assert sim.clients == [reborn, b] and sim.client is reborn
    assert (reborn.client_id, reborn.shares, reborn.config) == (
        a.client_id, a.shares, a.config
    )
    # the world and its measurement: disk, link (with counters), meter, KVs
    assert reborn.inner is a.inner and reborn.channel is a.channel
    assert reborn.channel.stats.up_bytes == up_before
    assert reborn.meter is a.meter and reborn.meter.total > 0
    assert reborn.journal.kv is a.journal.kv
    assert reborn.checksums.kv is a.checksums.kv
    # process memory: gone
    assert len(reborn.queue) == 0 and reborn.versions == {}
    assert reborn.stats.ops_intercepted == 0
    assert reborn.recover().dirty_paths == ["/f"]
    sim.settle()
    assert sim.converged()
    # forwards reach the successor, not the dead client
    b.write("/f", 0, b"from-b")
    b.close("/f")
    sim.settle()
    assert reborn.read("/f", 0, 6) == b"from-b" and a.stats.forwards_applied == 0
