"""Crash-and-restart with durable KVs (the LevelDB role).

The tests in ``tests/core`` restart clients over in-memory KVs, which
survive by identity; here the stores are WAL-backed, so ``restart`` closes
them and its successor replays the log from disk before ``recover()``
sweeps against checksums written by its predecessor.
"""

from repro.common.clock import VirtualClock
from repro.core.client import DeltaCFSClient
from repro.faults.crash import inject_crash_inconsistency, restart
from repro.kvstore import LogStructuredKV
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem


def _make_client(tmp_path):
    return DeltaCFSClient(
        MemoryFileSystem(),  # the "disk" survives the restart
        server=CloudServer(),
        channel=Channel(),
        clock=VirtualClock(),
        checksum_kv=LogStructuredKV(str(tmp_path / "checksums.wal")),
        journal_kv=LogStructuredKV(str(tmp_path / "journal.wal"), sync=True),
    )


def _settle(client, seconds=6):
    for _ in range(seconds):
        client.clock.advance(1.0)
        client.pump()
    client.flush()


def _close(client):
    client.checksums.kv.close()
    client.journal.kv.close()


def test_sweep_after_real_restart(tmp_path):
    client = _make_client(tmp_path)
    content = bytes(range(256)) * 200
    client.create("/db")
    client.write("/db", 0, content)
    client.close("/db")
    _settle(client)

    # the crash damages the file while nothing is running
    inject_crash_inconsistency(client.inner, "/db", seed=3)

    reborn = restart(client)
    try:
        assert reborn.checksums.kv is not client.checksums.kv
        assert reborn.recover().damaged_paths == ["/db"]
        assert reborn.inner.read_file("/db") == content
        assert reborn.checksums.mismatched_blocks("/db", content) == []
    finally:
        _close(reborn)


def test_clean_restart_passes_sweep(tmp_path):
    client = _make_client(tmp_path)
    client.create("/f")
    client.write("/f", 0, b"steady state" * 1000)
    client.close("/f")
    _settle(client)

    reborn = restart(client)
    try:
        assert reborn.recover().damaged_paths == []
    finally:
        _close(reborn)


def test_checksums_survive_torn_wal_tail(tmp_path):
    client = _make_client(tmp_path)
    client.create("/f")
    client.write("/f", 0, b"x" * 20_000)
    client.close("/f")
    _settle(client)
    _close(client)

    # the crash tore the WAL's final record
    with open(tmp_path / "checksums.wal", "ab") as fh:
        fh.write(b"\x30\x00\x00\x00partial")

    reborn = restart(client)
    try:
        # reopening dropped the torn tail; intact checksums still verify
        assert reborn.recover().damaged_paths == []
    finally:
        _close(reborn)
