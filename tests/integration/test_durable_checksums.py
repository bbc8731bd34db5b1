"""Crash-and-restart with durable KVs (the LevelDB role).

The tests in ``tests/core`` restart clients over in-memory KVs, which
survive by identity; here the stores are WAL-backed, so ``restart`` closes
them and its successor replays the log from disk before ``recover()``
sweeps against checksums written by its predecessor.
"""

from repro.common.clock import VirtualClock
from repro.core.client import DeltaCFSClient
from repro.faults.crash import inject_crash_inconsistency, restart
from repro.kvstore import LogStructuredKV, wal
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


def test_a_torn_group_record_flags_only_what_changed_since(tmp_path):
    client = _make_client(tmp_path)
    block = client.checksums.block_size
    content = bytes(range(256)) * (20 * block // 256)
    client.create("/db")
    client.write("/db", 0, content)
    client.close("/db")
    _settle(client)
    client.write("/db", 5 * block + 100, b"new bytes" * 10)
    client.write("/db", 9 * block, b"more" * 10)
    written = client.inner.read_file("/db")
    _close(client)

    # The crash tore the last append: the group record holding both writes.
    # The record before it (block 5's write alone) survives.
    log = tmp_path / "checksums.wal"
    raw = log.read_bytes()
    *_, (op, key, value) = wal.iter_records(raw)
    assert op == wal.PUT and key.startswith(b"/db\x00")
    last = len(wal.encode_record(op, key, value))
    log.write_bytes(raw[: len(raw) - last // 2])

    reborn = restart(client)
    try:
        assert reborn.checksums.mismatched_blocks("/db", written) == [9]
        assert reborn.recover().damaged_paths == ["/db"]
        assert reborn.inner.read_file("/db") == written
        assert reborn.checksums.mismatched_blocks("/db", written) == []
    finally:
        _close(reborn)
