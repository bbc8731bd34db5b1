"""The crash model — a crash is a restart — and crash-inconsistency injection.

The paper's experiment (Section IV-E): "we cut off the power of the machine
during a file in the sync folder is being written. After the machine is
powered on, we first inject inconsistent data to simulate crash
inconsistency by writing data to the file bypassing the file system" —
i.e., ordered-journaling's window where data blocks changed but metadata
did not. :func:`restart` is the power cut and the power-on,
:func:`inject_crash_inconsistency` the torn block.
"""

from __future__ import annotations

from repro.common.rng import DeterministicRandom
from repro.kvstore.kv import KVStore, LogStructuredKV
from repro.vfs.filesystem import MemoryFileSystem


def inject_crash_inconsistency(
    fs: MemoryFileSystem,
    path: str,
    *,
    seed: int = 0,
    span: int = 4096,
) -> int:
    """Overwrite a span of ``path`` beneath the stack (torn write).

    Returns the offset of the damaged region. Unlike a single bit flip this
    models a whole data block left half-written by the crash.
    """
    rng = DeterministicRandom(seed).fork("crash")
    size = fs.stat(path).size
    if size == 0:
        raise ValueError("cannot tear an empty file")
    offset = rng.randint(0, max(0, size - span))
    garbage = rng.random_bytes(min(span, size - offset))
    inode = fs._inode_of(path)  # deliberate: bypass the operation surface
    inode.data = inode.data.write(offset, garbage)
    return offset


def _reopened(kv: KVStore) -> KVStore:
    """``kv`` after the restart: a WAL-backed store is closed and replayed
    from disk, an in-memory one is durable by identity."""
    if isinstance(kv, LogStructuredKV):
        kv.close()
        return LogStructuredKV(
            kv._path, auto_compact_ratio=kv._auto_compact_ratio, sync=kv._sync
        )
    return kv


def restart(client):
    """Cut the power under ``client``; returns the new client over what
    survives (the old one must not be used again).

    What outlives a process is exactly what the new client's constructor is
    handed: the backing file system; the server, whose exactly-once dedup
    window for this client survives (the new client's registration replaces
    the old subscription and keeps it) — that window is the record of what
    landed; the link (the channel with its counters, busy horizons and
    fault-fate stream) and the meter — the world and its measurement, not
    process memory; clock, config, shares, client id, observability; the
    checksum and journal KVs, reopened; and, if the old client had one, a
    *fresh* reliable transport, whose msg ids continue after the window's
    high-water mark. Everything else is lost because the object is gone;
    :meth:`DeltaCFSClient.recover` rebuilds what the journal kept.
    """
    checksums, journal, old = client.checksums, client.journal, client.transport
    # type(client), not an import: the client module imports repro.faults.
    return type(client)(
        client.inner,
        server=client._link.server,
        channel=client.channel,
        client_id=client.client_id,
        config=client.config,
        clock=client.clock,
        meter=client.meter,
        obs=client.obs,
        checksum_kv=None if checksums is None else _reopened(checksums.kv),
        transport=None
        if old is None
        else type(old)(
            old.channel,
            old.server,
            client_id=old.client_id,
            policy=old.policy,
            seed=old.seed,
            obs=old.obs,
        ),
        journal_kv=None if journal is None else _reopened(journal.kv),
        shares=client.shares,
    )
