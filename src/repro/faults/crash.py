"""Crash simulation and crash-inconsistency injection.

The paper's experiment (Section IV-E): "we cut off the power of the machine
during a file in the sync folder is being written. After the machine is
powered on, we first inject inconsistent data to simulate crash
inconsistency by writing data to the file bypassing the file system" —
i.e., ordered-journaling's window where data blocks changed but metadata
did not.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import DeterministicRandom
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


def simulate_crash(client) -> List[str]:
    """Model a power cut for a DeltaCFS client: memory is lost, disk stays.

    The Sync Queue, relation table, and undo logs are in-memory in the
    prototype and vanish; the checksum store and the recovery journal
    survive (they live in the WAL-backed KV — the LevelDB role). The
    volatile structures are rebuilt empty **with the client's original
    observability and meter wiring** — a restarted process re-instruments
    itself; rebuilding into ``NULL_OBS`` would silently blind every
    post-crash metric.

    For a journaled client the synced-version map and version counter are
    also wiped (they are process memory too) — :meth:`recover` rebuilds
    them from the journal and the cloud. A journal-less client keeps them,
    preserving the legacy test model where the sweep is improvised by the
    caller.

    Returns the paths that had un-uploaded changes (the "recently modified
    files" the post-crash sweep inspects).
    """
    dirty = sorted({node.path for node in client.queue.nodes()})
    client.queue.__init__(
        upload_delay=client.config.upload_delay,
        capacity=client.config.sync_queue_capacity,
        max_coalesce_delay=client.config.max_coalesce_delay,
        obs=client.obs,
    )
    client.relations.__init__(
        timeout=client.config.relation_timeout, obs=client.obs
    )
    if client.undo is not None:
        client.undo.__init__(meter=client.meter)
    client._pending_create_delta.clear()
    if client.journal is not None:
        from repro.common.version import VersionCounter

        client._dead_versions.clear()
        client.versions.clear()
        client._counter = VersionCounter(client.client_id)
    return dirty
