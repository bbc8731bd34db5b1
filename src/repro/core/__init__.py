"""The DeltaCFS core: adaptive hybrid of NFS-like file RPC and delta sync.

Public surface:

- :class:`DeltaCFSClient` — the client engine (Figure 4's user-space stack).
- :class:`RelationTable` — transactional-update detection (Section III-A).
- :class:`SyncQueue` — coalescing upload queue with backindex causality
  (Sections III-B, III-E).
- :class:`ChecksumStore` — block-level integrity/crash-consistency checks
  (Section III-E).
- :class:`VersionStamp` / :class:`VersionCounter` — client-assigned
  ``<CliID, VerCnt>`` versioning (Section III-C).
"""

from repro.core.client import ClientStats, DeltaCFSClient
from repro.core.checksum_store import ChecksumStore
from repro.core.conflict import conflict_path
from repro.core.relation_table import RelationEntry, RelationTable
from repro.core.sync_queue import (
    DeltaNode,
    MetaNode,
    QueueNode,
    SyncQueue,
    TruncateNode,
    UploadUnit,
    WriteNode,
)
from repro.common.version import GENESIS, VersionCounter, VersionStamp

__all__ = [
    "ClientStats",
    "DeltaCFSClient",
    "ChecksumStore",
    "conflict_path",
    "RelationEntry",
    "RelationTable",
    "DeltaNode",
    "MetaNode",
    "QueueNode",
    "SyncQueue",
    "TruncateNode",
    "UploadUnit",
    "WriteNode",
    "GENESIS",
    "VersionCounter",
    "VersionStamp",
]
