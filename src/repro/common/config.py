"""Central configuration for DeltaCFS clients and servers.

The settings callers vary live here with the paper's defaults:

- rsync block size 4 KB (Section II-B footnote 3, Section III-E)
- relation-table entry timeout 1-3 s, default 2 s (Table I)
- sync-queue upload delay 3 s (Figure 6 caption)

Values the paper fixes are constants in the module that uses them: the
in-place delta threshold (``repro.core.client``), the checksum block
(``repro.core.checksum_store``) and the coalescing clamp
(``repro.core.sync_queue``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

#: The mechanism-selection policy names — the one list; ``repro.core.policy``
#: asserts at import that its class table has exactly these keys.
SYNC_POLICIES = ("static", "cost-model", "always-rpc", "always-delta")

#: Where the client preserves unlinked files (inside the tree, never synced).
TMP_DIR = "/.deltacfs_tmp"


@dataclass
class DeltaCFSConfig:
    """Tunable parameters of a DeltaCFS client.

    Attributes:
        block_size: rsync block size in bytes for delta encoding (paper:
            4 KB). The checksum store keeps its own 4 KB block.
        relation_timeout: seconds before an untriggered relation entry
            expires (paper: "empirically set in a range of 1 to 3 seconds").
        upload_delay: seconds a Sync Queue node waits before uploading,
            allowing coalescing and delta replacement (paper Fig. 6: 3 s).
        enable_checksums: maintain the block checksum store (DeltaCFSc in
            Table III); disable to reproduce the plain DeltaCFS row.
        enable_undo_log: the paper's undo log: a write node keeps the file's
            pre-update version (a reference, not a copy) for the in-place
            delta; the model still charges the copy-out (``write_io``).
        delta_backend: registered :mod:`repro.delta.backends` encoder used
            when a triggered delta is encoded (``bitwise`` | ``rsync`` |
            ``cdc-shingle``; default is the paper's bitwise local engine).
        sync_policy: mechanism-selection policy (see
            :mod:`repro.core.policy`): ``static`` reproduces the paper's
            hard-coded trigger bit-for-bit; ``cost-model`` learns per path
            whether encoding is worth it; ``always-rpc`` / ``always-delta``
            are the sweep's bounding policies.

    Table III's fileserver slowdown ("Sync Queue becomes full") is modelled
    by ``LatencyModel.queue_stall_bytes`` in :mod:`repro.harness.microbench`,
    not by a bounded queue here.
    """

    block_size: int = 4096
    relation_timeout: float = 2.0
    upload_delay: float = 3.0
    tmp_dir: ClassVar[str] = TMP_DIR  # read-only: not a setting
    enable_checksums: bool = True
    enable_undo_log: bool = True
    delta_backend: str = "bitwise"
    sync_policy: str = "static"

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical settings."""
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.relation_timeout <= 0:
            raise ValueError("relation_timeout must be positive")
        if self.upload_delay < 0:
            raise ValueError("upload_delay must be non-negative")
        if not self.delta_backend:
            raise ValueError("delta_backend must name a registered backend")
        # Policy names are validated here (cheap, no imports); the backend
        # name resolves against the registry when the client builds it.
        if self.sync_policy not in SYNC_POLICIES:
            raise ValueError(
                f"sync_policy must be one of {SYNC_POLICIES}, "
                f"not {self.sync_policy!r}"
            )
