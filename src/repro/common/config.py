"""Central configuration for DeltaCFS clients and servers.

All tunables from the paper live here with the paper's defaults:

- rsync block size 4 KB (Section II-B footnote 3, Section III-E)
- relation-table entry timeout 1-3 s, default 2 s (Table I)
- sync-queue upload delay 3 s (Figure 6 caption)
- in-place delta-compression threshold ~50% of file changed (Section III-A)
- checksum block size 4 KB, reusing the rsync rolling checksum (Section III-E)
"""

from __future__ import annotations

from dataclasses import dataclass

#: The mechanism-selection policy names — the one list; ``repro.core.policy``
#: asserts at import that its class table has exactly these keys.
SYNC_POLICIES = ("static", "cost-model", "always-rpc", "always-delta")


@dataclass
class DeltaCFSConfig:
    """Tunable parameters of a DeltaCFS client.

    Attributes:
        block_size: rsync / checksum block size in bytes (paper: 4 KB).
        relation_timeout: seconds before an untriggered relation entry
            expires (paper: "empirically set in a range of 1 to 3 seconds").
        upload_delay: seconds a Sync Queue node waits before uploading,
            allowing coalescing and delta replacement (paper Fig. 6: 3 s).
        max_coalesce_delay: hard cap on one node's total coalescing window.
            The upload delay debounces from the *last* write, so a
            continuously-written hot file would otherwise hold the queue
            head (and every file behind it) forever. ``None`` means 4x the
            upload delay.
        inplace_delta_threshold: fraction of a file that in-place writes (or
            a truncate's cut) must rewrite before local delta encoding runs
            against the write node's old version (paper: "more than 50%").
        tmp_dir: directory (inside the managed tree) where unlinked files are
            preserved while their relation entry is live.
        checksum_block_size: block size of the integrity checksum store.
        enable_checksums: maintain the block checksum store (DeltaCFSc in
            Table III); disable to reproduce the plain DeltaCFS row.
        enable_undo_log: the paper's undo log: a write node keeps the file's
            pre-update version (a reference, not a copy) for the in-place
            delta; the model still charges the copy-out (``write_io``).
        sync_queue_capacity: maximum queued nodes before writers experience
            back-pressure (reproduces the Table III fileserver slowdown).
        preserve_unlinked_max_bytes: files larger than this are not preserved
            on unlink (the paper's ENOSPC escape hatch, expressed as a cap).
        delta_backend: registered :mod:`repro.delta.backends` encoder used
            when a triggered delta is encoded (``bitwise`` | ``rsync`` |
            ``cdc-shingle``; default is the paper's bitwise local engine).
        sync_policy: mechanism-selection policy (see
            :mod:`repro.core.policy`): ``static`` reproduces the paper's
            hard-coded trigger bit-for-bit; ``cost-model`` learns per path
            whether encoding is worth it; ``always-rpc`` / ``always-delta``
            are the sweep's bounding policies.
        policy_cpu_byte_rate: byte-equivalents the cost-model policy
            charges per estimated CPU tick when scoring an encode (0
            scores bytes only).
    """

    block_size: int = 4096
    relation_timeout: float = 2.0
    upload_delay: float = 3.0
    max_coalesce_delay: float | None = None
    inplace_delta_threshold: float = 0.5
    tmp_dir: str = "/.deltacfs_tmp"
    checksum_block_size: int = 4096
    enable_checksums: bool = True
    enable_undo_log: bool = True
    sync_queue_capacity: int = 4096
    preserve_unlinked_max_bytes: int = 1 << 30
    delta_backend: str = "bitwise"
    sync_policy: str = "static"
    policy_cpu_byte_rate: float = 1024.0

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical settings."""
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.checksum_block_size <= 0:
            raise ValueError("checksum_block_size must be positive")
        if not (0.0 < self.inplace_delta_threshold <= 1.0):
            raise ValueError("inplace_delta_threshold must be in (0, 1]")
        if self.relation_timeout <= 0:
            raise ValueError("relation_timeout must be positive")
        if self.upload_delay < 0:
            raise ValueError("upload_delay must be non-negative")
        if self.max_coalesce_delay is not None and (
            self.max_coalesce_delay < self.upload_delay
        ):
            raise ValueError("max_coalesce_delay must be >= upload_delay")
        if self.sync_queue_capacity <= 0:
            raise ValueError("sync_queue_capacity must be positive")
        if not self.delta_backend:
            raise ValueError("delta_backend must name a registered backend")
        # Policy names are validated here (cheap, no imports); the backend
        # name resolves against the registry when the client builds it.
        if self.sync_policy not in SYNC_POLICIES:
            raise ValueError(
                f"sync_policy must be one of {SYNC_POLICIES}, "
                f"not {self.sync_policy!r}"
            )
        if self.policy_cpu_byte_rate < 0:
            raise ValueError("policy_cpu_byte_rate must be non-negative")
