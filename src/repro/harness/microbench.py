"""Local read/write performance model (paper Table III, Section IV-D).

The paper measures filebench throughput on four stacks: native ext4,
loopback FUSE, DeltaCFS, and DeltaCFS with checksums. We cannot measure
real disks, so we combine:

- a **disk/latency model** with explicit parameters (write bandwidth,
  cached-read cost, per-op costs, fsync commit cost);
- the **real DeltaCFS client** executing the op stream (never pumped, so
  nothing is uploaded — the paper does the same: "we drop the data
  dequeued from Sync Queue"), so the sync engine's data structures
  actually run.

Stack effects reproduced (and where their parameters come from):

- **FUSE** adds a user/kernel round trip per op, but its kernel module's
  cache and prefetch *help* read-heavy workloads — Table III shows FUSE
  beating native on Varmail and Webserver, and the paper notes FUSE's 2×
  request latency is hidden by multithreaded IO on Fileserver.
- **DeltaCFS** processes every written byte (hash-table lookup, node
  append, enqueue memcpy) and must pack write nodes on fsync; under
  sustained writes the Sync Queue fills and back-pressure throttles the
  writer ("Sync Queue becomes full very quickly" — Fileserver, Varmail).
- **DeltaCFSc** adds rolling-checksum computation on the write path;
  "this latency is not a problem for Varmail and Webserver, since it is
  very small compared to disk seek latency" — it only shows where raw
  bandwidth dominates (Fileserver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.config import DeltaCFSConfig
from repro.core.client import DeltaCFSClient
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem
from repro.workloads.filebench import FilebenchOp

STACKS = ("native", "fuse", "deltacfs", "deltacfsc")


@dataclass(frozen=True)
class LatencyModel:
    """Explicit timing parameters (seconds and bytes/second)."""

    # base disk model
    write_bandwidth: float = 125e6  # sequential write to disk
    read_bandwidth: float = 350e6  # page-cache read streaming
    read_op_cost: float = 0.00078  # open+stat+read+close round trip
    write_op_cost: float = 0.00004
    fsync_cost: float = 0.0023  # journal commit + seek
    create_cost: float = 0.0004
    delete_cost: float = 0.0003
    # FUSE layer
    fuse_write_op_cost: float = 0.00002  # extra round trip (hidden by MT IO)
    fuse_read_factor: float = 0.94  # kernel-module cache + prefetch benefit
    fuse_fsync_factor: float = 0.78  # writeback batching of the commit
    # DeltaCFS layer
    sync_process_bandwidth: float = 110e6  # per-written-byte engine work
    pack_on_fsync_cost: float = 0.0011  # pack node + commit queue state
    drain_bandwidth: float = 50e6  # background upload drain
    queue_stall_bytes: int = 48 * 1024 * 1024  # back-pressure threshold
    # checksum store (DeltaCFSc)
    checksum_write_bandwidth: float = 280e6  # rolling checksum on writes
    checksum_read_bandwidth: float = 2.0e9  # verify on cached reads


@dataclass
class MicrobenchResult:
    """Throughput of one (workload, stack) combination.

    ``input_mb`` (MiB moved) and ``block_size`` (the sync engine's rsync
    block, 0 for stacks without one) ride along so a serialized result is
    self-describing: MB/s stays recoverable as ``input_mb / seconds``
    without re-deriving the workload, and the same row shape serves both
    the modelled lane and the wall-clock lane's context section.
    """

    workload: str
    stack: str
    mb_per_s: float
    bytes_moved: int
    seconds: float
    stalls: int = 0
    block_size: int = 0
    input_mb: float = 0.0


def run_microbench(
    workload: str,
    ops: List[FilebenchOp],
    stack: str,
    *,
    model: LatencyModel | None = None,
) -> MicrobenchResult:
    """Execute ``ops`` on ``stack`` and return modelled throughput."""
    if stack not in STACKS:
        raise ValueError(f"unknown stack {stack!r}; pick one of {STACKS}")
    model = model if model is not None else LatencyModel()

    fs = MemoryFileSystem()
    for directory in ("/fset", "/mail", "/htdocs"):
        fs.mkdir(directory)
    block_size = 0
    if stack in ("deltacfs", "deltacfsc"):
        config = DeltaCFSConfig(
            enable_checksums=(stack == "deltacfsc"),
            enable_undo_log=False,  # microbench writes are appends
        )
        block_size = config.block_size
        # Never pumped: the server only takes the registration.
        surface: object = DeltaCFSClient(fs, server=CloudServer(), config=config)
    else:
        surface = fs

    is_fuse_stack = stack != "native"
    is_delta_stack = stack in ("deltacfs", "deltacfsc")
    with_checksums = stack == "deltacfsc"

    sizes: Dict[str, int] = {}
    total_time = 0.0
    bytes_moved = 0
    queued = 0.0
    stalls = 0

    for op in ops:
        dt = 0.0
        if op.kind == "create":
            surface.create(op.path)
            sizes[op.path] = 0
            dt += model.create_cost
        elif op.kind in ("write", "append"):
            offset = sizes.get(op.path, 0) if op.kind == "append" else op.offset
            data = b"\xa5" * op.size
            surface.write(op.path, offset, data)
            sizes[op.path] = max(sizes.get(op.path, 0), offset + op.size)
            bytes_moved += op.size
            dt += model.write_op_cost + op.size / model.write_bandwidth
            if is_fuse_stack:
                dt += model.fuse_write_op_cost
            if is_delta_stack:
                dt += op.size / model.sync_process_bandwidth
                queued += op.size
            if with_checksums:
                dt += op.size / model.checksum_write_bandwidth
        elif op.kind == "read":
            size = sizes.get(op.path, 0)
            if size:
                surface.read(op.path, 0, size)
                bytes_moved += size
                read_time = model.read_op_cost + size / model.read_bandwidth
                if is_fuse_stack:
                    read_time *= model.fuse_read_factor
                dt += read_time
                if with_checksums:
                    dt += size / model.checksum_read_bandwidth
        elif op.kind == "delete":
            if surface.exists(op.path):
                surface.unlink(op.path)
            sizes.pop(op.path, None)
            dt += model.delete_cost
        elif op.kind == "fsync":
            commit = model.fsync_cost
            if is_fuse_stack:
                commit *= model.fuse_fsync_factor
            if is_delta_stack:
                commit += model.pack_on_fsync_cost
            dt += commit
        elif op.kind == "close":
            surface.close(op.path)
        elif op.kind == "open":
            pass
        else:
            raise ValueError(f"unknown filebench op kind {op.kind!r}")

        # background drain + back-pressure for the DeltaCFS stacks
        if is_delta_stack:
            queued = max(0.0, queued - dt * model.drain_bandwidth)
            if queued > model.queue_stall_bytes:
                stall = (queued - model.queue_stall_bytes) / model.drain_bandwidth
                dt += stall
                queued = float(model.queue_stall_bytes)
                stalls += 1
        total_time += dt

    input_mb = bytes_moved / (1024 * 1024)
    mbps = input_mb / total_time if total_time > 0 else 0.0
    return MicrobenchResult(
        workload=workload,
        stack=stack,
        mb_per_s=mbps,
        bytes_moved=bytes_moved,
        seconds=total_time,
        stalls=stalls,
        block_size=block_size,
        input_mb=input_mb,
    )


def microbench_metrics(results: List[MicrobenchResult]) -> Dict[str, float]:
    """Table III's gate metrics, keyed ``workload/stack/metric``.

    The latency model is deterministic, so the baseline can be exact:
    every metric (modelled MB/s, modelled seconds, input MiB, block size)
    gates at the default tolerance.
    """
    metrics: Dict[str, float] = {}
    for r in results:
        prefix = f"{r.workload}/{r.stack}"
        if f"{prefix}/mb_per_s" in metrics:
            raise ValueError(f"duplicate microbench row {prefix!r}")
        metrics[f"{prefix}/mb_per_s"] = round(r.mb_per_s, 4)
        metrics[f"{prefix}/seconds"] = round(r.seconds, 6)
        metrics[f"{prefix}/input_mb"] = round(r.input_mb, 4)
        metrics[f"{prefix}/block_size"] = float(r.block_size)
    return metrics
