"""Wall-clock benchmark lane: real MB/s for the byte-level hot paths.

Everything else in ``repro.harness`` measures *modelled* cost (CPU ticks,
bytes on a simulated wire). This lane is the exception: it times the
optimized engines against the per-byte reference implementations in
:mod:`repro.chunking._reference` with ``time.perf_counter`` and reports
**measured** throughput. Two numbers come out of every lane:

- ``fast_mb_per_s`` / ``ref_mb_per_s`` — absolute throughput of the
  production engine and the pre-optimization reference. These are
  machine-dependent and **not** gated.
- ``speedup`` — their ratio. The ratio divides out the machine, so it is
  stable enough to gate: ``benchmarks/baselines/wallclock.json`` commits
  the contract floors with a ±20% band and ``tools/bench_gate.py`` fails
  CI when an edit makes an engine slower than the floor allows.

Timing protocol (docs/performance.md): each measurement runs
``repeats`` times and keeps the **median**, which shrugs off one-off
scheduler hiccups without the optimistic bias of ``min``. Inputs are
generated from :class:`repro.common.rng.DeterministicRandom` with a fixed
seed so every run times identical bytes.

This module is exempt from the DET001 determinism rule (see
``repro.check.config``): wall-clock time is its entire point, and its
outputs never feed back into simulation state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.chunking import _reference as reference
from repro.chunking._fast import all_offset_weak_checksums, block_weak_checksums
from repro.common.rng import DeterministicRandom
from repro.core._reference import next_unit
from repro.core.sync_queue import DeltaNode, SyncQueue, WriteNode
from repro.delta.format import Delta
from repro.delta.rsync import compute_delta, compute_signature
from repro.metrics.collector import bench_doc
from repro.workloads.word import _evolve

DEFAULT_INPUT_BYTES = 2 * 1024 * 1024
DEFAULT_BLOCK_SIZE = 4096
DEFAULT_REPEATS = 3
_SEED = 0xD117A


@dataclass(frozen=True)
class LaneResult:
    """One engine's measured fast-vs-reference comparison."""

    lane: str
    fast_mb_per_s: float
    ref_mb_per_s: float
    speedup: float
    input_mb: float


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds over ``repeats`` runs of ``fn``."""
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return max(times[len(times) // 2], 1e-9)


def _lane(
    name: str,
    fast: Callable[[], object],
    ref: Callable[[], object],
    nbytes: int,
    repeats: int,
) -> LaneResult:
    fast_s = _median_seconds(fast, repeats)
    ref_s = _median_seconds(ref, repeats)
    mb = nbytes / 1e6
    return LaneResult(
        lane=name,
        fast_mb_per_s=mb / fast_s,
        ref_mb_per_s=mb / ref_s,
        speedup=ref_s / fast_s,
        input_mb=mb,
    )


def _edit_every_block(
    base: bytes, block_size: int, rng: DeterministicRandom
) -> bytes:
    """The scan's worst case: a 40-byte splice in every block.

    No block of the base survives, so the encoder computes a weak checksum
    at every offset and confirms nothing — this is the shape that exercises
    the rolling scan end to end, and the one the ``delta_encode/bitwise``
    and ``delta_encode/remote`` floors pin. It is *not* what the paper's
    Word trace looks like; :func:`_save_like` is.
    """
    target = bytearray(base)
    for block_start in range(0, len(base) - block_size, block_size):
        off = block_start + min(100, block_size - 40)
        target[off : off + 40] = rng.random_bytes(40)
    return bytes(target)


def _save_like(base: bytes, block_size: int, rng: DeterministicRandom) -> bytes:
    """A document-save target: the Word trace's own editing step.

    One insertion in the latter half, four in-place replacements and tail
    growth, sized against the block as ``word_trace(scale=8)`` sizes them
    against 4 KB blocks (2 KB, 4 x 1.5 KB, ~9 KB) — so ~99 % of the blocks
    continue the previous block's match and the encoder's cost is set by
    the handful of dirty neighbourhoods, not by the file.
    """
    target, _ = _evolve(
        base,
        rng,
        insert_size=block_size // 2,
        replace_count=4,
        replace_size=3 * block_size // 8,
        growth=9 * block_size // 4,
    )
    return target


def _build_drain_queue(groups: int, payload: bytes) -> SyncQueue:
    """A queue shaped like the client's steady state: spans included.

    Each group enqueues seven write nodes and then delta-replaces the
    last one, leaving a backindex span — the structure that made the old
    per-node ``next_unit`` loop quadratic (every span unit re-scanned and
    rebuilt the whole node list).
    """
    queue = SyncQueue(upload_delay=0.0)
    for g in range(groups):
        victim: WriteNode | None = None
        for i in range(7):
            node = WriteNode(path=f"/bench/g{g}-f{i}")
            queue.enqueue(node, now=0.0)
            node.add_write(0, payload)
            victim = node
        assert victim is not None
        queue.replace_with_delta(
            [victim], DeltaNode(path=victim.path, delta=Delta()), now=0.0
        )
    return queue


def _drain_reference(queue: SyncQueue, now: float) -> int:
    """The per-node reference path: one ``next_unit`` per shipped node."""
    shipped = 0
    while next_unit(queue, now) is not None:
        shipped += 1
    return shipped


def run_wallclock(
    *,
    input_bytes: int = DEFAULT_INPUT_BYTES,
    block_size: int = DEFAULT_BLOCK_SIZE,
    repeats: int = DEFAULT_REPEATS,
) -> List[LaneResult]:
    """Time every engine lane; returns one :class:`LaneResult` per lane."""
    rng = DeterministicRandom(_SEED)
    base = rng.random_bytes(input_bytes)
    target = _edit_every_block(base, block_size, rng)

    lanes = [
        _lane(
            "rolling_scan",
            lambda: all_offset_weak_checksums(target, block_size),
            lambda: reference.all_offset_weak_checksums_ref(target, block_size),
            input_bytes,
            repeats,
        ),
        _lane(
            "checksum_sweep",
            lambda: block_weak_checksums(base, block_size),
            lambda: reference.checksum_sweep_ref(base, block_size),
            input_bytes,
            repeats,
        ),
    ]

    remote_sig = compute_signature(base, block_size, with_strong=True)
    lanes.append(
        _lane(
            "delta_encode/remote",
            lambda: compute_delta(remote_sig, target),
            lambda: reference.compute_delta_ref(remote_sig, target),
            input_bytes,
            repeats,
        )
    )
    bitwise_sig = compute_signature(base, block_size, with_strong=False)
    lanes.append(
        _lane(
            "delta_encode/bitwise",
            lambda: compute_delta(bitwise_sig, target, base=base),
            lambda: reference.compute_delta_ref(bitwise_sig, target, base=base),
            input_bytes,
            repeats,
        )
    )

    save_target = _save_like(base, block_size, rng.fork("save"))
    lanes.append(
        _lane(
            "delta_encode/bitwise_save",
            lambda: compute_delta(bitwise_sig, save_target, base=base),
            lambda: reference.compute_delta_ref(
                bitwise_sig, save_target, base=base
            ),
            input_bytes,
            repeats,
        )
    )

    # Queue drain: same nodes, batched drain_due sweep vs the retained
    # per-node reference next_unit loop (which rebuilds the node list per
    # ship).
    # Queues are prebuilt — one per timed repeat — so only the drain
    # itself sits inside the measurement.
    node_payload = rng.random_bytes(1024)
    groups = max(2, input_bytes // (16 * len(node_payload)))
    fast_queues = [
        _build_drain_queue(groups, node_payload) for _ in range(repeats)
    ]
    ref_queues = [
        _build_drain_queue(groups, node_payload) for _ in range(repeats)
    ]
    queue_bytes = fast_queues[0].queued_bytes()
    lanes.append(
        _lane(
            "queue_drain",
            lambda: fast_queues.pop().drain_due(1e9),
            lambda: _drain_reference(ref_queues.pop(), 1e9),
            queue_bytes,
            repeats,
        )
    )
    return lanes


def wallclock_snapshot(
    *,
    input_bytes: int = DEFAULT_INPUT_BYTES,
    block_size: int = DEFAULT_BLOCK_SIZE,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, object]:
    """The ``BENCH_wallclock.json`` document for ``tools/bench_gate.py``.

    Only the machine-normalized ``<lane>/speedup`` ratios land in
    ``metrics`` (the gated surface); absolute MB/s and the input
    parameters ride along in ``context`` for humans and the docs.
    """
    lanes = run_wallclock(
        input_bytes=input_bytes, block_size=block_size, repeats=repeats
    )
    metrics = {f"{r.lane}/speedup": round(r.speedup, 2) for r in lanes}
    context: Dict[str, object] = {
        "input_mb": round(input_bytes / 1e6, 3),
        "block_size": block_size,
        "repeats": repeats,
        "lanes": {
            r.lane: {
                "fast_mb_per_s": round(r.fast_mb_per_s, 2),
                "ref_mb_per_s": round(r.ref_mb_per_s, 3),
                "input_mb": round(r.input_mb, 3),
            }
            for r in lanes
        },
    }
    return bench_doc("wallclock", metrics, context=context)
