"""Trace container and replay driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.clock import VirtualClock
from repro.vfs.filesystem import FileSystemAPI
from repro.vfs.ops import FileOp


@dataclass
class TraceStats:
    """Logical characteristics of a trace (for TUE and sanity checks)."""

    op_count: int = 0
    bytes_written: int = 0
    update_bytes: int = 0  # logical new data (the TUE denominator)


@dataclass
class Trace:
    """A replayable operation stream.

    Attributes:
        name: identifier used in benchmark output.
        ops: timestamped operations, in order.
        preload: files that exist (and are already synced) before the trace
            starts — their upload is *not* part of the measured run, mirroring
            the paper's setup where the sync folder is seeded first.
        stats: logical update statistics.
    """

    name: str
    ops: List[FileOp] = field(default_factory=list)
    preload: Dict[str, bytes] = field(default_factory=dict)
    stats: TraceStats = field(default_factory=TraceStats)

    @property
    def duration(self) -> float:
        return self.ops[-1].timestamp if self.ops else 0.0


def apply_op(fs: FileSystemAPI, op: FileOp) -> None:
    """Apply one trace operation to a file system layer (``op.apply(fs)``)."""
    apply = getattr(op, "apply", None)
    if apply is None:
        raise TypeError(f"cannot replay {type(op).__name__}")
    apply(fs)


def replay(
    trace: Trace,
    fs: FileSystemAPI,
    clock: VirtualClock,
    *,
    pump: Optional[Callable[[float], object]] = None,
    pump_interval: float = 1.0,
) -> None:
    """Replay a trace against a file system layer under virtual time.

    ``pump`` (the sync engine's background work) is invoked at
    ``pump_interval`` ticks while the clock advances between operations —
    exactly how the prototype's upload threads interleave with application
    IO.
    """
    for op in trace.ops:
        while op.timestamp > clock.now():
            step = min(pump_interval, op.timestamp - clock.now())
            clock.advance(step)
            if pump is not None:
                pump(clock.now())
        op.apply(fs)
    if pump is not None:
        pump(clock.now())
