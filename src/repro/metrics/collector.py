"""The per-run result record every experiment produces, and the
``BENCH_<name>.json`` document its gate metrics are snapshotted into."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

# Sentinel returned by :attr:`RunResult.tue` when the trace produced no
# logical update bytes, so traffic-per-update-byte is undefined (division
# by zero). It is ``float("inf")``: any finite threshold comparison treats
# an undefined TUE as "worse than everything", and ``math.isinf`` detects
# it. Render it with :func:`repro.metrics.report.format_tue`, which prints
# "undefined" instead of "inf". Documented in docs/cost-model.md.
TUE_UNDEFINED = float("inf")


@dataclass
class RunResult:
    """Measurements from one (solution, trace) run.

    Attributes:
        solution: system name ("deltacfs", "dropbox", "seafile", "nfs",
            "fullsync").
        trace: trace name.
        client_ticks: client CPU (Table II client columns).
        server_ticks: server CPU (Table II server columns).
        up_bytes / down_bytes: network transfer (Figures 8/9).
        update_bytes: the trace's logical update size (TUE denominator).
        duration: virtual seconds the run covered.
        extra: free-form per-system counters (deltas triggered, sync
            rounds, ...).
    """

    solution: str
    trace: str
    client_ticks: float = 0.0
    server_ticks: float = 0.0
    up_bytes: int = 0
    down_bytes: int = 0
    update_bytes: int = 0
    duration: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.up_bytes + self.down_bytes

    @property
    def tue(self) -> float:
        """Traffic Usage Efficiency: total sync traffic / update size [2].

        Returns :data:`TUE_UNDEFINED` (``inf``) when ``update_bytes <= 0``
        — the ratio is undefined for a trace with no logical update.
        """
        if self.update_bytes <= 0:
            return TUE_UNDEFINED
        return self.total_bytes / self.update_bytes


BENCH_SCHEMA = 1


def bench_doc(name: str, metrics: Dict[str, float], **extra: object) -> Dict[str, object]:
    """The ``BENCH_<name>.json`` document: ``metrics`` is what
    ``tools/bench_gate.py`` compares against the baseline of the same
    shape under ``benchmarks/baselines/`` (which may add a ``tolerances``
    map); ``extra`` blocks ride along ungated."""
    return {"bench": name, "schema": BENCH_SCHEMA, "metrics": metrics, **extra}
