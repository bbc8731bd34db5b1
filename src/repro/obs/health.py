"""SLO health reports over fleet latencies and recorded traces.

Latencies are kept exactly: :class:`ShardWindows` holds every sample of
one (shard, virtual-time window) cell in a list, beside the cell's
queue-depth peak and busy time, and :func:`quantile` / :func:`attainment`
read the sorted samples. A report is one fold of a rollup: per group,
its sorted samples give the quantiles, the attainment and the stalls
(samples over the stall horizon). Two producers fill the rollup:

- :func:`health_from_windows` reads the fleet driver's own rollup
  (``repro fleet --health``).
- :func:`health_from_trace` rebuilds a rollup from a recorded JSONL
  trace loaded by :mod:`repro.obs.analyze` (``repro inspect
  --health``). A fleet trace carries the run's record
  (``fleet.run.started``: shard count, window grid and objectives) and
  the driver's own completions (``fleet.sync.completed``), so the
  rebuilt rollup is the live one and so is the report. Any other trace
  has only ship and accept events: each ``queue.node.shipped`` is
  matched FIFO-by-path against ``server.version.accepted`` in one group,
  ``all``, judged on the default objectives.

Both return a :class:`HealthReport` whose :meth:`~HealthReport.to_dict`
document is the CI-validated schema (:func:`validate_health_doc`).
Everything here is arithmetic over caller-supplied virtual timestamps,
so fleet results stay bit-deterministic under seeded runs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

SCHEMA_VERSION = 2

# The fleet is healthy when write-weighted SLO attainment meets this and
# no write stalled.
ATTAINMENT_TARGET = 0.99
# Regression flagging: a window regresses when its p99 exceeds the
# previous comparable window's p99 by this factor; windows with fewer
# writes than this are skipped as noise.
REGRESSION_FACTOR = 1.5
MIN_WINDOW_WRITES = 8
# The default sync-latency objective and stall horizon, in virtual
# seconds: a fleet spec's unless it sets its own, and what a replay
# trace (which records none) is judged on, over windows this wide.
SLO_SECONDS = 15.0
STALL_HORIZON = 60.0
TRACE_WINDOW_SECONDS = 60.0

# What a report groups by: a shard index in a fleet run, ``"all"`` (or
# ``"unassigned"`` for stalls) in a report recovered from any other trace.
Group = Union[int, str]


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Exact linear-interpolation quantile of a pre-sorted list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def attainment(sorted_values: Sequence[float], slo_seconds: float) -> float:
    """Share of a pre-sorted list at or under ``slo_seconds``; 1.0 when empty."""
    if not sorted_values:
        return 1.0
    return bisect_right(sorted_values, slo_seconds) / len(sorted_values)


@dataclass
class WindowStats:
    """Rollup of one (shard, window) cell: its latency samples, queue-depth
    peak and busy time."""

    shard: Group
    window: int
    start: float
    end: float
    latencies: List[float] = field(default_factory=list)
    queue_peak: int = 0
    busy: float = 0.0

    @property
    def writes(self) -> int:
        return len(self.latencies)

    def to_dict(self) -> Dict[str, object]:
        """The ``fleet.window.closed`` event's attrs, in catalog order."""
        ordered = sorted(self.latencies)
        return {
            "shard": self.shard,
            "window": self.window,
            "start": self.start,
            "end": self.end,
            "writes": self.writes,
            "p50": quantile(ordered, 0.50),
            "p99": quantile(ordered, 0.99),
            "queue_peak": self.queue_peak,
            "busy": self.busy,
        }


class ShardWindows:
    """Per-shard, per-virtual-time-window telemetry rollups.

    One :class:`WindowStats` per (shard, window) cell, created lazily on
    first sample and keyed by ``floor((ts - t0) / window_seconds)``.
    Latencies are attributed to the window of their *completion*
    timestamp.
    """

    def __init__(self, n_shards: int, window_seconds: float, *, t0: float = 0.0):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.n_shards = n_shards
        self.window_seconds = window_seconds
        self.t0 = t0
        self._cells: Dict[Tuple[Group, int], WindowStats] = {}

    def _cell(self, shard: Group, ts: float) -> WindowStats:
        idx = max(0, int((ts - self.t0) // self.window_seconds))
        cell = self._cells.get((shard, idx))
        if cell is None:
            start = self.t0 + idx * self.window_seconds
            cell = self._cells[(shard, idx)] = WindowStats(
                shard, idx, start, start + self.window_seconds
            )
        return cell

    # -- recording ---------------------------------------------------------

    def record_latency(self, shard: Group, done_ts: float, latency: float) -> None:
        self._cell(shard, done_ts).latencies.append(latency)

    def record_depth(self, shard: int, ts: float, depth: int) -> None:
        cell = self._cell(shard, ts)
        if depth > cell.queue_peak:
            cell.queue_peak = depth

    def record_busy(self, shard: int, ts: float, seconds: float) -> None:
        self._cell(shard, ts).busy += seconds

    # -- reading -----------------------------------------------------------

    @property
    def cells(self) -> int:
        return len(self._cells)

    def windows(self) -> List[WindowStats]:
        """All touched cells, ordered by (shard, window)."""
        return [self._cells[k] for k in sorted(self._cells)]

    def overall_latencies(self) -> List[float]:
        """Every latency recorded, sorted — the fleet-wide distribution."""
        return sorted(v for cell in self._cells.values() for v in cell.latencies)


@dataclass
class ShardHealth:
    """Health verdict for one shard (or one trace group)."""

    shard: str
    writes: int
    p50: float
    p90: float
    p99: float
    max_latency: float
    slo_attainment: float
    stalls: int
    windows: int
    regressed_windows: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "writes": self.writes,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max_latency": self.max_latency,
            "slo_attainment": self.slo_attainment,
            "stalls": self.stalls,
            "windows": self.windows,
            "regressed_windows": list(self.regressed_windows),
        }


@dataclass
class HealthReport:
    """The full fleet/trace health document."""

    kind: str  # "fleet" | "trace"
    slo_seconds: float
    stall_horizon: float
    window_seconds: float
    shards: List[ShardHealth]

    @property
    def total_writes(self) -> int:
        return sum(s.writes for s in self.shards)

    @property
    def total_stalls(self) -> int:
        return sum(s.stalls for s in self.shards)

    @property
    def total_regressions(self) -> int:
        return sum(len(s.regressed_windows) for s in self.shards)

    @property
    def attainment(self) -> float:
        """Write-weighted overall SLO attainment."""
        writes = self.total_writes
        if writes == 0:
            return 1.0
        return sum(s.slo_attainment * s.writes for s in self.shards) / writes

    @property
    def healthy(self) -> bool:
        return self.total_stalls == 0 and self.attainment >= ATTAINMENT_TARGET

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "slo_seconds": self.slo_seconds,
            "stall_horizon": self.stall_horizon,
            "window_seconds": self.window_seconds,
            "attainment_target": ATTAINMENT_TARGET,
            "writes": self.total_writes,
            "attainment": self.attainment,
            "stalls": self.total_stalls,
            "regressions": self.total_regressions,
            "healthy": self.healthy,
            "shards": [s.to_dict() for s in self.shards],
        }


def _regressed_windows(cells: Iterable[WindowStats]) -> List[int]:
    """Window indices whose p99 jumped vs the previous comparable window."""
    flagged: List[int] = []
    prev_p99: Optional[float] = None
    for cell in cells:
        if cell.writes < MIN_WINDOW_WRITES:
            continue
        p99 = quantile(sorted(cell.latencies), 0.99)
        if prev_p99 is not None and p99 > REGRESSION_FACTOR * prev_p99:
            flagged.append(cell.window)
        prev_p99 = p99
    return flagged


def _report(
    kind: str,
    groups: Iterable[Group],
    rollup: ShardWindows,
    *,
    slo_seconds: float,
    stall_horizon: float,
) -> HealthReport:
    """One :class:`ShardHealth` per group, in ``groups`` order, over the
    rollup's cells whose ``shard`` is that group; a stall is a sample
    over ``stall_horizon``."""
    cells_of: Dict[Group, List[WindowStats]] = {g: [] for g in groups}
    for cell in rollup.windows():
        cells_of[cell.shard].append(cell)
    shards: List[ShardHealth] = []
    for group, cells in cells_of.items():
        samples = sorted(v for cell in cells for v in cell.latencies)
        shards.append(
            ShardHealth(
                shard=str(group),
                writes=len(samples),
                p50=quantile(samples, 0.50),
                p90=quantile(samples, 0.90),
                p99=quantile(samples, 0.99),
                max_latency=samples[-1] if samples else 0.0,
                slo_attainment=attainment(samples, slo_seconds),
                stalls=len(samples) - bisect_right(samples, stall_horizon),
                windows=len(cells),
                regressed_windows=_regressed_windows(cells),
            )
        )
    return HealthReport(
        kind=kind,
        slo_seconds=slo_seconds,
        stall_horizon=stall_horizon,
        window_seconds=rollup.window_seconds,
        shards=shards,
    )


def health_from_windows(
    rollup: ShardWindows, *, slo_seconds: float, stall_horizon: float
) -> HealthReport:
    """Health report from the fleet driver's rollups, one group per shard."""
    return _report(
        "fleet",
        range(rollup.n_shards),
        rollup,
        slo_seconds=slo_seconds,
        stall_horizon=stall_horizon,
    )


# Sync-queue node kinds (the ``kind`` attr of ``queue.node.shipped`` is
# the node's class name) whose ship always mints a
# ``server.version.accepted`` stamp. MetaNode is excluded: some meta ops
# (mkdir, unlink) never version, so matching them would fake stalls.
_VERSIONED_KINDS = ("WriteNode", "DeltaNode")


def health_from_trace(doc) -> HealthReport:
    """Health report recovered from a recorded trace.

    A fleet trace's ``fleet.run.started`` record rebuilds the driver's
    rollup and objectives, and its ``fleet.sync.completed`` events refill
    it: the live report, field for field. (The fleet models debounce and
    shard queueing outside the traced pipeline, so its ship and accept
    timestamps do not carry them.) A trace of several runs (``repro
    fleet --curve``) raises ``ValueError``: one report covers one run.

    Any other trace is judged on the default objectives over
    :data:`TRACE_WINDOW_SECONDS` windows. Latency is the *observable*
    ship-to-accept gap: every ``queue.node.shipped`` of a versioned kind
    opens a pending entry for its path, consumed FIFO by the next
    ``server.version.accepted`` for the same path, in group ``"all"``; a
    ship never accepted within :data:`STALL_HORIZON` of the trace's end is
    a sample of the wait it reached, in group ``"unassigned"``: a stall.
    """
    records = [
        rec for rec in getattr(doc, "records", doc) if rec.get("type") == "event"
    ]
    runs = [rec["attrs"] for rec in records if rec.get("name") == "fleet.run.started"]
    if len(runs) > 1:
        raise ValueError(
            f"the trace holds {len(runs)} fleet runs (a --curve trace?); "
            f"a health report covers one run"
        )
    if runs:
        (run,) = runs
        rollup = ShardWindows(run["shards"], run["window_seconds"], t0=run["t0"])
        for rec in records:
            if rec.get("name") == "fleet.sync.completed":
                attrs = rec["attrs"]
                rollup.record_latency(attrs["shard"], attrs["done"], attrs["latency"])
        return _report(
            "trace",
            range(rollup.n_shards),
            rollup,
            slo_seconds=run["slo_seconds"],
            stall_horizon=run["stall_horizon"],
        )

    pending: Dict[str, List[float]] = {}  # path -> ship timestamps
    rollup = ShardWindows(0, TRACE_WINDOW_SECONDS)
    last_ts = 0.0
    for rec in records:
        ts = float(rec.get("ts", 0.0))
        last_ts = max(last_ts, ts)
        name = rec.get("name")
        attrs = rec.get("attrs", {})
        if name == "queue.node.shipped":
            if attrs.get("kind") in _VERSIONED_KINDS:
                pending.setdefault(str(attrs.get("path", "")), []).append(ts)
        elif name == "server.version.accepted":
            queue = pending.get(str(attrs.get("path", "")))
            if queue:
                rollup.record_latency("all", ts, ts - queue.pop(0))
    for queue in pending.values():
        for shipped_ts in queue:
            if last_ts - shipped_ts > STALL_HORIZON:
                rollup.record_latency("unassigned", last_ts, last_ts - shipped_ts)
    return _report(
        "trace",
        sorted({cell.shard for cell in rollup.windows()}),
        rollup,
        slo_seconds=SLO_SECONDS,
        stall_horizon=STALL_HORIZON,
    )


_TOP_LEVEL_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("schema", int),
    ("kind", str),
    ("slo_seconds", (int, float)),
    ("stall_horizon", (int, float)),
    ("window_seconds", (int, float)),
    ("attainment_target", (int, float)),
    ("writes", int),
    ("attainment", (int, float)),
    ("stalls", int),
    ("regressions", int),
    ("healthy", bool),
    ("shards", list),
)

_SHARD_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("shard", str),
    ("writes", int),
    ("p50", (int, float)),
    ("p90", (int, float)),
    ("p99", (int, float)),
    ("max_latency", (int, float)),
    ("slo_attainment", (int, float)),
    ("stalls", int),
    ("windows", int),
    ("regressed_windows", list),
)


def validate_health_doc(doc: object) -> List[str]:
    """Schema check for a health-report document; empty list == valid.

    CI runs this over ``repro fleet --health-out`` / ``repro inspect
    --health-out`` artifacts so a malformed report fails the build.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["health doc is not an object"]
    for key, kind in _TOP_LEVEL_FIELDS:
        if key not in doc:
            problems.append(f"missing top-level field {key!r}")
        elif not isinstance(doc[key], kind) or isinstance(doc[key], bool) != (
            kind is bool
        ):
            problems.append(f"field {key!r} has wrong type {type(doc[key]).__name__}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA_VERSION:
        problems.append(f"unknown schema version {doc['schema']!r}")
    if doc["kind"] not in ("fleet", "trace"):
        problems.append(f"unknown kind {doc['kind']!r}")
    if not 0.0 <= doc["attainment"] <= 1.0:
        problems.append(f"attainment {doc['attainment']!r} outside [0, 1]")
    for i, shard in enumerate(doc["shards"]):
        if not isinstance(shard, dict):
            problems.append(f"shards[{i}] is not an object")
            continue
        for key, kind in _SHARD_FIELDS:
            if key not in shard:
                problems.append(f"shards[{i}] missing field {key!r}")
            elif not isinstance(shard[key], kind) or isinstance(
                shard[key], bool
            ) != (kind is bool):
                problems.append(
                    f"shards[{i}].{key} has wrong type {type(shard[key]).__name__}"
                )
        if not problems and not 0.0 <= shard["slo_attainment"] <= 1.0:
            problems.append(f"shards[{i}].slo_attainment outside [0, 1]")
    total = sum(
        s.get("stalls", 0) for s in doc["shards"] if isinstance(s, dict)
    )
    if not problems and total != doc["stalls"]:
        problems.append(
            f"stalls {doc['stalls']} != sum of shard stalls {total}"
        )
    return problems
