"""Offline trace analysis: span trees, time rollups, byte attribution.

This module is the read side of the telemetry contract: it takes a JSONL
trace written by :meth:`repro.obs.tracer.Tracer.write_jsonl` (or the
streaming sink) and answers the questions the recording side cannot —
where the virtual time went, and where every uplink byte went.

Three layers:

- :func:`load_trace` / :func:`load_trace_lines` — parse the JSONL back
  into records, rebuild the span tree (:class:`Span`), and pick up the
  optional trailing ``{"type": "snapshot"}`` metrics record the CLI
  appends.
- :func:`span_rollup` / :func:`critical_path` — per-span self/total
  virtual time, per-name aggregates, and the longest span chain of the
  replay.
- :func:`attribute_uplink` — the cost-attribution report: every
  ``channel.upload`` byte is assigned to a ``(path, mechanism)`` pair by
  joining the channel events against ``queue.node.shipped`` /
  ``client.upload_unit`` / ``transport.send`` records, and the total is
  reconciled **exactly** against the run's ``channel.up.bytes`` counters
  (drift raises :class:`AttributionError` — the report doubles as a
  consistency check on the instrumentation).

Mechanisms (the DeltaCFS §III decision space, plus the overheads the
fault-tolerant transport and crash recovery introduce):

- ``rpc`` — raw content uploads: the NFS-like file RPC path
  (``UploadWrite``/``UploadWriteBatch``), full-file uploads, truncates,
  and baseline chunk payloads;
- ``delta`` — ``UploadDelta`` messages (the paper's win);
- ``txn_group`` — backindex spans shipped as one ``TxnGroup``,
  apportioned to member paths by member wire size;
- ``metadata`` — ``MetaOp`` and protocol negotiation messages;
- ``recovery`` — post-crash resync and ranged-repair requests;
- ``retransmit_overhead`` — bytes a lossy link made the client spend
  again: envelope retransmissions (attempt > 1) and fault-plan duplicate
  copies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.registry import parse_series_name

#: message class -> attribution mechanism for first-copy, first-attempt bytes.
MECHANISM_BY_TYPE: Dict[str, str] = {
    "UploadFull": "rpc",
    "UploadWrite": "rpc",
    "UploadWriteBatch": "rpc",
    "UploadTruncate": "rpc",
    "ChunkData": "rpc",
    "UploadDelta": "delta",
    "TxnGroup": "txn_group",
    "MetaOp": "metadata",
    "SignatureMessage": "metadata",
    "ChunkHave": "metadata",
    "HistoryRequest": "metadata",
    "RestoreRequest": "metadata",
    "Ack": "metadata",
    "ResyncRequest": "recovery",
    "RangeRequest": "recovery",
    "RangeReply": "recovery",
    "FileDownload": "rpc",
}

MECHANISMS: Tuple[str, ...] = (
    "rpc",
    "delta",
    "txn_group",
    "metadata",
    "recovery",
    "retransmit_overhead",
)


class TraceFormatError(ValueError):
    """A JSONL line (or the record stream) violates the documented schema."""


class AttributionError(ValueError):
    """The attribution total drifted from the recorded byte counters."""


@dataclass
class Span:
    """One rebuilt span: timing, attrs, children, and attached events."""

    id: int
    name: str
    parent: Optional[int]
    start: float
    attrs: Dict[str, object] = field(default_factory=dict)
    end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    truncated: bool = False  # span_start without span_end (e.g. a crash cut)
    orphan: bool = False  # parent never started (a partial file)

    @property
    def duration(self) -> float:
        """Total virtual time, start to end (0.0 for an unclosed span)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_time(self) -> float:
        """Virtual time not covered by child spans (clamped at zero)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))


@dataclass
class TraceDoc:
    """A loaded trace: raw records plus the rebuilt structures."""

    records: List[dict]
    roots: List[Span] = field(default_factory=list)
    spans: Dict[int, Span] = field(default_factory=dict)
    snapshot: Optional[Dict[str, object]] = None  # the (last) snapshot record

    def point_events(self) -> List[dict]:
        """Raw point-event records, in emission order."""
        return [r for r in self.records if r.get("type") == "event"]

    def find_spans(self, name: str) -> List[Span]:
        """All spans with ``name``, in start order."""
        return [s for s in sorted(self.spans.values(), key=lambda s: s.id)
                if s.name == name]

    def ancestors(self, span_id: Optional[int]) -> Iterable[Span]:
        """The span with ``span_id`` and every enclosing span, inside out."""
        while span_id is not None:
            span = self.spans.get(span_id)
            if span is None:
                return
            yield span
            span_id = span.parent

    def in_span_named(self, parent_id: Optional[int], name: str) -> bool:
        """True when any enclosing span (from ``parent_id`` up) is ``name``."""
        return any(s.name == name for s in self.ancestors(parent_id))

    def enclosing(self, parent_id: Optional[int], name: str) -> Optional[Span]:
        """The innermost enclosing span named ``name``, or ``None``."""
        for span in self.ancestors(parent_id):
            if span.name == name:
                return span
        return None


_SPAN_RECORDS = ("span_start", "span_end")
_RECORD_TYPES = _SPAN_RECORDS + ("event", "snapshot")
#: JSONL key -> (JSON type it holds, in words, record types that require it).
_RECORD_KEYS: Dict[str, Tuple[object, str, Tuple[str, ...]]] = {
    "name": (str, "a string", _SPAN_RECORDS + ("event",)),
    "id": (int, "an integer", _SPAN_RECORDS),
    "parent": ((int, type(None)), "an integer or null", ()),
    "ts": ((int, float), "a number", ()),
    "attrs": (dict, "an object", ()),
    "metrics": (dict, "an object", ()),
}


def _holds(value: object, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _schema_problem(record: object) -> Optional[str]:
    """Why ``record`` is not a documented JSONL record (``None``: it is)."""
    if not isinstance(record, dict) or "type" not in record:
        return "record without a type"
    if record["type"] not in _RECORD_TYPES:
        return f"unknown record type {record['type']!r}"
    for key, (types, words, required_in) in _RECORD_KEYS.items():
        if key not in record:
            if record["type"] in required_in:
                return f"{record['type']} record without {key!r}"
        elif not _holds(record[key], types):
            return f"{key!r} must be {words}, not {record[key]!r}"
    if not all(_holds(v, (int, float)) for v in record.get("metrics", {}).values()):
        return "'metrics' values must be numbers"
    return None


def load_trace_lines(lines: Iterable[str]) -> TraceDoc:
    """Parse JSONL lines into a :class:`TraceDoc` (see :func:`load_trace`).

    Every line is schema-checked first, so the tree build below can trust
    the keys and types it is handed. Span ids are the tracer's own: one
    tracer numbers its spans uniquely, and the tree is its nesting.

    A span whose parent never started (a partial file) becomes a root
    flagged ``orphan`` instead of failing the load. A ``span_end`` for a
    span that never started is a format error.
    """
    records: List[dict] = []
    snapshot: Optional[Dict[str, object]] = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: not JSON ({exc})") from exc
        problem = _schema_problem(record)
        if problem is not None:
            raise TraceFormatError(f"line {lineno}: {problem}")
        if record["type"] == "snapshot":
            snapshot = record
        else:
            records.append(record)
    doc = TraceDoc(records=records, snapshot=snapshot)
    last_ts = 0.0
    for record in records:
        ts = float(record.get("ts", 0.0))
        last_ts = max(last_ts, ts)
        kind = record["type"]
        if kind == "span_start":
            span_id = record["id"]
            if span_id in doc.spans:
                raise TraceFormatError(f"span id {span_id} started twice")
            parent_id = record.get("parent")
            parent = doc.spans.get(parent_id) if parent_id is not None else None
            span = Span(
                id=span_id,
                name=record["name"],
                parent=parent_id if parent is not None else None,
                start=ts,
                attrs=dict(record.get("attrs", {})),
                orphan=parent is None and parent_id is not None,
            )
            doc.spans[span_id] = span
            (parent.children if parent is not None else doc.roots).append(span)
        elif kind == "span_end":
            span = doc.spans.get(record["id"])
            if span is None:
                raise TraceFormatError(
                    f"span_end for unknown span id {record['id']!r}"
                )
            span.end = ts
        else:  # point event
            owner = doc.spans.get(record.get("parent"))
            if owner is not None:
                owner.events.append(record)
    # A crash (or a truncated file) can leave spans open: close them at the
    # last observed timestamp and mark them, so timing math stays total.
    for span in doc.spans.values():
        if span.end is None:
            span.end = max(last_ts, span.start)
            span.truncated = True
    return doc


def load_trace(path: str) -> TraceDoc:
    """Load a JSONL trace file and rebuild its span tree."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_trace_lines(fh)


# ---------------------------------------------------------------------------
# time rollups
# ---------------------------------------------------------------------------


@dataclass
class RollupRow:
    """Aggregate timing for one span name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    truncated: int = 0


def span_rollup(doc: TraceDoc) -> List[RollupRow]:
    """Per-name span aggregates, sorted by total time descending."""
    rows: Dict[str, RollupRow] = {}
    for span in doc.spans.values():
        row = rows.setdefault(span.name, RollupRow(name=span.name))
        row.count += 1
        row.total += span.duration
        row.self_time += span.self_time
        row.truncated += 1 if span.truncated else 0
    return sorted(rows.values(), key=lambda r: (-r.total, r.name))


def critical_path(doc: TraceDoc) -> List[Span]:
    """The longest-duration chain of spans, root to leaf.

    Starts at the longest root span (ties broken by id, i.e. start order)
    and repeatedly descends into the longest child. In a virtual-time
    replay this is the chain of phases that actually bounded the run —
    the place a perf PR has to attack first.
    """
    if not doc.roots:
        return []
    path: List[Span] = []
    node = max(doc.roots, key=lambda s: (s.duration, -s.id))
    while node is not None:
        path.append(node)
        node = max(node.children, key=lambda s: (s.duration, -s.id), default=None)
    return path


def event_counts(doc: TraceDoc) -> List[Tuple[str, int]]:
    """Point-event counts by name, most frequent first."""
    counts: Dict[str, int] = {}
    for record in doc.point_events():
        counts[record["name"]] = counts.get(record["name"], 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


# ---------------------------------------------------------------------------
# cost attribution
# ---------------------------------------------------------------------------


@dataclass
class AttributionRow:
    """Bytes one (path, mechanism) pair spent on the uplink."""

    path: str
    mechanism: str
    bytes: int = 0
    messages: int = 0


@dataclass
class Attribution:
    """The full uplink cost-attribution report for one trace."""

    rows: List[AttributionRow]
    total_bytes: int
    channel_up_bytes: int  # sum of the measured-window channel.upload events
    preload_bytes: int  # uplink bytes excluded as run.preload traffic
    snapshot_up_bytes: Optional[int] = None  # from the metrics snapshot record

    def by_mechanism(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for row in self.rows:
            out[row.mechanism] = out.get(row.mechanism, 0) + row.bytes
        return out

    def by_path(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for row in self.rows:
            out[row.path] = out.get(row.path, 0) + row.bytes
        return out

    def reconcile(self, expected_up_bytes: Optional[int] = None) -> None:
        """Assert every uplink byte was attributed exactly once.

        Checks the attribution total against the trace's own
        ``channel.upload`` events, against the embedded metrics snapshot
        (when present), and against ``expected_up_bytes`` (e.g.
        ``RunResult.up_bytes``) when the caller has one. Any drift raises
        :class:`AttributionError` — by construction this means the
        instrumentation contract itself broke, not just the report.
        """
        problems: List[str] = []
        if self.total_bytes != self.channel_up_bytes:
            problems.append(
                f"attributed {self.total_bytes} B but the measured-window "
                f"channel.upload events carry {self.channel_up_bytes} B"
            )
        if (
            self.snapshot_up_bytes is not None
            and self.total_bytes != self.snapshot_up_bytes
        ):
            problems.append(
                f"attributed {self.total_bytes} B but the metrics snapshot's "
                f"channel.up.bytes total is {self.snapshot_up_bytes} B"
            )
        if expected_up_bytes is not None and self.total_bytes != expected_up_bytes:
            problems.append(
                f"attributed {self.total_bytes} B but the run reported "
                f"up_bytes={expected_up_bytes}"
            )
        if problems:
            raise AttributionError("; ".join(problems))


def _apportion(total: int, weights: List[int]) -> List[int]:
    """Split ``total`` by ``weights`` into integers that sum exactly.

    Largest-remainder method with deterministic ties (earlier index wins),
    so repeated analyses of one trace agree byte for byte.
    """
    if not weights:
        return []
    weight_sum = sum(weights)
    if weight_sum <= 0:
        shares = [total // len(weights)] * len(weights)
        shares[0] += total - sum(shares)
        return shares
    shares = [total * w // weight_sum for w in weights]
    remainders = [
        (total * w % weight_sum, -i) for i, w in enumerate(weights)
    ]
    leftover = total - sum(shares)
    for _, neg_i in sorted(remainders, reverse=True)[:leftover]:
        shares[-neg_i] += 1
    return shares


def _snapshot_up_bytes(snapshot: Optional[Dict[str, object]]) -> Optional[int]:
    """Sum of the ``channel.up.bytes`` series in a snapshot record."""
    if not snapshot:
        return None
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        return None
    total = 0.0
    seen = False
    for key, value in metrics.items():
        if parse_series_name(key)[0] == "channel.up.bytes":
            total += float(value)  # type: ignore[arg-type]
            seen = True
    return int(total) if seen else None


def _unit_members(
    doc: TraceDoc, parent_id: Optional[int]
) -> Tuple[List[str], List[int]]:
    """(paths, member wire sizes) of the enclosing ``client.upload_unit``."""
    unit = doc.enclosing(parent_id, "client.upload_unit")
    if unit is None:
        return [""], [1]
    paths = [str(p) for p in unit.attrs.get("paths", [])]
    member_bytes = [int(b) for b in unit.attrs.get("member_bytes", [])]
    if not paths or len(paths) != len(member_bytes):
        return [""], [1]
    return paths, member_bytes


def _envelope_key(attrs: dict) -> Tuple[int, int]:
    """``(client, msg_id)`` of a transport event: one envelope's identity."""
    return int(attrs.get("client", 0)), int(attrs.get("msg_id", -1))


def attribute_uplink(doc: TraceDoc) -> Attribution:
    """Attribute every measured-window uplink byte to (path, mechanism).

    The measured window excludes traffic inside the ``run.preload`` span,
    mirroring the harness's counter reset, so the total matches
    ``RunResult.up_bytes`` / the ``channel.up.bytes`` counters exactly.

    Join logic, in emission order:

    - a ``channel.upload`` of a pathed message is attributed directly by
      its message class;
    - a ``TxnGroup`` upload is apportioned over the member paths recorded
      on its enclosing ``client.upload_unit`` span (member wire sizes as
      weights, largest-remainder so the split is exact);
    - ``Envelope`` uploads are claimed by the ``transport.send`` event the
      transport emits right after transmitting: attempt 1 keeps the inner
      message's mechanism, attempts > 1 (and fault-plan duplicate copies)
      become ``retransmit_overhead``. Paths come from the
      ``transport.enqueued`` event that tied the ``(client, msg_id)`` pair
      to its upload unit.
    """
    rows: Dict[Tuple[str, str], AttributionRow] = {}
    preload_bytes = 0
    channel_up_bytes = 0

    def charge(path: str, mechanism: str, nbytes: int, *, message: bool) -> None:
        row = rows.setdefault(
            (path, mechanism), AttributionRow(path=path, mechanism=mechanism)
        )
        row.bytes += nbytes
        if message:
            row.messages += 1

    def charge_split(
        paths: List[str], weights: List[int], mechanism: str, nbytes: int
    ) -> None:
        shares = _apportion(nbytes, weights)
        for i, (path, share) in enumerate(zip(paths, shares)):
            charge(path, mechanism, share, message=(i == 0))

    # (client, msg_id) -> (member paths, member weights), from the
    # transport.enqueued join event. msg_ids are per-client counters, so
    # two clients' transports reuse them.
    enqueued: Dict[Tuple[int, int], Tuple[List[str], List[int]]] = {}
    # Envelope copies not yet claimed: a transmission's channel.upload
    # events come right before its transport.send.
    pending_envelopes: List[dict] = []

    def resolve_envelopes(send_record: dict) -> None:
        attrs = send_record.get("attrs", {})
        attempt = int(attrs.get("attempt", 1))
        inner_type = str(attrs.get("type", ""))
        info = enqueued.get(_envelope_key(attrs))
        if info is not None:
            paths, weights = info
        else:
            paths, weights = [""], [1]
        base_mechanism = (
            "retransmit_overhead"
            if attempt > 1
            else MECHANISM_BY_TYPE.get(inner_type, "metadata")
        )
        for copy_index, upload in enumerate(pending_envelopes):
            if doc.in_span_named(upload.get("parent"), "run.preload"):
                continue
            nbytes = int(upload["attrs"].get("bytes", 0))
            # The first copy is the send itself; extra copies are the
            # fault plan duplicating the transmission — pure link overhead.
            mechanism = base_mechanism if copy_index == 0 else "retransmit_overhead"
            charge_split(paths, weights, mechanism, nbytes)
        pending_envelopes.clear()

    for record in doc.records:
        if record.get("type") != "event":
            continue
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "transport.enqueued":
            enqueued[_envelope_key(attrs)] = _unit_members(
                doc, record.get("parent")
            )
            continue
        if name == "transport.send":
            resolve_envelopes(record)
            continue
        if name != "channel.upload":
            continue
        nbytes = int(attrs.get("bytes", 0))
        msg_type = str(attrs.get("type", ""))
        in_preload = doc.in_span_named(record.get("parent"), "run.preload")
        if msg_type == "Envelope":
            # Byte bookkeeping happens when the transport.send claims it;
            # the preload split is re-checked there per copy.
            pending_envelopes.append(record)
            if in_preload:
                preload_bytes += nbytes
            else:
                channel_up_bytes += nbytes
            continue
        if in_preload:
            preload_bytes += nbytes
            continue
        channel_up_bytes += nbytes
        if msg_type == "TxnGroup":
            paths, weights = _unit_members(doc, record.get("parent"))
            charge_split(paths, weights, "txn_group", nbytes)
        else:
            mechanism = MECHANISM_BY_TYPE.get(msg_type, "metadata")
            charge(str(attrs.get("path", "")), mechanism, nbytes, message=True)

    # Envelope uploads with no transport.send to claim them mean the
    # emission contract broke; they stay unattributed, which surfaces as
    # drift at reconcile time.
    ordered = sorted(rows.values(), key=lambda r: (-r.bytes, r.path, r.mechanism))
    return Attribution(
        rows=ordered,
        total_bytes=sum(r.bytes for r in ordered),
        channel_up_bytes=channel_up_bytes,
        preload_bytes=preload_bytes,
        snapshot_up_bytes=_snapshot_up_bytes(doc.snapshot),
    )
