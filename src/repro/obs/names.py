"""The declared instrumentation catalog — the single source of truth.

Every counter and gauge the :class:`~repro.obs.registry.MetricsRegistry`
will accept, every distribution folded from event attrs, every trace
event the :class:`~repro.obs.tracer.Tracer` will emit, and
every span name used by the instrumented subsystems is declared here, once:
its description, unit, labels or attrs, and the :class:`Section` it belongs
to. The catalog tables of ``docs/observability.md`` (and the subsystem
prefix list there) are rendered from these entries by
``tools/obs_docs.py``; OpenMetrics ``# HELP`` text is the same ``help``.

Naming scheme: ``<subsystem>.<object>.<aspect>`` with dot separators and
``snake_case`` segments; the subsystem prefixes in use are whatever the
names below start with. ``help`` is one Markdown table cell: backticks
for code, no line breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

COUNTER = "counter"
GAUGE = "gauge"
DISTRIBUTION = "distribution"


@dataclass(frozen=True)
class Section:
    """One group of catalog entries: a heading in ``docs/observability.md``
    and the module that owns (emits) the names under it."""

    title: str
    module: str


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family.

    ``folds`` (distributions only) names the ``(event, attr)`` pairs whose
    values are the family's samples: a distribution is not recorded, it is
    folded from the events that already carry it
    (:class:`repro.obs.render.Distributions`), live or from a trace.
    ``labels`` are the label keys every series of the family carries,
    sorted as snapshots render them; the scripted runs of
    ``tests/harness/test_event_stream_golden.py`` hold the emitters to
    them. ``section`` is set by the catalog the entry is declared in.
    """

    name: str
    kind: str
    help: str
    unit: str = ""
    folds: Tuple[Tuple[str, str], ...] = ()
    labels: Tuple[str, ...] = ()
    section: Optional[Section] = None


@dataclass(frozen=True)
class EventSpec:
    """Declaration of one trace-event name (point event or span).

    ``attrs`` lists the attribute keys the emitter records, in emission
    order: the same scripted runs hold the emitters to them, the doc
    tables print them, and the offline analyzer (``repro.obs.analyze``)
    relies on them when joining events. ``section``: as on a metric.
    """

    name: str
    kind: str  # "event" | "span"
    help: str
    attrs: Tuple[str, ...] = ()
    section: Optional[Section] = None


def _catalog(*entries: Union[Section, MetricSpec, EventSpec]) -> tuple:
    """``SECTION, spec, spec, SECTION, spec, ...`` -> the specs, each stamped
    with the section it stands under. The only way into ``METRICS`` /
    ``EVENTS``, so no entry exists outside a section."""
    specs, section = [], None
    for entry in entries:
        if isinstance(entry, Section):
            section = entry
        elif section is None:
            raise ValueError(f"{entry.name!r} is declared outside a section")
        else:
            specs.append(replace(entry, section=section))
    return tuple(specs)


CLIENT = Section("Client engine", "repro.core.client")
POLICY = Section("Mechanism policy", "repro.core.policy")
QUEUE = Section("Sync Queue", "repro.core.sync_queue")
RELATION = Section("Relation Table", "repro.core.relation_table")
JOURNAL = Section("Crash-recovery journal", "repro.core.recovery")
CHANNEL = Section("Channel", "repro.net.transport")
TRANSPORT = Section("Reliable transport", "repro.net.reliable")
SERVER = Section("Server", "repro.server.cloud")
HARNESS = Section("Harness", "repro.harness.runner")
FLEET = Section("Fleet simulation", "repro.harness.fleet")
HEALTH = Section("SLO health", "repro.obs.health")
TRACING = Section("Distributed tracing", "repro.obs.tracer")


METRICS: Tuple[MetricSpec, ...] = _catalog(
    CLIENT,
    MetricSpec(
        "client.ops.intercepted",
        COUNTER,
        "file operations seen by the interception layer",
        unit="ops",
    ),
    MetricSpec(
        "client.writes.intercepted",
        COUNTER,
        "`write()` calls captured with their data (NFS-like file RPC)",
        unit="ops",
    ),
    MetricSpec(
        "client.write.bytes", COUNTER, "bytes captured by intercepted writes", unit="bytes"
    ),
    MetricSpec(
        "client.delta.triggered",
        COUNTER,
        "delta-encoding trigger decisions reached (Table I rules 1/2 plus the "
        "pack-time `pending_create` and `inplace` triggers — a superset of "
        "`ClientStats.deltas_triggered`, which excludes `inplace`)",
        unit="ops",
    ),
    MetricSpec(
        "client.delta.kept",
        COUNTER,
        "triggered deltas that won the size contest and replaced write nodes",
        unit="ops",
    ),
    MetricSpec(
        "client.delta.rpc_wins",
        COUNTER,
        "triggered deltas discarded because the RPC payload was smaller "
        "(the adaptivity outcome)",
        unit="ops",
    ),
    MetricSpec(
        "client.delta.no_base",
        COUNTER,
        "triggers abandoned because the old version never reached the cloud",
        unit="ops",
    ),
    MetricSpec(
        "client.delta.inplace",
        COUNTER,
        "pack-time in-place updates delta-encoded against their node's base",
        unit="ops",
    ),
    MetricSpec(
        "client.delta.saved_bytes",
        COUNTER,
        "wire bytes saved by kept deltas (replaced payload − delta size)",
        unit="bytes",
    ),
    MetricSpec(
        "client.pack.count", COUNTER, "write nodes packed (frozen) by the client", unit="ops"
    ),
    MetricSpec(
        "client.upload.units", COUNTER, "upload units shipped to the channel", unit="ops"
    ),
    MetricSpec(
        "client.upload.groups",
        COUNTER,
        "transactional `TxnGroup` units among the shipped upload units",
        unit="ops",
    ),
    MetricSpec(
        "client.conflicts",
        COUNTER,
        "conflict notices received from the cloud, plus forwarded updates "
        "rejected because the path had pending local edits",
        unit="ops",
    ),
    POLICY,
    MetricSpec(
        "policy.decisions",
        COUNTER,
        "mechanism-selection decisions; `mechanism` is `rpc` or the chosen "
        "delta backend's name",
        unit="ops",
        labels=("mechanism",),
    ),
    MetricSpec(
        "policy.estimate.rpc_bytes",
        COUNTER,
        "wire bytes the policy predicted for the RPC mechanism at decision time",
        unit="bytes",
        labels=("policy",),
    ),
    MetricSpec(
        "policy.estimate.delta_bytes",
        COUNTER,
        "wire bytes the policy predicted for the delta mechanism at decision time",
        unit="bytes",
        labels=("policy",),
    ),
    MetricSpec(
        "policy.estimate.abs_error_bytes",
        COUNTER,
        "absolute error between predicted and measured delta wire bytes, "
        "accumulated over actual encodes",
        unit="bytes",
        labels=("policy",),
    ),
    QUEUE,
    MetricSpec(
        "queue.nodes.created",
        COUNTER,
        "nodes enqueued; `kind` is the node class (`WriteNode`, `MetaNode`, "
        "`DeltaNode`, `TruncateNode`)",
        unit="nodes",
        labels=("kind",),
    ),
    MetricSpec(
        "queue.nodes.coalesced",
        COUNTER,
        "writes absorbed into an already-active write node",
        unit="ops",
    ),
    MetricSpec(
        "queue.nodes.packed",
        COUNTER,
        "write nodes frozen against further coalescing (state change or upload-time)",
        unit="nodes",
    ),
    MetricSpec(
        "queue.nodes.replaced_by_delta",
        COUNTER,
        "nodes removed by delta replacement (the doomed write nodes)",
        unit="nodes",
    ),
    MetricSpec(
        "queue.nodes.cancelled",
        COUNTER,
        "never-uploaded nodes dropped (e.g. create+writes of a deleted file)",
        unit="nodes",
    ),
    MetricSpec(
        "queue.nodes.shipped", COUNTER, "nodes handed to the uploader", unit="nodes"
    ),
    MetricSpec(
        "queue.units.transactional",
        COUNTER,
        "upload units that were backindex spans (ship as one `TxnGroup`)",
        unit="ops",
    ),
    MetricSpec(
        "queue.spans.recorded", COUNTER, "backindex spans recorded (pre-merge)", unit="ops"
    ),
    MetricSpec("queue.depth", GAUGE, "live nodes in the queue", unit="nodes"),
    MetricSpec(
        "queue.bytes.queued", GAUGE, "payload bytes waiting in the queue", unit="bytes"
    ),
    MetricSpec(
        "queue.node.payload_bytes",
        DISTRIBUTION,
        "payload size of each shipped node",
        unit="bytes",
        folds=(("queue.node.shipped", "payload_bytes"),),
    ),
    MetricSpec(
        "queue.node.wait_time",
        DISTRIBUTION,
        "virtual seconds from (last) enqueue to ship, per shipped node",
        unit="seconds",
        folds=(("queue.node.shipped", "waited"),),
    ),
    MetricSpec(
        "queue.node.open_time",
        DISTRIBUTION,
        "virtual seconds a write node spent open (creation → pack), whether "
        "a state change or the upload froze it: the coalescing window it "
        "actually enjoyed",
        unit="seconds",
        folds=(("queue.node.packed", "open_for"),),
    ),
    RELATION,
    MetricSpec(
        "relation.entries.inserted",
        COUNTER,
        "entries recorded; `origin` is `rename` or `unlink`",
        unit="entries",
        labels=("origin",),
    ),
    MetricSpec(
        "relation.entries.matched",
        COUNTER,
        "created or renamed-onto names that matched a live entry (trigger rule 1)",
        unit="entries",
    ),
    MetricSpec(
        "relation.entries.expired",
        COUNTER,
        "entries collected by the ~2 s timeout without triggering",
        unit="entries",
    ),
    MetricSpec(
        "relation.entries.invalidated",
        COUNTER,
        "entries dropped because their preserved `dst` was destroyed",
        unit="entries",
    ),
    MetricSpec(
        "relation.entries.superseded",
        COUNTER,
        "entries replaced by a newer transformation of the same `src`",
        unit="entries",
    ),
    MetricSpec(
        "relation.entries.stale",
        COUNTER,
        "match probes that found only an expired (stale) entry",
        unit="entries",
    ),
    MetricSpec("relation.size", GAUGE, "live entries in the table", unit="entries"),
    CHANNEL,
    MetricSpec(
        "channel.up.bytes",
        COUNTER,
        "client→server wire bytes, by message class",
        unit="bytes",
        labels=("type",),
    ),
    MetricSpec(
        "channel.down.bytes",
        COUNTER,
        "server→client wire bytes, by message class",
        unit="bytes",
        labels=("type",),
    ),
    MetricSpec(
        "channel.up.messages",
        COUNTER,
        "client→server messages, by message class",
        unit="msgs",
        labels=("type",),
    ),
    MetricSpec(
        "channel.down.messages",
        COUNTER,
        "server→client messages, by message class",
        unit="msgs",
        labels=("type",),
    ),
    MetricSpec(
        "channel.up.busy_time",
        COUNTER,
        "virtual seconds of uplink transmit time accumulated",
        unit="seconds",
    ),
    MetricSpec(
        "channel.down.busy_time",
        COUNTER,
        "virtual seconds of downlink transmit time accumulated",
        unit="seconds",
    ),
    MetricSpec(
        "channel.message.bytes",
        DISTRIBUTION,
        "wire size of every message moved, either direction",
        unit="bytes",
        folds=(("channel.upload", "bytes"), ("channel.download", "bytes")),
    ),
    MetricSpec(
        "channel.faults.dropped",
        COUNTER,
        "messages lost in transit by the fault plan (`LossyChannel`)",
        unit="msgs",
        labels=("direction",),
    ),
    MetricSpec(
        "channel.faults.duplicated",
        COUNTER,
        "messages the lossy link delivered twice",
        unit="msgs",
        labels=("direction",),
    ),
    MetricSpec(
        "channel.faults.reordered",
        COUNTER,
        "deliveries delayed past later sends",
        unit="msgs",
        labels=("direction",),
    ),
    MetricSpec(
        "channel.faults.partition_drops",
        COUNTER,
        "messages swallowed by a partition window",
        unit="msgs",
        labels=("direction",),
    ),
    TRANSPORT,
    MetricSpec(
        "transport.sent",
        COUNTER,
        "envelopes transmitted, first attempts and retransmits alike",
        unit="msgs",
    ),
    MetricSpec(
        "transport.retries",
        COUNTER,
        "retransmissions (attempts beyond the first) of unacked envelopes",
        unit="msgs",
    ),
    MetricSpec(
        "transport.timeouts",
        COUNTER,
        "retry timers that expired without an ack arriving",
        unit="ops",
    ),
    MetricSpec(
        "transport.acked",
        COUNTER,
        "envelopes acknowledged and retired from the in-flight window",
        unit="msgs",
    ),
    MetricSpec(
        "transport.dup_acks",
        COUNTER,
        "acknowledgements for already-retired envelopes (late or duplicate)",
        unit="msgs",
    ),
    MetricSpec(
        "transport.inflight",
        GAUGE,
        "envelopes awaiting acknowledgement (in-flight window depth)",
        unit="msgs",
    ),
    MetricSpec(
        "transport.outbox",
        GAUGE,
        "messages queued behind the bounded in-flight window",
        unit="msgs",
    ),
    SERVER,
    MetricSpec(
        "server.apply.applied",
        COUNTER,
        "messages applied successfully, by message class",
        unit="msgs",
        labels=("type",),
    ),
    MetricSpec(
        "server.apply.conflicts",
        COUNTER,
        "messages rejected as concurrent-update conflicts",
        unit="msgs",
    ),
    MetricSpec(
        "server.apply.groups",
        COUNTER,
        "`TxnGroup`s applied atomically (backindex spans arriving)",
        unit="msgs",
    ),
    MetricSpec(
        "server.forwards.sent",
        COUNTER,
        "accepted messages fanned out verbatim to sharing clients",
        unit="msgs",
    ),
    MetricSpec(
        "server.dedup.drops",
        COUNTER,
        "retransmitted envelopes absorbed by the message-id dedup table "
        "(at-least-once delivery, exactly-once effect)",
        unit="msgs",
    ),
    MetricSpec(
        "server.shard.migrations",
        COUNTER,
        "file bundles moved between shards: to co-locate a cross-shard rename, "
        "link, or transactional group before applying, and back to a name's "
        "own shard after; `reason` ∈ `rename`, `link`, `group`, `meta`, "
        "`home` (see fleet.md)",
        unit="files",
        labels=("reason",),
    ),
    FLEET,
    MetricSpec(
        "fleet.clients",
        GAUGE,
        "simulated clients provisioned for the current fleet run",
        unit="clients",
    ),
    MetricSpec(
        "fleet.writes.issued",
        COUNTER,
        "measured-window writes issued by fleet clients (seeding excluded)",
        unit="ops",
    ),
    MetricSpec(
        "fleet.sync.latency",
        DISTRIBUTION,
        "virtual seconds from a client write to its durable apply on the "
        "owning shard — debounce wait + shard queueing + service",
        unit="seconds",
        folds=(("fleet.sync.completed", "latency"),),
    ),
    MetricSpec(
        "fleet.shard.queue_depth",
        GAUGE,
        "upload units in flight on one shard's FIFO core",
        unit="ops",
        labels=("shard",),
    ),
    MetricSpec(
        "fleet.shard.busy_time",
        COUNTER,
        "virtual seconds of modelled core time one shard spent applying",
        unit="seconds",
        labels=("shard",),
    ),
    MetricSpec(
        "fleet.window.seconds",
        GAUGE,
        "configured length of one telemetry rollup window in virtual seconds",
        unit="seconds",
    ),
    MetricSpec(
        "fleet.window.rollovers",
        COUNTER,
        "telemetry windows closed with at least one completed write",
        unit="windows",
        labels=("shard",),
    ),
    HEALTH,
    MetricSpec(
        "health.slo.attainment",
        GAUGE,
        "fraction of completed writes whose sync latency met the SLO threshold",
        unit="ratio",
        labels=("shard",),
    ),
    MetricSpec(
        "health.stalls",
        COUNTER,
        "writes whose sync stalled past the stall horizon (stuck "
        "retransmits, dead or saturated shards)",
        unit="ops",
        labels=("shard",),
    ),
    MetricSpec(
        "health.regressions",
        COUNTER,
        "window-over-window p99 latency regressions flagged",
        unit="windows",
        labels=("shard",),
    ),
    JOURNAL,
    MetricSpec(
        "journal.records.written",
        COUNTER,
        "journal records persisted (`kind` ∈ `node`, `unit` — a launched "
        "envelope's msg id and member seqs — `spans` — the queue's merged "
        "backindex spans — `relation`, `vercnt`); re-journaling a "
        "coalesced node counts again",
        unit="records",
        labels=("kind",),
    ),
    MetricSpec(
        "journal.records.forgotten",
        COUNTER,
        "journal records retired (node uploaded — acked, over a reliable "
        "transport — cancelled or replaced; unit acked or settled by recovery; "
        "spans re-recorded by recovery; relation resolved)",
        unit="records",
        labels=("kind",),
    ),
    MetricSpec(
        "journal.bytes.written",
        COUNTER,
        "key + value bytes of the records put to the journal's KV store",
        unit="bytes",
    ),
    MetricSpec(
        "recovery.runs", COUNTER, "`Client.recover()` passes executed", unit="ops"
    ),
    MetricSpec(
        "recovery.nodes.replayed",
        COUNTER,
        "journaled nodes re-enqueued for upload after a crash, as the units "
        "they were, bases untouched",
        unit="nodes",
    ),
    MetricSpec(
        "recovery.nodes.already_applied",
        COUNTER,
        "journaled nodes of envelopes the server's exactly-once window holds "
        "(msg id at or below its high-water mark): retired, not re-sent",
        unit="nodes",
    ),
    MetricSpec(
        "recovery.files.swept",
        COUNTER,
        "files checked against the durable checksum store during the "
        "post-crash sweep (every local file, not only the dirty ones)",
        unit="files",
    ),
    MetricSpec(
        "recovery.files.damaged",
        COUNTER,
        "swept files with at least one mismatching block (crash inconsistency)",
        unit="files",
    ),
    MetricSpec(
        "recovery.blocks.repaired",
        COUNTER,
        "damaged blocks rebuilt from cloud ranges + journaled pending writes",
        unit="blocks",
    ),
    MetricSpec(
        "recovery.bytes.downloaded",
        COUNTER,
        "cloud bytes fetched by block repair and its whole-file fallback "
        "(`RangeReply` payloads)",
        unit="bytes",
    ),
    MetricSpec(
        "recovery.full_file_fallbacks",
        COUNTER,
        "repairs that could not converge block-wise and fell back to "
        "whole-file reconstruction",
        unit="files",
    ),
    HARNESS,
    MetricSpec("run.pump.calls", COUNTER, "pump invocations during the run", unit="ops"),
    MetricSpec(
        "run.pump.shipped", COUNTER, "upload units shipped across all pumps", unit="ops"
    ),
)


EVENTS: Tuple[EventSpec, ...] = _catalog(
    QUEUE,  # node lifecycle: the Figure-4 pipeline, per node
    EventSpec(
        "queue.node.created",
        "event",
        "a node joins the queue tail",
        attrs=("path", "kind", "seq"),
    ),
    EventSpec(
        "queue.node.coalesced",
        "event",
        "a write is absorbed into an active write node",
        attrs=("path", "seq", "offset", "bytes"),
    ),
    EventSpec(
        "queue.node.packed",
        "event",
        "a write node freezes (state change or upload-time); `open_for` is "
        "the virtual seconds since it was created",
        attrs=("path", "seq", "writes", "payload_bytes", "open_for"),
    ),
    EventSpec(
        "queue.node.replaced_by_delta",
        "event",
        "delta replacement swaps write nodes for a delta node",
        attrs=("path", "replaced_seqs", "delta_seq", "delta_bytes", "replaced_bytes"),
    ),
    EventSpec(
        "queue.node.cancelled",
        "event",
        "a never-uploaded node is dropped",
        attrs=("path", "seq", "kind"),
    ),
    EventSpec(
        "queue.node.shipped",
        "event",
        "a node leaves the queue for upload; `waited` is the virtual seconds "
        "since its (last) enqueue",
        attrs=("path", "seq", "kind", "payload_bytes", "transactional", "waited"),
    ),
    RELATION,
    EventSpec(
        "relation.insert",
        "event",
        "a relation entry is recorded",
        attrs=("src", "dst", "origin"),
    ),
    EventSpec(
        "relation.match",
        "event",
        "a created or renamed-onto name matches a live entry (delta trigger)",
        attrs=("src", "dst", "origin", "age"),
    ),
    EventSpec(
        "relation.expire",
        "event",
        "an entry times out untriggered",
        attrs=("src", "dst", "origin"),
    ),
    EventSpec(
        "relation.invalidate",
        "event",
        "an entry dies because its preserved `dst` was destroyed",
        attrs=("src", "dst"),
    ),
    CLIENT,  # delta decisions
    EventSpec(
        "client.delta.trigger",
        "event",
        "a transactional update is recognized; `rule` ∈ `relation_match` "
        "(Table I rule 1), `name_exists` (rule 2), `pending_create` "
        "(delete-then-rewrite, resolved at pack time), `inplace` (a packed "
        "write node rewrote more than half of its base)",
        attrs=("path", "rule"),
    ),
    EventSpec(
        "client.delta.kept",
        "event",
        "the delta won the size contest",
        attrs=("path", "delta_bytes", "replaced_bytes"),
    ),
    EventSpec(
        "client.delta.rpc_wins",
        "event",
        "the RPC payload was smaller; delta discarded",
        attrs=("path", "delta_bytes", "replaced_bytes"),
    ),
    EventSpec(
        "client.delta.no_base",
        "event",
        "trigger abandoned: base version unresolvable on the cloud",
        attrs=("path",),
    ),
    POLICY,
    EventSpec(
        "policy.decision",
        "event",
        "the mechanism policy chose RPC or a delta backend for one "
        "triggered update; `mechanism` is `rpc` or the backend name",
        attrs=("path", "policy", "mechanism", "rpc_bytes", "est_delta_bytes"),
    ),
    CHANNEL,
    EventSpec(
        "channel.upload",
        "event",
        "a message enters the uplink (`path` empty for pathless messages)",
        attrs=("type", "path", "bytes", "done_at"),
    ),
    EventSpec(
        "channel.download",
        "event",
        "a message enters the downlink (`path` empty for pathless messages)",
        attrs=("type", "path", "bytes", "done_at"),
    ),
    EventSpec(
        "channel.fault",
        "event",
        "the fault plan perturbed a delivery; `fate` ∈ `drop`, `duplicate`, "
        "`reorder`, `partition`",
        attrs=("direction", "fate", "type"),
    ),
    TRANSPORT,
    EventSpec(
        "transport.enqueued",
        "event",
        "a message entered the reliable transport of client `client` and "
        "took its `msg_id`; fires inside the shipping span, so offline "
        "analysis can join every later (re)transmission of that "
        "`(client, msg_id)` back to the upload unit (and its paths) that "
        "produced it",
        attrs=("client", "msg_id", "type"),
    ),
    EventSpec(
        "transport.send",
        "event",
        "an envelope enters client `client`'s uplink (`attempt` = 1 on "
        "first send)",
        attrs=("client", "msg_id", "attempt", "type"),
    ),
    EventSpec(
        "transport.ack",
        "event",
        "an envelope is acknowledged and retired",
        attrs=("msg_id", "attempts", "rtt"),
    ),
    EventSpec(
        "transport.timeout",
        "event",
        "a retry timer expired unacked",
        attrs=("msg_id", "attempt", "waited"),
    ),
    SERVER,
    EventSpec(
        "server.conflict",
        "event",
        "first-write-wins rejected an update",
        attrs=("path", "conflict_path"),
    ),
    EventSpec(
        "server.envelope",
        "event",
        "a reliable-delivery envelope reached the apply endpoint; "
        "`duplicate` marks retransmits absorbed by the dedup table, `shard` "
        "is the emitting server's shard id and `home` the router's "
        "home-shard derivation for the origin client (a standalone server "
        "stamps both `0`). The exactly-once, causal-FIFO and shard-home "
        "protocol invariants (`repro check --traces`, see "
        "static-analysis.md) are evaluated against these events",
        attrs=("client", "msg_id", "attempt", "duplicate", "shard", "home"),
    ),
    EventSpec(
        "server.shard.detach",
        "event",
        "a file bundle left its source shard for a cross-shard "
        "co-location; `versions` counts the lineage leaving with it. The "
        "migration-safety invariant demands a matching "
        "`server.shard.attach` with no version loss and no accepted "
        "writes for the path in between",
        attrs=("path", "src_shard", "dst_shard", "reason", "versions"),
    ),
    EventSpec(
        "server.shard.attach",
        "event",
        "the migrated file bundle re-homed on the destination shard; "
        "`versions` is re-derived from the destination store after the "
        "lineage merge (≥ the detach count when no history was lost)",
        attrs=("path", "src_shard", "dst_shard", "versions"),
    ),
    EventSpec(
        "server.shard.rename_forward",
        "event",
        "a rename spanned two shards: the source file bundle (content, "
        "lineage, window snapshots) migrated to the destination's shard, "
        "which then applied the rename locally, so the new name is already "
        "on its own shard (the two-step cross-shard rename; see fleet.md)",
        attrs=("path", "dest", "src_shard", "dst_shard"),
    ),
    EventSpec(
        "server.version.accepted",
        "event",
        "the store accepted a client-minted `<CliID, VerCnt>` stamp; the "
        "per-client version-monotonicity invariant is evaluated against "
        "these events",
        attrs=("path", "client", "counter"),
    ),
    TRACING,
    FLEET,  # the run record, completions and telemetry windows
    EventSpec(
        "fleet.run.started",
        "event",
        "one observed fleet run's record, before its first completion: "
        "its shard count, its telemetry windows (`window_seconds` wide "
        "from virtual time `t0`) and its objectives. `repro inspect "
        "--health` rebuilds the run's rollup and report from it and the "
        "run's completions",
        attrs=("shards", "t0", "window_seconds", "slo_seconds", "stall_horizon"),
    ),
    EventSpec(
        "fleet.sync.completed",
        "event",
        "one measured write's sync completed on its home shard after the "
        "driver's modelled debounce and shard queueing; recorded when its "
        "upload ships, `done` is the virtual completion time and "
        "`latency` the write-to-`done` gap (seed uploads emit none)",
        attrs=("shard", "client", "latency", "done"),
    ),
    EventSpec(
        "fleet.window.closed",
        "event",
        "one per-shard telemetry window rolled up (emitted at rollup "
        "finalization; `start`/`end` are the window's virtual-time bounds)",
        attrs=("shard", "window", "start", "end", "writes", "p50", "p99", "queue_peak", "busy"),
    ),
    JOURNAL,  # the journal, then post-crash recovery
    EventSpec(
        "journal.write",
        "event",
        "a sync-intent record was persisted; `kind` ∈ `node`, `unit`, "
        "`spans`, `relation`, `vercnt`, and `ref` identifies the "
        "record (node seq, envelope msg id, span count, relation src, "
        "or the counter value). The "
        "journal-write-happens-before-send invariant is evaluated against "
        "these events",
        attrs=("kind", "ref"),
    ),
    EventSpec(
        "journal.forget",
        "event",
        "a sync-intent record was retired (uploaded and acked, cancelled, "
        "matched, expired, or replaced)",
        attrs=("kind", "ref"),
    ),
    EventSpec(
        "recovery.node.replayed",
        "event",
        "one journaled node was dispositioned during recovery; "
        "`disposition` ∈ `replayed`, `already_applied`",
        attrs=("path", "kind", "disposition"),
    ),
    EventSpec(
        "recovery.file.repaired",
        "event",
        "a damaged file was brought back to its durable checksums "
        "(`full_file` marks the whole-file fallback)",
        attrs=("path", "blocks", "full_file"),
    ),
    HARNESS,  # from here on: spans
    EventSpec(
        "run",
        "span",
        "one (solution, trace) experiment run (top level, no parent)",
        attrs=("solution", "trace"),
    ),
    EventSpec("run.preload", "span", "installing + syncing preloaded files (unmeasured)"),
    EventSpec("run.replay", "span", "the measured trace replay loop"),
    EventSpec("run.settle", "span", "post-replay clock-advance/pump rounds until delays elapse"),
    EventSpec("run.flush", "span", "the final forced drain of the sync queue"),
    CLIENT,
    EventSpec(
        "client.pack",
        "span",
        "pack-and-maybe-compress of one path's open write node",
        attrs=("path",),
    ),
    EventSpec(
        "client.delta.encode",
        "span",
        "one delta encoding, by the backend the mechanism policy chose "
        "(bitwise unless configured otherwise)",
        attrs=("path", "old_bytes", "new_bytes"),
    ),
    EventSpec(
        "client.upload_unit",
        "span",
        "one upload unit shipped through the channel and its replies "
        "processed; `paths`/`member_bytes` list the member messages in ship "
        "order so offline attribution can split grouped (or enveloped) wire "
        "bytes back over the files that caused them",
        attrs=("nodes", "transactional", "paths", "member_bytes"),
    ),
    JOURNAL,
    EventSpec(
        "client.recover",
        "span",
        "one post-crash recovery pass: journal replay + checksum sweep + "
        "block repair",
        attrs=("nodes",),
    ),
    SERVER,
    EventSpec(
        "server.apply",
        "span",
        "the server applying one received message (a `TxnGroup` is one message)",
        attrs=("type", "origin"),
    ),
    TRANSPORT,
    EventSpec(
        "transport.retransmit_round",
        "span",
        "one sweep retransmitting every envelope whose retry timer expired",
        attrs=("due",),
    ),
    SERVER,
    EventSpec(
        "server.shard.route",
        "span",
        "router handling of one multi-shard message: co-locating "
        "migrations plus the target shard's apply (single-shard messages "
        "skip this span and apply directly, bit-identically to an "
        "unsharded server)",
        attrs=("shards", "target"),
    ),
)


METRIC_NAMES: Tuple[str, ...] = tuple(spec.name for spec in METRICS)
EVENT_NAMES: Tuple[str, ...] = tuple(spec.name for spec in EVENTS)

METRICS_BY_NAME: Dict[str, MetricSpec] = {spec.name: spec for spec in METRICS}
EVENTS_BY_NAME: Dict[str, EventSpec] = {spec.name: spec for spec in EVENTS}


def metric_spec(name: str) -> MetricSpec:
    """Look up a declared metric; raises ``KeyError`` for unknown names."""
    return METRICS_BY_NAME[name]


def event_spec(name: str) -> EventSpec:
    """Look up a declared event/span; raises ``KeyError`` for unknown names."""
    return EVENTS_BY_NAME[name]
