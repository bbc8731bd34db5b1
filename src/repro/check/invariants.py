"""Layer 2: protocol invariants verified over recorded JSONL traces.

Where the AST linter (layer 1) checks what the *code* says, this module
checks what a *run* actually did. Each invariant is declared as an
:class:`InvariantSpec` — id, prose statement, the witness events that
make it applicable — plus a checker that scans a loaded
:class:`~repro.obs.analyze.TraceDoc` in emission order and returns
violations. A trace that never emits an invariant's witness events gets
status ``skipped`` (e.g. a fault-free replay has no transport and thus no
envelope stream), never a false ``ok``.

The catalog (ids are stable; CI and the docs reference them):

==================  =====================================================
id                  statement
==================  =====================================================
INV-EXACTLY-ONCE    the server applies each (client, msg_id) at most once;
                    retransmits surface as ``duplicate=true`` drops
INV-CAUSAL-FIFO     per client, fresh envelopes apply in msg_id order with
                    no gaps: 1, 2, 3, ... (causal FIFO delivery)
INV-VERSION-MONO    per client, accepted version counters strictly
                    increase (the ``<CliID, VerCnt>`` stamp order)
INV-JOURNAL-ORDER   a node's journal record is durable before the node
                    ships (write-ahead: ``journal.write`` precedes
                    ``queue.node.shipped`` for the same seq)
INV-PACKED-FROZEN   a packed write node is never mutated again (no
                    ``queue.node.coalesced`` after ``queue.node.packed``)
INV-RELATION-LIFE   every relation-table consume (match / expire /
                    invalidate) hits an entry a prior insert created and
                    that was not already consumed
INV-SHARD-HOME      envelope witness events are emitted by the origin
                    client's home shard (``shard`` == ``home`` on every
                    ``server.envelope``), so dedup state never splits
INV-MIGRATE-SAFE    every ``server.shard.detach`` re-attaches exactly
                    once with no version loss, and no version is
                    accepted for the path while the bundle is in flight
==================  =====================================================

Scope note: journal and relation events carry no client attribute, so
those two invariants key on seq / src globally. That is exact for the
single-client smoke traces CI verifies; a multi-client trace with
colliding seq spaces should be verified per client trace. Msg ids need no
such note: a restarted client keeps its dedup window and its transport
continues after the window's high-water mark, so each client has one id
sequence across any number of crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.check.findings import Finding
from repro.obs.analyze import TraceDoc


@dataclass(frozen=True)
class InvariantSpec:
    """One declarative invariant: identity plus applicability."""

    id: str
    statement: str
    #: Event names whose presence makes the invariant applicable. A trace
    #: containing none of them yields status "skipped".
    witnesses: Tuple[str, ...]
    check: Callable[["TraceDoc"], List[str]]
    #: Attrs at least one witness event must carry for the invariant to
    #: apply. Traces recorded before an event grew an attribute (or by
    #: emitters that never stamp it) are "skipped", never a vacuous "ok".
    requires_attrs: Tuple[str, ...] = ()


@dataclass
class InvariantResult:
    """Outcome of evaluating one invariant over one trace."""

    id: str
    statement: str
    status: str  # "ok" | "violated" | "skipped"
    violations: List[str] = field(default_factory=list)
    witnesses_seen: int = 0


def _events(doc: TraceDoc, *names: str) -> List[dict]:
    wanted = set(names)
    return [r for r in doc.point_events() if r.get("name") in wanted]


def _fresh_envelopes(doc: TraceDoc) -> Iterator[Tuple[dict, dict]]:
    """``(attrs, record)`` of every non-duplicate ``server.envelope``, in
    emission order."""
    for record in _events(doc, "server.envelope"):
        attrs = record.get("attrs", {})
        if not attrs.get("duplicate"):
            yield attrs, record


def _check_exactly_once(doc: TraceDoc) -> List[str]:
    """At most one duplicate=False server.envelope per (client, msg_id)."""
    violations: List[str] = []
    applied: Dict[Tuple[object, object], int] = {}
    for attrs, record in _fresh_envelopes(doc):
        key = (attrs.get("client"), attrs.get("msg_id"))
        applied[key] = applied.get(key, 0) + 1
        if applied[key] == 2:  # report once per offending key
            violations.append(
                f"server applied msg_id {key[1]} from client {key[0]!r} "
                f"more than once (second fresh apply at ts={record.get('ts')}"
                f", attempt={attrs.get('attempt')}) — dedup failed"
            )
    return violations


def _check_causal_fifo(doc: TraceDoc) -> List[str]:
    """Fresh msg_ids per client form the exact sequence 1, 2, 3, ..."""
    violations: List[str] = []
    next_expected: Dict[object, int] = {}
    flagged: Set[object] = set()
    for attrs, record in _fresh_envelopes(doc):
        client = attrs.get("client")
        msg_id = int(attrs.get("msg_id", -1))
        expected = next_expected.get(client, 1)
        if msg_id != expected and client not in flagged:
            flagged.add(client)
            kind = "gap" if msg_id > expected else "reordering"
            violations.append(
                f"client {client!r} applied msg_id {msg_id} where "
                f"{expected} was due (ts={record.get('ts')}) — FIFO "
                f"delivery broke ({kind})"
            )
        next_expected[client] = max(expected, msg_id + 1)
    return violations


def _check_version_monotone(doc: TraceDoc) -> List[str]:
    """Accepted version counters strictly increase per client."""
    violations: List[str] = []
    last: Dict[object, int] = {}
    for record in _events(doc, "server.version.accepted"):
        attrs = record.get("attrs", {})
        client = attrs.get("client")
        counter = int(attrs.get("counter", -1))
        prev = last.get(client)
        if prev is not None and counter <= prev:
            violations.append(
                f"client {client!r} accepted counter {counter} after {prev} "
                f"for path {attrs.get('path')!r} (ts={record.get('ts')}) — "
                "version stamps must strictly increase"
            )
        last[client] = max(prev if prev is not None else counter, counter)
    return violations


def _check_journal_order(doc: TraceDoc) -> List[str]:
    """Every shipped seq has an earlier journal.write kind=node record."""
    violations: List[str] = []
    journaled: Set[str] = set()
    for record in _events(
        doc, "journal.write", "queue.node.shipped"
    ):
        attrs = record.get("attrs", {})
        if record.get("name") == "journal.write":
            if attrs.get("kind") == "node":
                journaled.add(str(attrs.get("ref")))
        else:
            seq = str(attrs.get("seq"))
            if seq not in journaled:
                violations.append(
                    f"node seq {seq} (path {attrs.get('path')!r}) shipped "
                    f"at ts={record.get('ts')} with no prior journal.write "
                    "— the write-ahead contract broke"
                )
    return violations


def _check_packed_frozen(doc: TraceDoc) -> List[str]:
    """No queue.node.coalesced for a seq after its queue.node.packed."""
    violations: List[str] = []
    packed: Set[object] = set()
    for record in _events(
        doc, "queue.node.packed", "queue.node.coalesced"
    ):
        attrs = record.get("attrs", {})
        seq = attrs.get("seq")
        if record.get("name") == "queue.node.packed":
            packed.add(seq)
        elif seq in packed:
            violations.append(
                f"node seq {seq} (path {attrs.get('path')!r}) coalesced a "
                f"write at ts={record.get('ts')} after it was packed — "
                "packed nodes are immutable"
            )
    return violations


def _check_shard_home(doc: TraceDoc) -> List[str]:
    """Envelope witness events are emitted by the client's home shard.

    The dedup table lives on the home shard; an envelope noted anywhere
    else means exactly-once is being judged against a partial stream.
    ``shard`` (the emitting server's identity) and ``home`` (the
    router's derivation) are stamped independently, so either drifting
    shows up as a mismatch.
    """
    violations: List[str] = []
    flagged: Set[object] = set()
    for record in _events(doc, "server.envelope"):
        attrs = record.get("attrs", {})
        if "shard" not in attrs or "home" not in attrs:
            continue  # old-format event: requires_attrs already gated
        shard, home = attrs.get("shard"), attrs.get("home")
        client = attrs.get("client")
        if shard != home and client not in flagged:
            flagged.add(client)
            violations.append(
                f"client {client!r}'s envelope (msg_id "
                f"{attrs.get('msg_id')}) was noted on shard {shard} but "
                f"the router homes the client on shard {home} "
                f"(ts={record.get('ts')}) — dedup state is split across "
                "shards"
            )
    return violations


def _check_migration_safety(doc: TraceDoc) -> List[str]:
    """Every detach is matched by an attach, loss-free and write-free.

    A detached bundle must re-home exactly once (no double-detach, no
    attach out of nowhere), the destination's post-merge history must
    hold at least the restorable versions that left the source, and no
    version may be accepted for the path while it is in flight. A trace
    ending with a pending detach is a violation — the file vanished.
    """
    violations: List[str] = []
    #: path -> (detach versions, detach ts) while in flight.
    pending: Dict[object, Tuple[int, object]] = {}
    for record in _events(
        doc,
        "server.shard.detach",
        "server.shard.attach",
        "server.version.accepted",
    ):
        name = record.get("name")
        attrs = record.get("attrs", {})
        path = attrs.get("path")
        ts = record.get("ts")
        if name == "server.shard.detach":
            if path in pending:
                violations.append(
                    f"path {path!r} detached again at ts={ts} while "
                    "still in flight — the first bundle was lost"
                )
            pending[path] = (int(attrs.get("versions", 0)), ts)
        elif name == "server.shard.attach":
            if path not in pending:
                violations.append(
                    f"path {path!r} attached at ts={ts} with no prior "
                    "detach — a bundle materialized out of nowhere"
                )
                continue
            detached, _ = pending.pop(path)
            attached = int(attrs.get("versions", 0))
            if attached < detached:
                violations.append(
                    f"path {path!r} lost history in flight: detached "
                    f"with {detached} versions, attached with "
                    f"{attached} (ts={ts})"
                )
        else:  # server.version.accepted
            if path in pending:
                violations.append(
                    f"path {path!r} accepted a version at ts={ts} while "
                    "mid-migration — writes must not land between "
                    "detach and attach"
                )
    for path, (_, ts) in sorted(
        pending.items(), key=lambda item: str(item[0])
    ):
        violations.append(
            f"path {path!r} was detached at ts={ts} and never "
            "re-attached — the file vanished with the trace"
        )
    return violations


def _check_relation_lifecycle(doc: TraceDoc) -> List[str]:
    """Consumes (match/expire/invalidate) hit a live inserted entry.

    An insert over a live entry is a legal supersede; an entry still live
    when the trace ends is legal too (crash-cut traces stop mid-run).
    """
    violations: List[str] = []
    live: Set[object] = set()
    for record in _events(
        doc,
        "relation.insert",
        "relation.match",
        "relation.expire",
        "relation.invalidate",
    ):
        attrs = record.get("attrs", {})
        src = attrs.get("src")
        if record.get("name") == "relation.insert":
            live.add(src)
        elif src in live:
            live.discard(src)
        else:
            violations.append(
                f"{record.get('name')} for src {src!r} at "
                f"ts={record.get('ts')} hit no live entry — entries must "
                "be consumed exactly once after an insert"
            )
    return violations


#: The declarative catalog, in report order.
INVARIANTS: Tuple[InvariantSpec, ...] = (
    InvariantSpec(
        id="INV-EXACTLY-ONCE",
        statement="the server applies each (client, msg_id) at most once",
        witnesses=("server.envelope",),
        check=_check_exactly_once,
    ),
    InvariantSpec(
        id="INV-CAUSAL-FIFO",
        statement="per client, fresh envelopes apply in msg_id order, gap-free",
        witnesses=("server.envelope",),
        check=_check_causal_fifo,
    ),
    InvariantSpec(
        id="INV-VERSION-MONO",
        statement="per client, accepted version counters strictly increase",
        witnesses=("server.version.accepted",),
        check=_check_version_monotone,
    ),
    InvariantSpec(
        id="INV-JOURNAL-ORDER",
        statement="a node's journal record precedes its ship (write-ahead)",
        witnesses=("journal.write",),
        check=_check_journal_order,
    ),
    InvariantSpec(
        id="INV-PACKED-FROZEN",
        statement="a packed write node is never coalesced again",
        witnesses=("queue.node.packed",),
        check=_check_packed_frozen,
    ),
    InvariantSpec(
        id="INV-RELATION-LIFE",
        statement="relation entries are consumed at most once, after an insert",
        witnesses=("relation.insert", "relation.match", "relation.expire",
                   "relation.invalidate"),
        check=_check_relation_lifecycle,
    ),
    InvariantSpec(
        id="INV-SHARD-HOME",
        statement=(
            "envelope witness events are emitted by the origin client's "
            "home shard (dedup state never splits across shards)"
        ),
        witnesses=("server.envelope",),
        check=_check_shard_home,
        requires_attrs=("shard", "home"),
    ),
    InvariantSpec(
        id="INV-MIGRATE-SAFE",
        statement=(
            "every shard detach re-attaches exactly once, loses no "
            "version history, and no write lands mid-flight"
        ),
        witnesses=("server.shard.detach", "server.shard.attach"),
        check=_check_migration_safety,
    ),
)

INVARIANTS_BY_ID: Dict[str, InvariantSpec] = {
    spec.id: spec for spec in INVARIANTS
}


def verify_trace(doc: TraceDoc) -> List[InvariantResult]:
    """Evaluate the whole catalog over one loaded trace."""
    results: List[InvariantResult] = []
    present: Dict[str, int] = {}
    for record in doc.point_events():
        name = str(record.get("name"))
        present[name] = present.get(name, 0) + 1
    for spec in INVARIANTS:
        seen = sum(present.get(w, 0) for w in spec.witnesses)
        if seen and spec.requires_attrs:
            # Old-format traces whose witness events predate the attrs
            # the checker needs must skip, not vacuously pass.
            seen = sum(
                1
                for record in _events(doc, *spec.witnesses)
                if all(
                    attr in record.get("attrs", {})
                    for attr in spec.requires_attrs
                )
            )
        if seen == 0:
            results.append(
                InvariantResult(
                    id=spec.id,
                    statement=spec.statement,
                    status="skipped",
                )
            )
            continue
        violations = spec.check(doc)
        results.append(
            InvariantResult(
                id=spec.id,
                statement=spec.statement,
                status="violated" if violations else "ok",
                violations=violations,
                witnesses_seen=seen,
            )
        )
    return results


def results_to_findings(
    results: List[InvariantResult], trace_path: str
) -> List[Finding]:
    """Violated invariants as findings (shared report model with lint)."""
    findings: List[Finding] = []
    for result in results:
        for violation in result.violations:
            findings.append(
                Finding(
                    rule=result.id,
                    severity="error",
                    path=trace_path,
                    line=0,
                    message=violation,
                    hint=result.statement,
                )
            )
    return findings


def report_results(
    results: List[InvariantResult], trace_path: str
) -> str:
    """Human summary: one line per invariant, then the violations."""
    lines = [f"trace {trace_path}:"]
    for result in results:
        if result.status == "skipped":
            lines.append(
                f"  SKIP {result.id}: no witness events in this trace"
            )
        elif result.status == "ok":
            lines.append(
                f"  ok   {result.id}: {result.statement} "
                f"({result.witnesses_seen} witness events)"
            )
        else:
            lines.append(f"  FAIL {result.id}: {result.statement}")
            for violation in result.violations:
                lines.append(f"         {violation}")
    return "\n".join(lines)
