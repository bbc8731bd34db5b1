"""Layer 2: the trace invariant verifier, on synthetic and real traces."""

import pytest

from repro.check import verify_trace
from repro.check.invariants import report_results, results_to_findings
from repro.faults.network import NetworkFaults
from repro.harness.runner import run_trace
from repro.kvstore.kv import MemoryKV
from repro.net.reliable import RetryPolicy
from repro.obs import Observability
from repro.obs.analyze import load_trace_lines
from repro.server.cloud import CloudServer
from repro.workloads import gedit_trace


def event(name, ts=0.0, **attrs):
    return {"type": "event", "name": name, "ts": ts, "parent": None,
            "attrs": attrs}


def verify_events(records):
    import json

    doc = load_trace_lines(json.dumps(r) for r in records)
    return {r.id: r for r in verify_trace(doc)}


def record_lossy_journaled_run(saves=4):
    """A lossy, duplicating, journaled deltacfs run -> loaded TraceDoc."""
    obs = Observability()
    run_trace(
        "deltacfs",
        gedit_trace(saves=saves),
        obs=obs,
        faults=NetworkFaults(drop_prob=0.2, dup_prob=0.1),
        retry=RetryPolicy(),
        fault_seed=5,
        journal_kv=MemoryKV(),
    )
    return load_trace_lines(obs.tracer.to_jsonl().splitlines())


class TestSyntheticTraces:
    def test_empty_trace_skips_everything(self):
        results = verify_events([])
        assert {r.status for r in results.values()} == {"skipped"}

    def test_exactly_once_violation(self):
        results = verify_events([
            event("server.envelope", client=1, msg_id=1, attempt=1,
                  duplicate=False),
            event("server.envelope", client=1, msg_id=1, attempt=2,
                  duplicate=False),
        ])
        r = results["INV-EXACTLY-ONCE"]
        assert r.status == "violated"
        assert "msg_id 1" in r.violations[0]
        assert "client 1" in r.violations[0]

    def test_duplicate_drops_are_fine(self):
        results = verify_events([
            event("server.envelope", client=1, msg_id=1, attempt=1,
                  duplicate=False),
            event("server.envelope", client=1, msg_id=1, attempt=2,
                  duplicate=True),
            event("server.envelope", client=1, msg_id=2, attempt=1,
                  duplicate=False),
        ])
        assert results["INV-EXACTLY-ONCE"].status == "ok"
        assert results["INV-CAUSAL-FIFO"].status == "ok"

    def test_fifo_gap_violation(self):
        results = verify_events([
            event("server.envelope", client=2, msg_id=1, attempt=1,
                  duplicate=False),
            event("server.envelope", client=2, msg_id=3, attempt=1,
                  duplicate=False),
        ])
        r = results["INV-CAUSAL-FIFO"]
        assert r.status == "violated" and "gap" in r.violations[0]

    def test_fifo_reorder_violation(self):
        results = verify_events([
            event("server.envelope", client=2, msg_id=2, attempt=1,
                  duplicate=False),
            event("server.envelope", client=2, msg_id=1, attempt=1,
                  duplicate=False),
        ])
        assert results["INV-CAUSAL-FIFO"].status == "violated"

    def test_fifo_is_per_client(self):
        results = verify_events([
            event("server.envelope", client=1, msg_id=1, duplicate=False),
            event("server.envelope", client=2, msg_id=1, duplicate=False),
            event("server.envelope", client=1, msg_id=2, duplicate=False),
        ])
        assert results["INV-CAUSAL-FIFO"].status == "ok"

    def test_msg_ids_restarting_after_a_recover_are_a_finding(self):
        # A restarted client keeps its dedup window and continues after its
        # high-water mark: a client.recover span does not start a new id
        # sequence, so ids numbered from 1 again are a double apply and a
        # reordering, while ids that continue are fine.
        def envelope(msg_id):
            return event("server.envelope", client=1, msg_id=msg_id,
                         attempt=1, duplicate=False)

        recover = [
            {"type": "span_start", "name": "client.recover", "id": 1,
             "parent": None, "ts": 5.0, "attrs": {"nodes": 1}},
            {"type": "span_end", "name": "client.recover", "id": 1,
             "parent": None, "ts": 5.0},
        ]
        before = [envelope(1), envelope(2)]
        res = verify_events(before + recover + [envelope(1), envelope(2)])
        assert res["INV-EXACTLY-ONCE"].status == "violated"
        assert res["INV-CAUSAL-FIFO"].status == "violated"
        res = verify_events(before + recover + [envelope(3), envelope(4)])
        assert res["INV-EXACTLY-ONCE"].status == "ok"
        assert res["INV-CAUSAL-FIFO"].status == "ok"
        res = verify_events(before + recover + [envelope(4)])
        assert "gap" in res["INV-CAUSAL-FIFO"].violations[0]

    def test_version_monotone_violation(self):
        results = verify_events([
            event("server.version.accepted", path="/f", client=1, counter=3),
            event("server.version.accepted", path="/f", client=1, counter=3),
        ])
        r = results["INV-VERSION-MONO"]
        assert r.status == "violated"
        assert "counter 3 after 3" in r.violations[0]

    def test_version_monotone_per_client(self):
        results = verify_events([
            event("server.version.accepted", path="/f", client=1, counter=5),
            event("server.version.accepted", path="/f", client=2, counter=1),
            event("server.version.accepted", path="/g", client=1, counter=6),
        ])
        assert results["INV-VERSION-MONO"].status == "ok"

    def test_journal_order_violation(self):
        results = verify_events([
            event("journal.write", kind="node", ref="1"),
            event("queue.node.shipped", path="/f", seq=1, kind="WriteNode"),
            event("queue.node.shipped", path="/g", seq=2, kind="WriteNode"),
        ])
        r = results["INV-JOURNAL-ORDER"]
        assert r.status == "violated"
        assert "seq 2" in r.violations[0]

    def test_journal_order_ok_and_unjournaled_runs_skip(self):
        ok = verify_events([
            event("journal.write", kind="node", ref="1"),
            event("queue.node.shipped", path="/f", seq=1, kind="WriteNode"),
        ])
        assert ok["INV-JOURNAL-ORDER"].status == "ok"
        # A run without a journal attached ships nodes but must not be
        # reported as violating write-ahead: there is nothing to witness.
        bare = verify_events([
            event("queue.node.shipped", path="/f", seq=1, kind="WriteNode"),
        ])
        assert bare["INV-JOURNAL-ORDER"].status == "skipped"

    def test_packed_frozen_violation(self):
        results = verify_events([
            event("queue.node.packed", path="/f", seq=4, writes=2,
                  payload_bytes=10),
            event("queue.node.coalesced", path="/f", seq=4, offset=0,
                  bytes=3),
        ])
        r = results["INV-PACKED-FROZEN"]
        assert r.status == "violated" and "seq 4" in r.violations[0]

    def test_packed_frozen_ok_before_pack(self):
        results = verify_events([
            event("queue.node.coalesced", path="/f", seq=4, offset=0,
                  bytes=3),
            event("queue.node.packed", path="/f", seq=4, writes=2,
                  payload_bytes=10),
        ])
        assert results["INV-PACKED-FROZEN"].status == "ok"

    def test_relation_lifecycle_violation(self):
        results = verify_events([
            event("relation.match", src="/f", dst="/t0", origin="rename",
                  age=0.5),
        ])
        r = results["INV-RELATION-LIFE"]
        assert r.status == "violated" and "/f" in r.violations[0]

    def test_relation_double_consume_violation(self):
        results = verify_events([
            event("relation.insert", src="/f", dst="/t0", origin="rename"),
            event("relation.match", src="/f", dst="/t0", origin="rename",
                  age=0.1),
            event("relation.expire", src="/f", dst="/t0", origin="rename"),
        ])
        assert results["INV-RELATION-LIFE"].status == "violated"

    def test_relation_supersede_and_live_at_end_ok(self):
        results = verify_events([
            event("relation.insert", src="/f", dst="/t0", origin="rename"),
            event("relation.insert", src="/f", dst="/t1", origin="rename"),
            event("relation.match", src="/f", dst="/t1", origin="rename",
                  age=0.1),
            event("relation.insert", src="/g", dst="/t2", origin="unlink"),
        ])
        assert results["INV-RELATION-LIFE"].status == "ok"

    def test_findings_and_report_rendering(self):
        records = [
            event("server.envelope", client=1, msg_id=1, duplicate=False),
            event("server.envelope", client=1, msg_id=1, duplicate=False),
        ]
        import json

        doc = load_trace_lines(json.dumps(r) for r in records)
        results = verify_trace(doc)
        findings = results_to_findings(results, "t.jsonl")
        assert any(f.rule == "INV-EXACTLY-ONCE" for f in findings)
        assert all(f.severity == "error" for f in findings)
        text = report_results(results, "t.jsonl")
        assert "FAIL INV-EXACTLY-ONCE" in text
        assert "SKIP INV-JOURNAL-ORDER" in text


class TestRealTraces:
    def test_lossy_journaled_run_satisfies_catalog(self):
        # Acceptance: a lossy-seed reliability run with a journal attached
        # exercises every invariant a single-server run can witness —
        # none violated. The migration invariant needs a sharded router
        # (covered by tests/check/test_shard_invariants.py) and skips
        # here rather than passing vacuously.
        doc = record_lossy_journaled_run()
        results = verify_trace(doc)
        assert len(results) == 8
        for result in results:
            if result.id == "INV-MIGRATE-SAFE":
                assert result.status == "skipped"
                continue
            assert result.status == "ok", (
                f"{result.id}: {result.status} {result.violations}"
            )
            assert result.witnesses_seen > 0

    def test_lossy_crash_run_satisfies_catalog(self):
        # A lossy journaled run cut mid-trace: the restarted client's
        # envelopes continue the msg-id sequence, recovery re-executes the
        # journal, and every invariant holds over the whole recording.
        from dataclasses import replace

        from repro.harness.runner import build_system, measured_run
        from repro.workloads.traces import replay

        obs = Observability()
        trace = gedit_trace(saves=3)
        system = build_system(
            "deltacfs", obs=obs, faults=NetworkFaults(drop_prob=0.2),
            fault_seed=3, journal_kv=MemoryKV(),
        )
        with measured_run(system, trace, obs) as pump:
            replay(replace(trace, ops=trace.ops[:8]), system.fs, system.clock,
                   pump=pump)
            report = system.restart().recover()
            replay(replace(trace, ops=trace.ops[8:]), system.fs, system.clock,
                   pump=pump)
        assert report.nodes_replayed > 0 and system.sim.converged()
        doc = load_trace_lines(obs.tracer.to_jsonl().splitlines())
        fresh = [r["attrs"]["msg_id"] for r in doc.point_events()
                 if r["name"] == "server.envelope" and not r["attrs"]["duplicate"]]
        assert fresh == list(range(1, len(fresh) + 1))  # one sequence, across the cut
        for result in verify_trace(doc):
            assert result.status == (
                "skipped" if result.id == "INV-MIGRATE-SAFE" else "ok"
            ), f"{result.id}: {result.status} {result.violations}"

    def test_disabled_dedup_fails_exactly_once(self, monkeypatch):
        # Acceptance: seeding a mutation (the server forgets to dedup)
        # makes the corresponding invariant fail with a pointed report.
        def leaky_handle_envelope(self, envelope, origin_client=0):
            if self.obs.enabled:
                self._note_envelope(envelope, origin_client, duplicate=False)
            result = self.handle(envelope.inner, origin_client)
            return list(result.replies), False

        monkeypatch.setattr(
            CloudServer, "handle_envelope", leaky_handle_envelope
        )
        doc = record_lossy_journaled_run()
        results = {r.id: r for r in verify_trace(doc)}
        r = results["INV-EXACTLY-ONCE"]
        assert r.status == "violated"
        # The report names the client and message id that double-applied.
        assert "msg_id" in r.violations[0]
        assert "dedup failed" in r.violations[0]
