"""End-to-end observability: an instrumented gedit run emits the
documented event sequence, perturbs nothing, and the CLI flags work."""

import json

from repro.harness.runner import run_trace
from repro.obs import Observability
from repro.obs.names import EVENT_NAMES, METRIC_NAMES
from repro.workloads import gedit_trace


def run_instrumented(saves=3):
    obs = Observability()
    result = run_trace("deltacfs", gedit_trace(saves=saves), obs=obs)
    return obs, result


class TestGeditTraceSequence:
    def test_write_node_lifecycle_created_packed_replaced(self):
        """The documented save sequence: the new content's write node is
        created, packed, then replaced by a delta node (docs/observability.md
        worked example, step 4)."""
        obs, _ = run_instrumented(saves=3)
        names = obs.tracer.event_names()
        assert names.count("queue.node.replaced_by_delta") == 3
        for event in obs.tracer.events():
            if event.name != "queue.node.replaced_by_delta":
                continue
            # Every replaced seq was created and packed earlier in the trace.
            replay = obs.tracer.events()
            idx = replay.index(event)
            earlier = replay[:idx]
            for seq in event.attrs["replaced_seqs"]:
                assert any(
                    e.name == "queue.node.created" and e.attrs["seq"] == seq
                    for e in earlier
                ), f"seq {seq} replaced but never created"
                assert any(
                    e.name == "queue.node.packed" and e.attrs["seq"] == seq
                    for e in earlier
                ), f"seq {seq} replaced but never packed"

    def test_delta_trigger_precedes_kept(self):
        obs, _ = run_instrumented(saves=3)
        names = obs.tracer.event_names()
        assert names.count("client.delta.trigger") == 3
        assert names.count("client.delta.kept") == 3
        assert names.index("client.delta.trigger") < names.index(
            "client.delta.kept"
        )

    def test_counters_match_the_trace(self):
        obs, result = run_instrumented(saves=3)
        m = obs.metrics
        assert m.counter_total("client.delta.kept") == 3
        assert m.counter_total("queue.nodes.replaced_by_delta") == 3
        assert m.counter_total("client.delta.saved_bytes") > 0
        assert m.counter_value("relation.entries.inserted", origin="rename") == 3
        # The per-type channel decomposition reproduces the wire totals.
        assert m.counter_total("channel.up.bytes") == result.up_bytes
        assert m.counter_total("channel.down.bytes") == result.down_bytes
        # Everything drained: the queue gauges end at zero.
        assert m.gauge_value("queue.depth") == 0.0
        assert m.gauge_value("queue.bytes.queued") == 0.0

    def test_scalar_snapshot_lands_in_run_result_extra(self):
        obs, result = run_instrumented(saves=3)
        for key, value in obs.metrics.snapshot().items():
            assert result.extra[key] == value

    def test_run_span_brackets_the_phases(self):
        obs, _ = run_instrumented(saves=2)
        events = obs.tracer.events()
        starts = [e for e in events if e.type == "span_start"]
        run_span = starts[0]
        assert run_span.name == "run" and run_span.parent is None
        phases = [s.name for s in starts if s.parent == run_span.id]
        for phase in ("run.preload", "run.replay", "run.settle", "run.flush"):
            assert phase in phases


class TestContract:
    def test_every_emitted_name_is_declared(self):
        obs, _ = run_instrumented(saves=3)
        declared = set(EVENT_NAMES)
        assert set(obs.tracer.event_names()) <= declared
        for key in obs.metrics.snapshot():
            family = key.split("{", 1)[0]
            assert family in METRIC_NAMES

    def test_trace_is_valid_jsonl_with_consistent_parents(self):
        obs, _ = run_instrumented(saves=2)
        lines = obs.tracer.to_jsonl().splitlines()
        assert lines
        seen_span_ids = set()
        open_spans = set()
        for line in lines:
            record = json.loads(line)
            assert record["type"] in ("span_start", "span_end", "event")
            assert record["name"] in EVENT_NAMES
            if record["type"] == "span_start":
                assert record["id"] not in seen_span_ids
                seen_span_ids.add(record["id"])
                open_spans.add(record["id"])
            elif record["type"] == "span_end":
                assert record["id"] in open_spans
                open_spans.remove(record["id"])
                assert record["duration"] >= 0
            if record["parent"] is not None:
                assert record["parent"] in seen_span_ids
        assert not open_spans, "spans left open at end of run"

    def test_zero_perturbation_when_disabled(self):
        """Observability must not change a run's results — instrumented and
        plain runs agree on every core number."""
        obs, instrumented = run_instrumented(saves=3)
        plain = run_trace("deltacfs", gedit_trace(saves=3))
        assert instrumented.client_ticks == plain.client_ticks
        assert instrumented.server_ticks == plain.server_ticks
        assert instrumented.up_bytes == plain.up_bytes
        assert instrumented.down_bytes == plain.down_bytes

    def test_snapshots_deterministic_across_runs(self):
        a, _ = run_instrumented(saves=3)
        b, _ = run_instrumented(saves=3)
        assert a.metrics.snapshot() == b.metrics.snapshot()
        assert a.tracer.to_jsonl() == b.tracer.to_jsonl()


class TestCli:
    def test_replay_with_metrics_and_trace_out(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.traceio import save_trace_file

        trace_path = tmp_path / "gedit.trace"
        save_trace_file(gedit_trace(saves=2), str(trace_path))
        out_path = tmp_path / "trace.jsonl"

        rc = main([
            "replay", str(trace_path), "--solution", "deltacfs",
            "--metrics", "--trace-out", str(out_path),
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "client.delta.kept" in output
        assert "trace records" in output
        records = [
            json.loads(line) for line in out_path.read_text().splitlines()
        ]
        # The stream is trace records followed by one metrics snapshot.
        assert records and records[-1]["type"] == "snapshot"
        trace_records = records[:-1]
        assert trace_records
        assert all(r["name"] in EVENT_NAMES for r in trace_records)
        assert records[-1]["metrics"]

    def test_replay_without_flags_prints_no_metrics(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.traceio import save_trace_file

        trace_path = tmp_path / "gedit.trace"
        save_trace_file(gedit_trace(saves=1), str(trace_path))
        rc = main(["replay", str(trace_path)])
        assert rc == 0
        assert "client.delta" not in capsys.readouterr().out


class TestRecoveryParity:
    def test_crash_recovery_identical_with_and_without_instrumentation(self):
        """Instrumenting the crash→recover→verify round trip must not move
        a single byte: every outcome field matches the NULL_OBS run."""
        import dataclasses

        from repro.harness.reliability import crash_recovery_roundtrip

        plain = crash_recovery_roundtrip(seed=7, dirty_writes=4)
        obs = Observability()
        instrumented = crash_recovery_roundtrip(seed=7, dirty_writes=4, obs=obs)

        assert plain.converged and instrumented.converged
        assert dataclasses.asdict(instrumented) == dataclasses.asdict(plain)
        # ... and the instrumented run really was instrumented: the journal
        # and queue machinery showed up in the trace and counters.
        assert obs.tracer.events()
        assert obs.metrics.counter_total("journal.records.written") > 0
