"""Offline trace analysis: span trees, rollups, critical path, and the
byte-exact uplink cost attribution (the ISSUE-4 tentpole)."""

import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.network import NetworkFaults
from repro.harness.runner import run_trace
from repro.net.reliable import RetryPolicy
from repro.obs import Observability
from repro.obs.analyze import (
    Attribution,
    AttributionError,
    TraceFormatError,
    _apportion,
    attribute_uplink,
    critical_path,
    event_counts,
    load_trace_lines,
    span_rollup,
)
from repro.obs.export import snapshot_record
from repro.sim import Simulation
from repro.workloads import gedit_trace

# One line each; every one used to escape the loader as a bare KeyError,
# ValueError or TypeError (tests/test_cli.py feeds them to the CLI too).
MALFORMED_RECORDS = (
    '{"type":"span_start"}',
    '{"type":"span_start","name":"run","id":"x","parent":null,"ts":0.0}',
    '{"type":"span_start","id":1,"parent":null,"ts":0.0}',
    '{"type":"span_start","name":"run","id":1,"parent":null,"ts":"abc"}',
    '{"type":"event","name":"channel.upload","parent":"q","ts":0.0}',
    '{"type":"event","name":"channel.upload","parent":null,"ts":0.0,"attrs":[1,2]}',
)


def record_run(solution="deltacfs", saves=3, **kwargs):
    """One instrumented run -> (RunResult, TraceDoc with snapshot)."""
    obs = Observability()
    result = run_trace(solution, gedit_trace(saves=saves), obs=obs, **kwargs)
    lines = obs.tracer.to_jsonl().splitlines()
    lines.append(json.dumps(snapshot_record(obs.metrics, obs.clock.now())))
    return result, load_trace_lines(lines)


class TestLoader:
    def test_rebuilds_the_span_tree(self):
        _, doc = record_run()
        (root,) = doc.roots
        assert root.name == "run"
        assert root.attrs["solution"] == "deltacfs"
        child_names = {c.name for c in root.children}
        assert {"run.preload", "run.replay", "run.settle", "run.flush"} <= child_names
        assert not any(s.truncated for s in doc.spans.values())
        assert doc.snapshot is not None

    def test_total_and_self_time(self):
        _, doc = record_run()
        (root,) = doc.roots
        assert root.duration > 0
        # Self time excludes child durations and never goes negative.
        assert 0 <= root.self_time <= root.duration
        replay = doc.find_spans("run.replay")[0]
        assert replay.duration >= sum(c.duration for c in replay.children)

    def test_rollup_sorted_by_total(self):
        _, doc = record_run()
        rows = span_rollup(doc)
        assert rows[0].name == "run"
        totals = [r.total for r in rows]
        assert totals == sorted(totals, reverse=True)
        by_name = {r.name: r for r in rows}
        assert by_name["run"].count == 1
        assert by_name["client.upload_unit"].count >= 1

    def test_critical_path_descends_longest_children(self):
        _, doc = record_run()
        path = critical_path(doc)
        assert path[0].name == "run"
        for parent, child in zip(path, path[1:]):
            assert child in parent.children
            assert child.duration == max(c.duration for c in parent.children)

    def test_event_counts(self):
        _, doc = record_run()
        counts = dict(event_counts(doc))
        assert counts["client.delta.kept"] == 3

    def test_unclosed_spans_marked_truncated(self):
        lines = [
            json.dumps({"type": "span_start", "name": "run", "id": 1,
                        "parent": None, "ts": 0.0, "attrs": {}}),
            json.dumps({"type": "event", "name": "channel.upload", "parent": 1,
                        "ts": 2.0, "attrs": {"type": "MetaOp", "path": "/f",
                                             "bytes": 10, "done_at": 2.1}}),
        ]
        doc = load_trace_lines(lines)
        (root,) = doc.roots
        assert root.truncated
        assert root.end == 2.0  # closed at the last observed timestamp

    def test_a_span_whose_parent_never_started_is_an_orphan_root(self):
        """Its own id as parent included: the tree stays acyclic, so the
        ancestor walk of attribution ends."""
        lines = [
            json.dumps({"type": "span_start", "name": "run", "id": 1,
                        "parent": 1, "ts": 0.0}),
            json.dumps({"type": "span_start", "name": "client.pack", "id": 2,
                        "parent": 9, "ts": 0.0}),
            json.dumps({"type": "event", "name": "channel.upload", "parent": 1,
                        "ts": 1.0, "attrs": {"type": "MetaOp", "bytes": 3}}),
        ]
        doc = load_trace_lines(lines)
        assert [(s.id, s.parent, s.orphan) for s in doc.roots] == [
            (1, None, True), (2, None, True)
        ]
        assert attribute_uplink(doc).total_bytes == 3

    def test_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            load_trace_lines(["not json"])
        with pytest.raises(TraceFormatError):
            load_trace_lines([json.dumps({"no": "type"})])
        with pytest.raises(TraceFormatError):
            load_trace_lines([json.dumps(
                {"type": "span_end", "name": "run", "id": 9, "parent": None,
                 "ts": 1.0, "duration": 1.0})])
        for line in MALFORMED_RECORDS:
            with pytest.raises(TraceFormatError, match="^line 1: "):
                load_trace_lines([line])

    def test_a_snapshot_holds_numbers_only(self):
        """A snapshot's ``metrics`` map series to numbers; an object value
        (the bucket dict an old histogram wrote) is a clean format error."""
        bucketed = json.dumps({"type": "snapshot", "ts": 1.0, "metrics": {
            "client.pack.count": 2.0,
            "channel.message.bytes": {"count": 1, "sum": 9.0, "buckets": {}},
        }})
        with pytest.raises(TraceFormatError, match="values must be numbers"):
            load_trace_lines([bucketed])
        doc = load_trace_lines([json.dumps(
            {"type": "snapshot", "ts": 1.0, "metrics": {"client.pack.count": 2}})])
        assert doc.snapshot["metrics"] == {"client.pack.count": 2}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_recordings_load_or_fail_cleanly(self, data):
        """Fuzz the last unfuzzed decoder: whatever is done to a recorded
        trace, the loader answers with a TraceDoc or a TraceFormatError."""
        lines = list(_recorded_lines())
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(lines) - 1))
            mutation = data.draw(st.sampled_from(("drop", "swap", "cut", "shuffle")))
            if mutation == "cut":
                lines[at] = lines[at][: data.draw(st.integers(0, len(lines[at])))]
            elif mutation == "shuffle":
                lines = data.draw(st.permutations(lines))
            else:
                # Aim at a top-level key or at one inside attrs / metrics.
                try:
                    record = holder = json.loads(lines[at])
                except ValueError:  # an earlier cut got here first
                    continue
                if not isinstance(record, dict) or not record:
                    continue
                nested = [v for v in record.values() if isinstance(v, dict) and v]
                if nested and data.draw(st.booleans()):
                    holder = data.draw(st.sampled_from(nested))
                key = data.draw(st.sampled_from(sorted(holder)))
                if mutation == "drop":
                    del holder[key]
                else:
                    holder[key] = data.draw(_JSON_VALUES)
                lines[at] = json.dumps(record)
        try:
            doc = load_trace_lines(lines)
        except TraceFormatError:
            return
        assert len(doc.records) <= len(lines)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@functools.cache
def _recorded_lines():
    """A small lossy recording (client and cloud in one tracer, with
    retransmits, and a snapshot line): the valid input the fuzz test
    damages."""
    obs = Observability()
    sim = Simulation(obs=obs, faults=NetworkFaults(drop_prob=0.2))
    sim.client.create("/f")
    sim.client.write("/f", 0, b"x" * 5000)
    sim.client.close("/f")
    sim.settle()
    sim.flush()
    lines = obs.tracer.to_jsonl().splitlines()
    lines.append(json.dumps(snapshot_record(obs.metrics, sim.clock.now())))
    doc = load_trace_lines(lines)  # undamaged, it loads
    assert doc.snapshot and doc.find_spans("server.apply")
    assert any(e["name"] == "transport.timeout" for e in doc.point_events())
    return tuple(lines)


class TestApportion:
    def test_exact_split(self):
        shares = _apportion(100, [1, 1, 1])
        assert sum(shares) == 100
        assert shares == [34, 33, 33]

    def test_weights_respected(self):
        assert _apportion(10, [9, 1]) == [9, 1]

    def test_zero_weights_split_evenly(self):
        shares = _apportion(7, [0, 0])
        assert sum(shares) == 7

    def test_empty(self):
        assert _apportion(5, []) == []

    def test_always_sums_exactly(self):
        for total in (0, 1, 17, 999):
            for weights in ([3, 7, 11], [1], [5, 5, 5, 5], [0, 2]):
                assert sum(_apportion(total, weights)) == total


class TestAttribution:
    def test_reconciles_exactly_for_every_solution(self):
        for solution in ("deltacfs", "nfs", "dropbox", "seafile", "fullsync"):
            result, doc = record_run(solution)
            att = attribute_uplink(doc)
            att.reconcile(expected_up_bytes=result.up_bytes)
            assert att.total_bytes == result.up_bytes

    def test_deltacfs_bytes_land_on_the_real_file(self):
        result, doc = record_run("deltacfs")
        att = attribute_uplink(doc)
        by_path = att.by_path()
        # The gedit dance edits /notes.txt; that's where the bytes must go.
        assert max(by_path, key=by_path.get) == "/notes.txt"
        assert "txn_group" in att.by_mechanism()

    def test_nfs_is_rpc(self):
        _, doc = record_run("nfs")
        mech = attribute_uplink(doc).by_mechanism()
        assert mech.get("rpc", 0) > 0.9 * sum(mech.values())

    def test_lossy_reliable_run_reconciles_and_shows_overhead(self):
        result, doc = record_run(
            "deltacfs",
            faults=NetworkFaults(drop_prob=0.3, dup_prob=0.15),
            retry=RetryPolicy(),
            fault_seed=11,
        )
        att = attribute_uplink(doc)
        att.reconcile(expected_up_bytes=result.up_bytes)
        mech = att.by_mechanism()
        assert mech.get("retransmit_overhead", 0) > 0
        # Snapshot cross-check happened too (snapshot embedded).
        assert att.snapshot_up_bytes == att.total_bytes

    def test_many_seeds_stay_exact(self):
        for seed in range(4):
            result, doc = record_run(
                "deltacfs",
                faults=NetworkFaults(drop_prob=0.4, dup_prob=0.2,
                                     reorder_prob=0.1),
                retry=RetryPolicy(),
                fault_seed=seed,
            )
            attribute_uplink(doc).reconcile(expected_up_bytes=result.up_bytes)

    def test_preload_traffic_excluded(self):
        result, doc = record_run("deltacfs")
        att = attribute_uplink(doc)
        assert att.preload_bytes > 0  # gedit preloads /notes.txt
        assert att.total_bytes == result.up_bytes  # and it is not counted

    def test_drift_raises(self):
        result, doc = record_run("deltacfs")
        att = attribute_uplink(doc)
        with pytest.raises(AttributionError):
            att.reconcile(expected_up_bytes=result.up_bytes + 1)
        tampered = Attribution(
            rows=att.rows,
            total_bytes=att.total_bytes - 5,
            channel_up_bytes=att.channel_up_bytes,
            preload_bytes=att.preload_bytes,
            snapshot_up_bytes=att.snapshot_up_bytes,
        )
        with pytest.raises(AttributionError):
            tampered.reconcile()

    def test_two_lossy_clients_are_charged_their_own_bytes(self):
        """Msg ids are per-client counters: the join keys on the client
        too, so client a's envelopes never take client b's paths."""
        obs = Observability()
        sim = Simulation(
            clients=2,
            obs=obs,
            faults=NetworkFaults(drop_prob=0.3, dup_prob=0.1),
            fault_seed=3,
        )
        a, b = sim.clients
        pairs = ((a, "/fa"), (b, "/fb"))
        for client, path in pairs:
            client.create(path)
        for i in range(30):
            for client, path in pairs:
                client.write(path, 100 * i, bytes([i]) * 2000)
                client.close(path)
            sim.settle(2)
        sim.settle()
        sim.flush()
        lines = obs.tracer.to_jsonl().splitlines()
        lines.append(json.dumps(snapshot_record(obs.metrics, sim.clock.now())))
        att = attribute_uplink(load_trace_lines(lines))
        att.reconcile()
        assert att.by_path() == {
            "/fa": a.channel.stats.up_bytes,
            "/fb": b.channel.stats.up_bytes,
        }

    @pytest.mark.parametrize("name, key, attrs", [
        ("channel.upload", "bytes", {"type": "MetaOp", "bytes": "x"}),
        ("transport.enqueued", "client", {"client": "x", "msg_id": 1}),
        ("transport.enqueued", "msg_id", {"client": 1, "msg_id": None}),
        ("transport.send", "attempt", {"client": 1, "msg_id": 1, "attempt": "2"}),
        ("transport.send", "msg_id", {"client": 1, "msg_id": [1], "attempt": 1}),
    ])
    def test_a_non_number_attr_is_a_format_error(self, name, key, attrs):
        """The join's numeric attrs are checked where it reads them: a bad
        one is a TraceFormatError naming the event and the attr, never a
        bare ValueError or TypeError."""
        doc = load_trace_lines([json.dumps(
            {"type": "event", "name": name, "parent": None, "ts": 0.0, "attrs": attrs})])
        with pytest.raises(TraceFormatError, match=f"^{name}: attr '{key}' must be a number"):
            attribute_uplink(doc)

    @pytest.mark.parametrize("member_bytes", [["x"], "12", [float("inf")]])
    def test_a_non_number_member_size_is_a_format_error(self, member_bytes):
        doc = load_trace_lines([
            json.dumps({"type": "span_start", "name": "client.upload_unit", "id": 1,
                        "parent": None, "ts": 0.0,
                        "attrs": {"paths": ["/f"], "member_bytes": member_bytes}}),
            json.dumps({"type": "event", "name": "transport.enqueued", "parent": 1,
                        "ts": 0.0, "attrs": {"client": 1, "msg_id": 1}}),
        ])
        with pytest.raises(TraceFormatError, match="^client.upload_unit: attr 'member_bytes'"):
            attribute_uplink(doc)

    def test_rows_sorted_by_bytes(self):
        _, doc = record_run("deltacfs")
        rows = attribute_uplink(doc).rows
        assert [r.bytes for r in rows] == sorted(
            (r.bytes for r in rows), reverse=True
        )
