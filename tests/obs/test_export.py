"""Exporters: Chrome trace-event JSON and OpenMetrics text exposition."""

import json

from repro.harness.runner import run_trace
from repro.obs import Observability
from repro.obs.analyze import load_trace_lines
from repro.obs.export import (
    check_openmetrics,
    chrome_trace_events,
    registry_openmetrics,
    snapshot_record,
    to_chrome_trace,
    to_openmetrics,
    write_chrome_trace,
)
from repro.obs.registry import MetricsRegistry
from repro.workloads import gedit_trace


def recorded_obs(saves=2):
    obs = Observability()
    run_trace("deltacfs", gedit_trace(saves=saves), obs=obs)
    return obs


class TestChromeTrace:
    def test_round_trips_through_json_loads(self):
        obs = recorded_obs()
        doc = json.loads(to_chrome_trace(e.to_dict() for e in obs.tracer.events()))
        assert doc["traceEvents"]
        assert doc["otherData"]["clock"] == "virtual"

    def test_b_e_pairs_balance(self):
        obs = recorded_obs()
        events = chrome_trace_events(e.to_dict() for e in obs.tracer.events())
        assert sum(1 for e in events if e["ph"] == "B") == sum(
            1 for e in events if e["ph"] == "E"
        )
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)

    def test_timestamps_are_microseconds(self):
        records = [
            {"type": "span_start", "name": "run", "id": 1, "parent": None,
             "ts": 1.5, "attrs": {}},
            {"type": "span_end", "name": "run", "id": 1, "parent": None,
             "ts": 2.0, "duration": 0.5},
        ]
        begin, end = chrome_trace_events(records)
        assert begin["ts"] == 1_500_000
        assert end["ts"] == 2_000_000

    def test_unclosed_spans_get_synthesized_ends(self):
        records = [
            {"type": "span_start", "name": "run", "id": 1, "parent": None,
             "ts": 0.0, "attrs": {}},
            {"type": "span_start", "name": "run.replay", "id": 2, "parent": 1,
             "ts": 1.0, "attrs": {}},
            {"type": "event", "name": "channel.upload", "parent": 2,
             "ts": 3.0, "attrs": {}},
        ]
        events = chrome_trace_events(records)
        ends = [e for e in events if e["ph"] == "E"]
        assert [e["name"] for e in ends] == ["run.replay", "run"]  # LIFO
        assert all(e["ts"] == 3_000_000 for e in ends)

    def test_snapshot_record_skipped(self):
        records = [{"type": "snapshot", "ts": 5.0, "metrics": {}}]
        assert chrome_trace_events(records) == []

    def test_write_file(self, tmp_path):
        obs = recorded_obs()
        out = tmp_path / "chrome.json"
        n = write_chrome_trace(
            (e.to_dict() for e in obs.tracer.events()), str(out)
        )
        assert n > 0
        assert len(json.loads(out.read_text())["traceEvents"]) == n


class TestOpenMetrics:
    def test_live_registry_passes_self_check(self):
        obs = recorded_obs()
        text = registry_openmetrics(obs.metrics)
        assert check_openmetrics(text) == []
        assert text.endswith("# EOF\n")

    def test_counter_sample_naming(self):
        reg = MetricsRegistry()
        reg.inc("channel.up.bytes", 123, type="UploadWrite")
        text = registry_openmetrics(reg)
        assert '# TYPE channel_up_bytes counter' in text
        assert 'channel_up_bytes_total{type="UploadWrite"} 123' in text

    def test_distributions_stay_out_of_the_exposition(self):
        """The snapshot holds counters and gauges; a distribution's exact
        figures are folded from the trace, so none is exposed here."""
        obs = recorded_obs()
        assert obs.distributions.samples["channel.message.bytes"]
        text = registry_openmetrics(obs.metrics)
        assert "channel_message_bytes" not in text
        assert "_bucket" not in text
        assert check_openmetrics(text) == []

    def test_from_embedded_snapshot(self):
        obs = recorded_obs()
        lines = obs.tracer.to_jsonl().splitlines()
        lines.append(json.dumps(snapshot_record(obs.metrics, obs.clock.now())))
        doc = load_trace_lines(lines)
        text = to_openmetrics(doc.snapshot["metrics"])
        assert check_openmetrics(text) == []
        # The same totals survive the JSONL round trip.
        total = obs.metrics.counter_total("channel.up.bytes")
        assert f"{total:g}".split(".")[0] in text.replace(".0", "")

    def test_self_check_catches_breakage(self):
        assert check_openmetrics("") != []
        assert check_openmetrics("foo 1\n") != []  # no EOF
        assert check_openmetrics("# EOF\nfoo 1\n") != []  # content after EOF
        assert check_openmetrics(
            "# TYPE a counter\nb_total 1\n# EOF\n"
        ) != []  # sample outside its family
        assert check_openmetrics(
            "# TYPE a counter\na_total nope\n# EOF\n"
        ) != []  # non-numeric value
        assert check_openmetrics("# TYPE a counter\na_total 1\n# EOF\n") == []
