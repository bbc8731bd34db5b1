"""Distributions: the exact fold of event attrs, and its columns in the
text report."""

from repro.obs import Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.render import Distributions, distribution_table, text_report


def byte_fold(values):
    """A fold fed one ``channel.upload`` event per value."""
    fold = Distributions()
    for v in values:
        fold.feed("channel.upload", {"type": "UploadWrite", "bytes": v})
    return fold


def row(fold, family="channel.message.bytes"):
    (found,) = [r for r in fold.rows() if r[0] == family]
    return found[1:]


class TestDistributions:
    def test_a_constant_sample_reads_itself(self):
        count, mean, p50, p90, p99, top = row(byte_fold([500] * 100))
        assert count == 100
        assert mean == p50 == p90 == p99 == top == 500

    def test_a_two_value_split_interpolates_between_its_samples(self):
        # Linear interpolation between the two nearest samples — the one
        # quantile rule of repro.obs.health — whatever the spread.
        _, _, p50, _, _, _ = row(byte_fold([100] * 50 + [500] * 50))
        assert p50 == 300.0

    def test_quantiles_are_the_exact_order_statistics(self):
        values = list(range(100, 5000, 100))  # 49 samples, median 2500
        _, mean, p50, p90, p99, top = row(byte_fold(reversed(values)))
        assert p50 == values[24] == 2500
        assert p90 == values[43] + 0.2 * (values[44] - values[43])
        assert mean == sum(values) / len(values) and top == 4900

    def test_quantiles_are_ordered_and_max_is_the_top_sample(self):
        values = [2 ** i for i in range(4, 24)]  # 16 B .. 8 MB
        _, _, p50, p90, p99, top = row(byte_fold(values))
        assert p50 < p90 <= p99 <= top == 8388608

    def test_no_bound_clamps_a_large_sample(self):
        _, _, p50, _, _, top = row(byte_fold([10 ** 9] * 10))
        assert p50 == top == 10 ** 9

    def test_an_unfed_family_has_no_row(self):
        fold = byte_fold([1])
        assert [r[0] for r in fold.rows()] == ["channel.message.bytes"]
        assert distribution_table(Distributions()) == ""

    def test_one_family_folds_every_event_it_names(self):
        fold = byte_fold([10])
        fold.feed("channel.download", {"type": "HistoryReply", "bytes": 30})
        fold.feed("relation.insert", {"src": "/a", "dst": "/b", "origin": "rename"})
        assert row(fold)[:2] == (2, 20.0)

    def test_a_missing_or_non_numeric_attr_is_skipped(self):
        fold = byte_fold([10])
        fold.feed("channel.upload", {"type": "UploadWrite"})
        fold.feed("channel.upload", {"type": "UploadWrite", "bytes": "12"})
        fold.feed("channel.upload", {"type": "UploadWrite", "bytes": True})
        assert row(fold)[0] == 1


class TestReportColumns:
    def test_report_shows_quantile_columns(self):
        obs = Observability()
        for v in (100, 200, 700):
            obs.event("channel.upload", type="UploadWrite", path="/f",
                      bytes=v, done_at=0.0)
        report = text_report(MetricsRegistry(), None, obs.distributions)
        assert report == obs.report().split("\n\n-- trace")[0]
        header, _, line = report.splitlines()[-3:]
        assert header.split() == [
            "distribution", "count", "mean", "p50", "p90", "p99", "max",
        ]
        # Exact figures, written as the shortest text of each float.
        assert line.split() == [
            "channel.message.bytes", "3", "333.3333333333333", "200",
            "600", "690", "700",
        ]


def _distribution_table(text):
    """The distributions section of a printed report."""
    start = text.index("-- distributions")
    return text[start:].split("\n\n")[0].rstrip("\n")


class TestFleetLatency:
    """The fleet's ``--metrics`` row once read ~p50 3.89 s from a 3–5 s
    bucket while the exact p50 beside it was 3.010 s."""

    def test_the_row_is_the_fleets_exact_quantiles(self):
        from repro.harness.fleet import FleetSpec, run_fleet
        from repro.obs.export import format_number

        obs = Observability()
        result = run_fleet(FleetSpec(n_clients=200, n_shards=4), obs=obs)
        count, _mean, *quantiles = row(obs.distributions, "fleet.sync.latency")
        exact = [result.p50_latency, result.p90_latency, result.p99_latency,
                 result.max_latency]
        assert count == result.writes
        assert quantiles == exact
        (line,) = [
            line for line in obs.report().splitlines()
            if line.startswith("fleet.sync.latency ")
        ]
        assert line.split()[-4:] == [format_number(v) for v in exact]

    def test_a_recorded_run_prints_the_live_table(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "fleet.jsonl"
        assert main(["fleet", "--clients", "200", "--shards", "4",
                     "--trace-out", str(trace), "--metrics"]) == 0
        live = _distribution_table(capsys.readouterr().out)
        assert "fleet.sync.latency" in live
        assert main(["inspect", str(trace)]) == 0
        assert _distribution_table(capsys.readouterr().out) == live


class TestMeasuredWindow:
    """A replay's ``--metrics`` once folded the preload into its
    distributions (20 message sizes against 17 counted messages) while its
    registry, reset when the preload ends, did not."""

    def test_a_preload_event_is_not_folded_live_or_offline(self, tmp_path):
        from repro.obs.analyze import load_trace

        obs = Observability()
        with obs.span("run"):
            with obs.span("run.preload"):
                obs.event("channel.upload", type="UploadWrite", path="/f", bytes=7)
            obs.event("channel.upload", type="UploadWrite", path="/f", bytes=9)
        assert obs.distributions.samples["channel.message.bytes"] == [9]
        path = tmp_path / "t.jsonl"
        obs.tracer.write_jsonl(str(path))
        offline = Distributions.of_trace(load_trace(str(path)))
        assert offline.samples["channel.message.bytes"] == [9]

    def test_a_replay_folds_the_window_its_metrics_count(self, tmp_path, capsys):
        from repro.cli import main

        trace, recorded = tmp_path / "g.trace", tmp_path / "t.jsonl"
        assert main(["trace", "gedit", "--out", str(trace), "--ops", "3"]) == 0
        capsys.readouterr()
        assert main(["replay", str(trace), "--metrics",
                     "--trace-out", str(recorded)]) == 0
        out = capsys.readouterr().out
        metrics = {}
        for line in out[out.index("-- metrics"):out.index("-- distributions")].splitlines():
            series, _, value = line.partition(" ")
            if value.strip():
                metrics[series] = value.split()[0]
        messages = sum(
            float(value) for series, value in metrics.items()
            if series.startswith(("channel.up.messages{", "channel.down.messages{"))
        )
        live = _distribution_table(out)
        counts = {line.split()[0]: int(line.split()[1]) for line in live.splitlines()[3:]}
        assert counts["channel.message.bytes"] == messages == 17
        assert counts["queue.node.payload_bytes"] == float(metrics["queue.nodes.shipped"]) == 14
        assert main(["inspect", str(recorded), "--summary"]) == 0
        assert _distribution_table(capsys.readouterr().out) == live
