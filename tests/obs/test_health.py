"""SLO health reports: exact quantiles, the windowed rollup, the
windows-based and trace-based producers, the schema validator, stall
detection, and regression flagging."""

import numpy as np
import pytest

from repro.common.rng import DeterministicRandom
from repro.harness.fleet import FleetSpec, run_fleet
from repro.obs import Observability, Tracer, load_trace_lines
from repro.obs.health import (
    STALL_HORIZON,
    ShardWindows,
    _regressed_windows,
    attainment,
    health_from_trace,
    health_from_windows,
    quantile,
    validate_health_doc,
)


def _samples(n, seed=7, scale=30.0):
    rng = DeterministicRandom(seed)
    return [0.01 + rng.random() * scale for _ in range(n)]


class TestQuantiles:
    def test_empty_reads_zero(self):
        assert quantile([], 0.5) == 0.0
        assert attainment([], 1.0) == 1.0
        assert ShardWindows(1, 10.0).overall_latencies() == []

    def test_endpoints_are_exact(self):
        values = sorted(_samples(500))
        assert quantile(values, 0.0) == min(values)
        assert quantile(values, 1.0) == max(values)
        assert quantile([4.5], 0.99) == 4.5

    @pytest.mark.parametrize("scale", [0.03, 30.0, 30000.0])
    def test_matches_numpy_linear(self, scale):
        """Exact at every magnitude: sub-second, seconds and hours."""
        values = sorted(_samples(5000, scale=scale))
        for q in (0.10, 0.25, 0.50, 0.90, 0.95, 0.99):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12
            )

    def test_interpolates_between_order_statistics(self):
        # rank 0.99 * 3 = 2.97: 0.03 of the third sample, 0.97 of the fourth.
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.99) == 3.0 * 0.03 + 4.0 * 0.97
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_attainment_matches_exact_cdf(self):
        values = sorted(_samples(4000))
        for threshold in (5.0, 15.0, 25.0):
            exact = sum(1 for v in values if v <= threshold) / len(values)
            assert attainment(values, threshold) == exact
        assert attainment(values, 1e9) == 1.0
        assert attainment(values, -1.0) == 0.0

    def test_zero_and_negative_values_are_kept(self):
        values = sorted([0.0, -1.0, 0.0, 5.0])
        assert quantile(values, 0.0) == -1.0
        assert quantile(values, 0.5) == 0.0
        assert quantile(values, 1.0) == 5.0


class TestShardWindows:
    def test_cells_created_lazily_per_shard_window(self):
        rollup = ShardWindows(4, 10.0)
        assert rollup.cells == 0
        rollup.record_latency(0, 5.0, 1.0)
        rollup.record_latency(0, 15.0, 2.0)
        rollup.record_latency(2, 5.0, 3.0)
        assert rollup.cells == 3
        cells = rollup.windows()
        assert [(c.shard, c.window) for c in cells] == [(0, 0), (0, 1), (2, 0)]
        assert cells[0].start == 0.0 and cells[0].end == 10.0

    def test_latency_attributed_to_completion_window(self):
        rollup = ShardWindows(1, 10.0, t0=100.0)
        rollup.record_latency(0, 125.0, 30.0)  # window floor((125-100)/10)=2
        (cell,) = rollup.windows()
        assert cell.window == 2
        assert cell.start == 120.0
        assert cell.writes == 1

    def test_depth_peak_and_busy_accumulate(self):
        rollup = ShardWindows(2, 10.0)
        rollup.record_depth(1, 3.0, 4)
        rollup.record_depth(1, 4.0, 2)
        rollup.record_busy(1, 3.0, 1.5)
        rollup.record_busy(1, 4.0, 0.5)
        (cell,) = rollup.windows()
        assert cell.queue_peak == 4
        assert cell.busy == pytest.approx(2.0)
        assert cell.writes == 0

    def test_shard_and_overall_reads_pool_windows(self):
        rollup = ShardWindows(2, 10.0)
        for ts, lat in [(1.0, 1.0), (11.0, 2.0), (21.0, 3.0)]:
            rollup.record_latency(0, ts, lat)
        rollup.record_latency(1, 1.0, 10.0)
        report = health_from_windows(rollup, slo_seconds=5.0, stall_horizon=60.0)
        assert [(s.writes, s.windows) for s in report.shards] == [(3, 3), (1, 1)]
        assert report.shards[0].p50 == 2.0
        assert rollup.overall_latencies() == [1.0, 2.0, 3.0, 10.0]

    def test_overall_read_equals_one_pool(self):
        values = _samples(2000)
        whole, split = ShardWindows(1, 10.0), ShardWindows(4, 10.0)
        for i, v in enumerate(values):
            whole.record_latency(0, float(i % 50), v)
            split.record_latency(i % 4, float(i % 7), v)
        assert whole.overall_latencies() == split.overall_latencies()
        assert split.overall_latencies() == sorted(values)

    def test_reads_do_not_depend_on_record_order(self):
        values = _samples(1000)
        a, b = ShardWindows(2, 10.0), ShardWindows(2, 10.0)
        for i, v in enumerate(values):
            a.record_latency(i % 2, 1.0, v)
        for i, v in reversed(list(enumerate(values))):
            b.record_latency(i % 2, 1.0, v)
        assert [c.to_dict() for c in a.windows()] == [c.to_dict() for c in b.windows()]

    def test_cells_are_per_shard_window_not_per_sample(self):
        rollup = ShardWindows(2, 10.0)
        for i in range(10_000):
            rollup.record_latency(i % 2, float(i % 100), 3.0)
        assert rollup.cells == 20  # 2 shards x 10 windows
        assert sum(c.writes for c in rollup.windows()) == 10_000

    def test_window_stats_to_dict(self):
        rollup = ShardWindows(1, 10.0)
        rollup.record_latency(0, 5.0, 3.0)
        d = rollup.windows()[0].to_dict()
        assert d["shard"] == 0 and d["writes"] == 1
        assert d["p50"] == 3.0 and d["p99"] == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardWindows(1, 0.0)


def _loaded_rollup(n_shards=2, window=10.0):
    rollup = ShardWindows(n_shards, window)
    for shard in range(n_shards):
        for i in range(20):
            rollup.record_latency(shard, 1.0 + i, 3.0 + shard)
    return rollup


class TestHealthFromWindows:
    def test_healthy_fleet(self):
        report = health_from_windows(
            _loaded_rollup(), slo_seconds=10.0, stall_horizon=60.0
        )
        assert report.kind == "fleet"
        assert report.total_writes == 40
        assert report.attainment == 1.0
        assert report.healthy
        assert [s.shard for s in report.shards] == ["0", "1"]
        assert report.shards[0].p50 == 3.0
        assert report.shards[1].p50 == 4.0

    def test_attainment_reflects_slo_misses(self):
        rollup = ShardWindows(1, 10.0)
        for i in range(90):
            rollup.record_latency(0, float(i % 9), 1.0)
        for i in range(10):
            rollup.record_latency(0, float(i), 100.0)
        report = health_from_windows(rollup, slo_seconds=10.0, stall_horizon=60.0)
        assert report.attainment == 0.9
        assert not report.healthy  # 0.9 < the 0.99 target

    def test_attainment_and_quantiles_are_exact_at_the_slo_edge(self):
        rollup = ShardWindows(1, 10.0)
        for i in range(99):
            rollup.record_latency(0, float(i % 9), 1.0)
        rollup.record_latency(0, 5.0, 15.01)  # just over the objective
        report = health_from_windows(rollup, slo_seconds=15.0, stall_horizon=60.0)
        (shard,) = report.shards
        assert shard.slo_attainment == 0.99
        assert report.attainment == 0.99
        assert shard.p50 == 1.0
        assert shard.max_latency == 15.01
        assert report.healthy  # exactly at the 0.99 target

    def test_stalls_make_unhealthy(self):
        rollup = _loaded_rollup()
        for latency in (60.0, 60.5, 61.0, 90.0):  # at the horizon: no stall
            rollup.record_latency(1, 5.0, latency)
        report = health_from_windows(rollup, slo_seconds=10.0, stall_horizon=60.0)
        assert report.total_stalls == 3
        assert report.shards[1].stalls == 3
        assert report.shards[0].stalls == 0
        assert not report.healthy

    def test_write_weighted_attainment(self):
        rollup = ShardWindows(2, 10.0)
        for i in range(99):  # shard 0: all meet
            rollup.record_latency(0, float(i % 9), 1.0)
        rollup.record_latency(1, 1.0, 100.0)  # shard 1: one miss
        report = health_from_windows(rollup, slo_seconds=10.0, stall_horizon=60.0)
        assert report.shards[0].slo_attainment == 1.0
        assert report.shards[1].slo_attainment == 0.0
        assert report.attainment == pytest.approx(0.99, abs=0.001)

    def test_empty_rollup_is_vacuously_healthy(self):
        report = health_from_windows(
            ShardWindows(2, 10.0), slo_seconds=10.0, stall_horizon=60.0
        )
        assert report.total_writes == 0
        assert report.attainment == 1.0
        assert report.healthy


class TestRegressionFlagging:
    def test_p99_jump_is_flagged(self):
        rollup = ShardWindows(1, 10.0)
        for i in range(10):
            rollup.record_latency(0, 1.0 + i * 0.5, 2.0)  # window 0: p99 ~2
        for i in range(10):
            rollup.record_latency(0, 11.0 + i * 0.5, 20.0)  # window 1: 10x
        report = health_from_windows(rollup, slo_seconds=30.0, stall_horizon=60.0)
        assert report.shards[0].regressed_windows == [1]
        assert report.total_regressions == 1

    def test_sparse_windows_are_skipped(self):
        rollup = ShardWindows(1, 10.0)
        for i in range(10):
            rollup.record_latency(0, 1.0 + i * 0.5, 2.0)
        rollup.record_latency(0, 11.0, 50.0)  # 1 write < min_window_writes
        report = health_from_windows(rollup, slo_seconds=60.0, stall_horizon=90.0)
        assert report.shards[0].regressed_windows == []

    def test_recovery_is_not_a_regression(self):
        rollup = ShardWindows(1, 10.0)
        for i in range(10):
            rollup.record_latency(0, 1.0 + i * 0.5, 20.0)
        for i in range(10):
            rollup.record_latency(0, 11.0 + i * 0.5, 2.0)  # improves
        assert _regressed_windows(rollup.windows()) == []


def _event(name, ts, attrs):
    return {"type": "event", "name": name, "ts": ts, "parent": None,
            "attrs": attrs}


def _ship(path, ts, kind="WriteNode"):
    return _event("queue.node.shipped", ts,
                  {"path": path, "seq": 1, "kind": kind,
                   "payload_bytes": 4, "transactional": False})


def _accept(path, ts):
    return _event("server.version.accepted", ts,
                  {"path": path, "client": 1, "counter": 1})


class TestHealthFromTrace:
    def test_ship_accept_latency_recovered(self):
        records = [
            _ship("/a", 1.0), _accept("/a", 4.0),
            _ship("/b", 2.0), _accept("/b", 2.5),
        ]
        report = health_from_trace(records)
        assert report.kind == "trace"
        assert report.total_writes == 2
        (group,) = report.shards
        assert group.shard == "all"
        assert group.max_latency == pytest.approx(3.0)
        assert report.healthy

    def test_unaccepted_ship_past_horizon_is_a_stall(self):
        records = [
            _ship("/a", 1.0),
            _accept("/b", 200.0),  # unrelated record moves trace end out
            _ship("/b", 199.0),
        ]
        report = health_from_trace(records)
        stalls = {s.shard: s.stalls for s in report.shards}
        assert stalls.get("unassigned") == 1  # /a never accepted, >60s old
        assert report.stall_horizon == STALL_HORIZON == 60.0
        assert not report.healthy

    def test_recent_unaccepted_ship_is_not_a_stall(self):
        records = [_ship("/a", 100.0), _accept("/b", 110.0), _ship("/b", 105.0)]
        report = health_from_trace(records)
        assert report.total_stalls == 0

    def test_slow_acceptance_is_a_stall(self):
        records = [_ship("/a", 1.0), _accept("/a", 100.0)]
        report = health_from_trace(records)
        assert report.total_stalls == 1

    def test_meta_nodes_never_stall(self):
        records = [_ship("/dir", 1.0, kind="MetaNode"), _accept("/x", 500.0),
                   _ship("/x", 499.0)]
        report = health_from_trace(records)
        assert report.total_stalls == 0

    def test_doc_round_trips_through_validator(self):
        records = [_ship("/a", 1.0), _accept("/a", 2.0)]
        report = health_from_trace(records)
        assert validate_health_doc(report.to_dict()) == []

    def test_fleet_completions_replace_ship_accept_matching(self):
        completed = [
            _event("fleet.run.started", 0.0,
                   {"shards": 3, "t0": 0.0, "window_seconds": 20.0,
                    "slo_seconds": 10.0, "stall_horizon": 60.0}),
            _event("fleet.sync.completed", 5.0,
                   {"shard": 1, "client": 2, "latency": 3.0, "done": 8.0}),
            _event("fleet.sync.completed", 5.0,
                   {"shard": 0, "client": 1, "latency": 70.0, "done": 75.0}),
        ]
        # A seed upload's ship and accept, and one never accepted: neither
        # is a measured write.
        records = [_ship("/a", 0.0), _accept("/a", 0.0), _ship("/b", 0.0)]
        report = health_from_trace(records + completed)
        assert [s.shard for s in report.shards] == ["0", "1", "2"]
        assert [s.writes for s in report.shards] == [1, 1, 0]
        assert [s.max_latency for s in report.shards] == [70.0, 3.0, 0.0]
        assert [s.stalls for s in report.shards] == [1, 0, 0]
        assert [s.windows for s in report.shards] == [1, 1, 0]
        assert (report.slo_seconds, report.window_seconds) == (10.0, 20.0)

    def test_a_trace_of_several_runs_is_refused(self):
        run = _event("fleet.run.started", 0.0,
                     {"shards": 1, "t0": 0.0, "window_seconds": 20.0,
                      "slo_seconds": 15.0, "stall_horizon": 60.0})
        with pytest.raises(ValueError, match="2 fleet runs"):
            health_from_trace([run, run])


@pytest.mark.parametrize("arrival", ["poisson", "bursty"])
def test_a_fleet_trace_recovers_the_live_report(arrival):
    # The offline report of a fleet trace is the one the run printed,
    # field for field, although debounce and shard queueing happen in the
    # driver, not the pipeline. Every objective is off its default — the
    # trace's run record carries them — and both sit inside the latency
    # spread, so attainment and stalls are compared on real splits.
    spec = FleetSpec(
        n_clients=200, n_shards=4, writes_per_client=3, arrival=arrival,
        slo_seconds=3.0102, stall_horizon=3.015, window_seconds=10.0,
    )
    obs = Observability(tracer=Tracer())
    live = run_fleet(spec, obs=obs).health().to_dict()
    doc = load_trace_lines(obs.tracer.to_jsonl().splitlines())
    offline = health_from_trace(doc).to_dict()
    assert (live.pop("kind"), offline.pop("kind")) == ("fleet", "trace")
    assert offline == live
    assert live["writes"] == 600
    assert 0.0 < live["attainment"] < 1.0
    assert 0 < live["stalls"] < 600
    assert all(s["windows"] > 1 for s in live["shards"])


class TestValidateHealthDoc:
    def _valid(self):
        return health_from_windows(
            _loaded_rollup(), slo_seconds=10.0, stall_horizon=60.0
        ).to_dict()

    def test_valid_doc_passes(self):
        assert validate_health_doc(self._valid()) == []

    def test_non_dict_rejected(self):
        assert validate_health_doc([1, 2]) != []

    def test_missing_field_reported(self):
        doc = self._valid()
        del doc["attainment"]
        assert any("attainment" in p for p in validate_health_doc(doc))

    def test_wrong_type_reported(self):
        doc = self._valid()
        doc["writes"] = "forty"
        assert any("writes" in p for p in validate_health_doc(doc))

    def test_bool_does_not_pass_as_int(self):
        doc = self._valid()
        doc["stalls"] = True  # bool is an int subclass; must still fail
        assert any("stalls" in p for p in validate_health_doc(doc))

    def test_unknown_schema_version_rejected(self):
        doc = self._valid()
        doc["schema"] = 99
        assert any("schema" in p for p in validate_health_doc(doc))

    def test_shard_stall_sum_mismatch_rejected(self):
        doc = self._valid()
        doc["stalls"] = 7
        assert any("stalls" in p for p in validate_health_doc(doc))

    def test_attainment_range_enforced(self):
        doc = self._valid()
        doc["attainment"] = 1.5
        assert any("attainment" in p for p in validate_health_doc(doc))

    def test_malformed_shard_entry_reported(self):
        doc = self._valid()
        doc["shards"][0] = "not a dict"
        assert any("shards[0]" in p for p in validate_health_doc(doc))


class TestFleetResultHealth:
    def test_run_fleet_health_report_is_valid_and_matches_exact(self):
        from repro.harness.fleet import FleetSpec, run_fleet

        result = run_fleet(
            FleetSpec(n_clients=40, n_shards=4, writes_per_client=2)
        )
        report = result.health()
        assert report.total_writes == 80
        assert validate_health_doc(report.to_dict()) == []
        # Debounce floor ~3s << default 15s SLO: full attainment.
        assert report.attainment == 1.0
        assert report.total_stalls == 0
        assert report.healthy
        # Per-shard writes reconcile with the recorded samples.
        assert sum(s.writes for s in report.shards) == 80
        assert report.to_dict()["schema"] == 2
        assert "sketch_alpha" not in report.to_dict()

    def test_custom_slo_flips_health(self):
        from repro.harness.fleet import FleetSpec, run_fleet

        result = run_fleet(
            FleetSpec(n_clients=40, n_shards=4, writes_per_client=2, slo_seconds=0.001)
        )
        strict = result.health()
        assert strict.attainment < 0.99
        assert not strict.healthy

    def test_fleet_quantiles_are_the_recorded_order_statistics(self):
        from repro.harness.fleet import FleetSpec, run_fleet
        from repro.obs import Observability, Tracer

        obs = Observability(tracer=Tracer())  # buffered: the events stay
        result = run_fleet(FleetSpec(n_clients=200, n_shards=4), obs=obs)
        values = sorted(
            e.attrs["latency"]
            for e in obs.tracer.events()
            if e.name == "fleet.sync.completed"
        )
        assert len(values) == result.writes
        for q, reported in (
            (0.50, result.p50_latency),
            (0.90, result.p90_latency),
            (0.99, result.p99_latency),
        ):
            pos = q * (len(values) - 1)
            lo = int(pos)
            frac = pos - lo
            assert reported == values[lo] * (1.0 - frac) + values[lo + 1] * frac
        assert result.max_latency == values[-1]
        assert result.p50_latency < result.p90_latency < result.p99_latency
