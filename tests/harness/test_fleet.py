"""Fleet driver: determinism, arrival mixes, service model, bench doc."""

import pytest

from repro.harness.fleet import (
    FleetSpec,
    bench_doc,
    run_fleet,
)
from repro.obs import Observability


SMALL = dict(n_clients=40, n_shards=4, writes_per_client=2)


class TestRunFleet:
    def test_every_write_gets_a_latency(self):
        result = run_fleet(FleetSpec(**SMALL))
        assert result.writes == 40 * 2
        assert result.p50_latency > 0
        assert result.p99_latency >= result.p50_latency
        assert result.max_latency >= result.p99_latency

    def test_deterministic_across_runs(self):
        a = run_fleet(FleetSpec(**SMALL))
        b = run_fleet(FleetSpec(**SMALL))
        assert a.p50_latency == b.p50_latency
        assert a.p99_latency == b.p99_latency
        assert a.shard_ticks == b.shard_ticks
        assert a.total_up_bytes == b.total_up_bytes
        assert a.duration == b.duration

    def test_seed_changes_outcome(self):
        a = run_fleet(FleetSpec(**SMALL))
        b = run_fleet(FleetSpec(seed=1, **SMALL))
        assert a.duration != b.duration

    def test_all_shards_charged(self):
        result = run_fleet(FleetSpec(n_clients=64, n_shards=4))
        assert all(t > 0 for t in result.shard_ticks)

    def test_latency_includes_debounce_floor(self):
        """Most writes wait out the upload delay (~3 s) before shipping."""
        result = run_fleet(FleetSpec(**SMALL))
        assert result.p50_latency >= 2.9

    def test_bursty_queues_deeper_than_poisson(self):
        base = dict(n_clients=400, n_shards=2, writes_per_client=2,
                    tick_seconds=16.0)
        poisson = run_fleet(FleetSpec(arrival="poisson", **base))
        bursty = run_fleet(FleetSpec(arrival="bursty", **base))
        assert max(bursty.shard_queue_peak) > max(poisson.shard_queue_peak)
        assert bursty.p99_latency > poisson.p99_latency

    def test_no_conflicts_in_private_namespaces(self):
        result = run_fleet(FleetSpec(**SMALL))
        assert result.conflicts == 0
        assert result.migrations == 0

    def test_obs_instrumented_run_matches_null_obs(self):
        """Observability must not perturb the simulation (NULL_OBS parity)."""
        a = run_fleet(FleetSpec(**SMALL))
        obs = Observability()
        b = run_fleet(FleetSpec(**SMALL), obs=obs)
        assert a.p99_latency == b.p99_latency
        assert a.shard_ticks == b.shard_ticks
        snapshot = obs.metrics.snapshot()
        assert snapshot["fleet.writes.issued"] == 80.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fleet(FleetSpec(n_clients=0))
        with pytest.raises(ValueError):
            run_fleet(FleetSpec(arrival="steady"))
        with pytest.raises(ValueError):
            run_fleet(FleetSpec(tick_seconds=0.0))


class TestBenchDoc:
    def test_schema_and_keys(self):
        results = [run_fleet(FleetSpec(**SMALL))]
        doc = bench_doc(results)
        assert doc["bench"] == "fleet"
        assert doc["schema"] == 1
        key = "fleet-40x4-poisson"
        for suffix in ("p50_latency_s", "p99_latency_s", "shard_ticks_max",
                       "ticks_per_client", "up_bytes"):
            assert f"{key}/{suffix}" in doc["metrics"]
        assert all(isinstance(v, float) for v in doc["metrics"].values())
