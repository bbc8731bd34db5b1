"""Golden no-perturbation tests: turning tracing ON must not move a
single bench number.

``BENCH_fleet.json`` and ``BENCH_policy.json`` are produced by
``bench_doc``/``bench_snapshot`` over obs-free runs; these tests rerun
the same specs with a fully active ``Observability`` (bound clock, open
spans being recorded) and require bit-identical floats, over a perfect
link and over a lossy one through the reliable transport. The fleet's
rollup runs unconditionally, so any drift here means instrumentation
leaked into costed behaviour.
"""

from repro.common.config import DeltaCFSConfig
from repro.faults.network import NetworkFaults
from repro.harness.fleet import FleetSpec, bench_doc, run_fleet
from repro.harness.runner import bench_snapshot, build_system, measured_run, run_trace
from repro.obs import NULL_OBS, Observability
from repro.workloads.gedit import gedit_trace
from repro.workloads.generators import random_write_trace
from repro.workloads.traces import replay


def _tracing_obs():
    """A live Observability whose tracer records every span and event."""
    return Observability()


SMALL_FLEET = dict(n_clients=40, n_shards=4, writes_per_client=2)


class TestFleetGolden:
    def test_bench_doc_identical_with_tracing_on(self):
        bare = run_fleet(FleetSpec(**SMALL_FLEET))
        traced = run_fleet(FleetSpec(**SMALL_FLEET), obs=_tracing_obs())
        assert bench_doc([bare]) == bench_doc([traced])

    def test_every_fleet_result_field_identical(self):
        bare = run_fleet(FleetSpec(**SMALL_FLEET))
        obs = _tracing_obs()
        traced = run_fleet(FleetSpec(**SMALL_FLEET), obs=obs)
        # The tracer really recorded the run — this is not a no-op obs.
        assert obs.tracer.events(), "tracing obs recorded nothing"
        for field in (
            "writes",
            "duration",
            "p50_latency",
            "p90_latency",
            "p99_latency",
            "max_latency",
            "total_up_bytes",
            "shard_ticks",
            "shard_busy",
            "shard_queue_peak",
            "stalls",
            "migrations",
            "conflicts",
        ):
            assert getattr(bare, field) == getattr(traced, field), field

    def test_bursty_arrival_identical_with_tracing_on(self):
        spec = dict(SMALL_FLEET, arrival="bursty")
        bare = run_fleet(FleetSpec(**spec))
        traced = run_fleet(FleetSpec(**spec), obs=_tracing_obs())
        assert bench_doc([bare]) == bench_doc([traced])

    def test_health_report_identical_with_tracing_on(self):
        bare = run_fleet(FleetSpec(**SMALL_FLEET)).health()
        traced = run_fleet(FleetSpec(**SMALL_FLEET), obs=_tracing_obs()).health()
        assert bare.to_dict() == traced.to_dict()


class TestPolicyGolden:
    """The BENCH_policy lane: run_trace under each mechanism policy."""

    def _snapshot(self, obs_factory):
        results = []
        for policy in ("static", "cost-model", "always-rpc", "always-delta"):
            config = DeltaCFSConfig(enable_checksums=False, sync_policy=policy)
            trace = random_write_trace(writes=6)
            result = run_trace(
                "deltacfs", trace, config=config, obs=obs_factory()
            )
            result.extra["setting"] = f"policy-{policy}"
            results.append(result)
        return bench_snapshot("policy", results)

    def test_policy_numbers_identical_with_tracing_on(self):
        bare = self._snapshot(lambda: NULL_OBS)
        traced = self._snapshot(_tracing_obs)
        assert bare == traced

    def test_gedit_run_identical_with_tracing_on(self):
        def one(obs):
            return run_trace("deltacfs", gedit_trace(saves=4), obs=obs)

        bare, traced = one(NULL_OBS), one(_tracing_obs())
        assert bench_snapshot("g", [bare]) == bench_snapshot("g", [traced])


class TestReliableGolden:
    """The lossy lane: envelopes, acks, SACKs and retransmits through the
    reliable transport, with tracing off and on."""

    LOSSY = dict(
        faults=NetworkFaults(drop_prob=0.2, dup_prob=0.1, reorder_prob=0.1),
        fault_seed=5,
    )

    def _run(self, obs):
        """The bench snapshot of one lossy gedit run, and the transport of
        the same drive through ``build_system``."""
        snapshot = bench_snapshot(
            "g", [run_trace("deltacfs", gedit_trace(saves=4), obs=obs, **self.LOSSY)]
        )
        trace = gedit_trace(saves=4)
        system = build_system("deltacfs", obs=obs, **self.LOSSY)
        with measured_run(system, trace, obs) as pump:
            replay(trace, system.fs, system.clock, pump=pump)
        return snapshot, system.transport

    def test_lossy_run_identical_with_tracing_on(self):
        obs = _tracing_obs()
        bare_snapshot, bare = self._run(NULL_OBS)
        traced_snapshot, traced = self._run(obs)
        assert obs.tracer.events(), "tracing obs recorded nothing"
        assert bare.stats.retransmits > 0 and bare.stats.sacks > 0
        assert bare_snapshot == traced_snapshot
        assert bare.stats == traced.stats
        assert bare.retransmit_log == traced.retransmit_log
