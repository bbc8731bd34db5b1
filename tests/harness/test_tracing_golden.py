"""Golden no-perturbation tests: turning tracing ON must not move a
single bench number.

``BENCH_fleet.json`` and ``BENCH_policy.json`` are produced by
``bench_doc``/``bench_snapshot`` over obs-free runs; these tests rerun
the same specs with a fully active ``Observability`` (named tracer,
bound clock, open spans being recorded) and require bit-identical
floats. Trace context rides the ``Envelope.ctx`` sidecar at zero wire
bytes and the fleet's rollup runs unconditionally, so
any drift here means instrumentation leaked into costed behaviour.
"""

from repro.common.config import DeltaCFSConfig
from repro.harness.fleet import FleetSpec, bench_doc, run_fleet
from repro.harness.runner import bench_snapshot, run_trace
from repro.obs import Observability, Tracer
from repro.workloads.gedit import gedit_trace
from repro.workloads.generators import random_write_trace


def _tracing_obs(source="golden"):
    """A live Observability whose tracer records every span and event."""
    return Observability(tracer=Tracer(source=source))


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
        from repro.obs import NULL_OBS

        bare = self._snapshot(lambda: NULL_OBS)
        traced = self._snapshot(_tracing_obs)
        assert bare == traced

    def test_gedit_run_identical_with_tracing_on(self):
        def one(obs):
            return run_trace("deltacfs", gedit_trace(saves=4), obs=obs)

        from repro.obs import NULL_OBS

        bare, traced = one(NULL_OBS), one(_tracing_obs())
        assert bench_snapshot("g", [bare]) == bench_snapshot("g", [traced])
