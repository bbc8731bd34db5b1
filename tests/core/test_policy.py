"""Mechanism-selection policy: unit behaviour + client wiring.

Covers the policy layer added around the paper's hard-coded trigger:

- ``static`` is the identity — a default-config client and an explicit
  ``sync_policy="static", delta_backend="bitwise"`` client produce
  byte- and tick-identical runs (the parity the fig8/fig9 baselines pin
  at bench scale);
- ``cost-model`` explores first, skips confidently-hopeless paths, and
  re-explores after a run of skips;
- ``always-rpc`` / ``always-delta`` are true bounds;
- every decision is observable under the ``policy.*`` names;
- the multi-hop rename-chain regression (write tmp2; rename tmp2->tmp1;
  rename tmp1->path) reaches its pending data through the fixpoint
  trace-back.
"""

import pytest

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.common.rng import DeterministicRandom
from repro.core.client import DeltaCFSClient
from repro.core.policy import (
    POLICIES,
    CostModelPolicy,
    UpdateStats,
    make_policy,
)
from repro.cost.meter import CostMeter
from repro.net.transport import Channel
from repro.obs import Observability
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem


def build(client_id=1, config=None):
    clock = VirtualClock()
    cm, sm = CostMeter(), CostMeter()
    server = CloudServer(meter=sm)
    channel = Channel(client_meter=cm, server_meter=sm)
    client = DeltaCFSClient(
        MemoryFileSystem(),
        server=server,
        channel=channel,
        clock=clock,
        meter=cm,
        client_id=client_id,
        config=config,
    )
    return clock, client, server, channel


def settle(clock, client, seconds=6.0):
    for _ in range(int(seconds)):
        clock.advance(1.0)
        client.pump()
    client.flush()


def word_save(client, path, new_content, tag):
    t0, t1 = f"/t0-{tag}", f"/t1-{tag}"
    client.rename(path, t0)
    client.create(t1)
    client.write(t1, 0, new_content)
    client.close(t1)
    client.rename(t1, path)
    client.unlink(t0)


@pytest.fixture
def rng():
    return DeterministicRandom(424242)


# ---------------------------------------------------------------------------
# unit behaviour
# ---------------------------------------------------------------------------


class TestMakePolicy:
    def test_every_declared_policy_constructs(self):
        for name in POLICIES:
            assert make_policy(name, "bitwise").backend.name == "bitwise"

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="static"):
            make_policy("vibes", "bitwise")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="registered"):
            make_policy("static", "no-such-backend")

    def test_one_cpu_byte_rate_default(self):
        # A policy built on its own scored encodes CPU-free (0.0) while
        # every client's scored them at 1024 byte-equivalents per tick.
        alone = make_policy("cost-model", "bitwise")
        for config in (None, DeltaCFSConfig(sync_policy="cost-model")):
            client = DeltaCFSClient(
                MemoryFileSystem(), server=CloudServer(), config=config
            )
            assert client.policy.cpu_byte_rate == alone.cpu_byte_rate

    def test_config_validates_policy_names(self):
        with pytest.raises(ValueError, match="sync_policy"):
            DeltaCFSConfig(sync_policy="vibes").validate()
        with pytest.raises(ValueError, match="delta_backend"):
            DeltaCFSConfig(delta_backend="").validate()


class TestStaticPolicyUnit:
    def test_always_plans_an_encode(self):
        policy = make_policy("static", "bitwise")
        plan = policy.plan("/f", 10_000, 10_000, UpdateStats(10_000, 100))
        assert plan.backend is not None
        assert plan.mechanism == "bitwise"
        assert not plan.force_keep


class TestCostModelUnit:
    def _seed_hopeless(self, policy, path="/f", rpc=10_000):
        # Two exploratory encodes whose deltas *lose* to the RPC payload
        # (the discarded-delta case: wire_size came out above rpc_bytes).
        stats = UpdateStats(rpc_bytes=rpc, changed_bytes=rpc)
        for _ in range(CostModelPolicy._MIN_SAMPLES):
            plan = policy.plan(path, rpc, rpc, stats)
            assert plan.backend is not None  # still exploring
            policy.observe_outcome(path, plan, int(rpc * 1.05), rpc)
        return stats

    def test_skips_after_learning_a_hopeless_ratio(self):
        policy = make_policy("cost-model", "bitwise")
        stats = self._seed_hopeless(policy)
        plan = policy.plan("/f", 10_000, 10_000, stats)
        assert plan.backend is None
        assert plan.mechanism == "rpc"

    def test_delta_friendly_path_keeps_encoding(self):
        policy = make_policy("cost-model", "bitwise")
        stats = UpdateStats(rpc_bytes=10_000, changed_bytes=500)
        for _ in range(6):
            plan = policy.plan("/f", 10_000, 10_000, stats)
            assert plan.backend is not None
            policy.observe_outcome("/f", plan, 600, 10_000)

    def test_reexplores_after_a_run_of_skips(self):
        policy = make_policy("cost-model", "bitwise")
        stats = self._seed_hopeless(policy)
        skipped = 0
        for _ in range(CostModelPolicy._RETRY_EVERY - 1):
            assert policy.plan("/f", 10_000, 10_000, stats).backend is None
            skipped += 1
        retry = policy.plan("/f", 10_000, 10_000, stats)
        assert retry.backend is not None  # periodic re-exploration
        assert skipped == CostModelPolicy._RETRY_EVERY - 1

    def test_history_is_per_path(self):
        policy = make_policy("cost-model", "bitwise")
        self._seed_hopeless(policy, path="/hostile")
        # a different path is still in exploration
        other = policy.plan("/fresh", 10_000, 10_000, UpdateStats(10_000, 100))
        assert other.backend is not None

    def test_cpu_cost_tips_a_borderline_path_to_rpc(self):
        # Ratio just under break-even on bytes alone; a nonzero CPU rate
        # must push the scored delta cost past the RPC cost.
        free = make_policy("cost-model", "bitwise", cpu_byte_rate=0.0)
        taxed = make_policy("cost-model", "bitwise", cpu_byte_rate=1e9)
        stats = UpdateStats(rpc_bytes=10_000, changed_bytes=10_000)
        for policy in (free, taxed):
            for _ in range(CostModelPolicy._MIN_SAMPLES):
                plan = policy.plan("/f", 10_000, 10_000, stats)
                policy.observe_outcome("/f", plan, 9_000, 10_000)  # ratio 0.9
        assert free.plan("/f", 10_000, 10_000, stats).backend is not None
        assert taxed.plan("/f", 10_000, 10_000, stats).backend is None

    def test_recovers_when_the_path_turns_delta_friendly(self):
        policy = make_policy("cost-model", "bitwise")
        stats = self._seed_hopeless(policy)
        for _ in range(CostModelPolicy._RETRY_EVERY - 1):
            policy.plan("/f", 10_000, 10_000, stats)
        retry = policy.plan("/f", 10_000, 10_000, stats)
        # the re-exploration measures a tiny delta twice -> EWMA drops
        policy.observe_outcome("/f", retry, 200, 10_000)
        plan = policy.plan("/f", 10_000, 10_000, stats)
        assert plan.backend is not None
        policy.observe_outcome("/f", plan, 200, 10_000)
        assert policy.plan("/f", 10_000, 10_000, stats).backend is not None


class TestBoundingPoliciesUnit:
    def test_always_rpc_never_encodes(self):
        policy = make_policy("always-rpc", "bitwise")
        plan = policy.plan("/f", 10, 10, UpdateStats(10, 10))
        assert plan.backend is None and plan.mechanism == "rpc"

    def test_always_delta_forces_keep(self):
        policy = make_policy("always-delta", "bitwise")
        plan = policy.plan("/f", 10, 10, UpdateStats(10, 10))
        assert plan.backend is not None and plan.force_keep


class TestPolicyObservability:
    def test_decisions_and_estimates_recorded(self):
        obs = Observability()
        policy = make_policy("static", "bitwise", obs=obs)
        plan = policy.plan("/f", 1000, 1000, UpdateStats(1000, 50))
        policy.observe_outcome("/f", plan, 400, 1000)
        snap = obs.metrics.snapshot()
        assert any(k.startswith("policy.decisions") for k in snap)
        assert any(k.startswith("policy.estimate.rpc_bytes") for k in snap)
        assert any(k.startswith("policy.estimate.abs_error_bytes") for k in snap)
        events = [e for e in obs.tracer.events()
                  if e.name == "policy.decision"]
        assert events and events[0].attrs["mechanism"] == "bitwise"


# ---------------------------------------------------------------------------
# client wiring
# ---------------------------------------------------------------------------


class TestStaticParity:
    def test_default_config_is_explicit_static_bitwise(self, rng):
        """The policy refactor is invisible under the default config."""
        base = rng.random_bytes(120_000)
        edit = rng.random_bytes(400)

        def run(config):
            clock, client, server, channel = build(config=config)
            client.create("/doc")
            client.write("/doc", 0, base)
            client.close("/doc")
            settle(clock, client)
            content = base[:60_000] + edit + base[60_400:]
            word_save(client, "/doc", content, "p")
            # an in-place pattern too, to cross _compress_node
            client.write("/doc", 1000, edit)
            client.close("/doc")
            settle(clock, client)
            return (
                channel.stats.up_bytes,
                channel.stats.down_bytes,
                client.meter.total,
                server.file_content("/doc"),
                client.stats.deltas_kept,
            )

        explicit = DeltaCFSConfig(sync_policy="static", delta_backend="bitwise")
        assert run(None) == run(explicit)


class TestBoundingPoliciesEndToEnd:
    def test_always_rpc_ships_raw_writes(self, rng):
        config = DeltaCFSConfig(sync_policy="always-rpc")
        clock, client, server, channel = build(config=config)
        old = rng.random_bytes(150_000)
        client.create("/doc")
        client.write("/doc", 0, old)
        client.close("/doc")
        settle(clock, client)
        before = channel.stats.up_bytes

        new = old[:75_000] + b"EDIT" + old[75_004:]
        word_save(client, "/doc", new, "a")
        settle(clock, client)
        assert server.file_content("/doc") == new
        assert client.stats.deltas_kept == 0
        assert channel.stats.up_bytes - before > len(new)  # the full file moved

    def test_always_delta_keeps_a_losing_delta(self, rng):
        # A totally-new rewrite: static would discard the delta (rpc wins),
        # the forced policy must keep it and still converge.
        config = DeltaCFSConfig(sync_policy="always-delta")
        clock, client, server, channel = build(config=config)
        client.create("/doc")
        client.write("/doc", 0, rng.random_bytes(50_000))
        client.close("/doc")
        settle(clock, client)

        totally_new = rng.random_bytes(50_000)
        word_save(client, "/doc", totally_new, "b")
        settle(clock, client)
        assert server.file_content("/doc") == totally_new
        assert client.stats.deltas_kept >= 1  # static keeps 0 here

    def test_cost_model_converges_like_static(self, rng):
        config = DeltaCFSConfig(sync_policy="cost-model")
        clock, client, server, channel = build(config=config)
        content = rng.random_bytes(100_000)
        client.create("/doc")
        client.write("/doc", 0, content)
        client.close("/doc")
        settle(clock, client)
        for i in range(4):
            content = content[:50_000] + rng.random_bytes(120) + content[50_120:]
            word_save(client, "/doc", content, str(i))
            settle(clock, client)
        assert server.file_content("/doc") == content
        assert client.stats.deltas_kept == 4  # delta-friendly: never skipped


class TestAlternativeBackendsEndToEnd:
    @pytest.mark.parametrize("backend", ["rsync", "cdc-shingle"])
    def test_word_dance_converges_with_a_kept_delta(self, rng, backend):
        config = DeltaCFSConfig(sync_policy="static", delta_backend=backend)
        clock, client, server, channel = build(config=config)
        old = rng.random_bytes(150_000)
        client.create("/doc")
        client.write("/doc", 0, old)
        client.close("/doc")
        settle(clock, client)
        before = channel.stats.up_bytes

        new = old[:75_000] + b"SMALL EDIT" + old[75_010:]
        word_save(client, "/doc", new, "x")
        settle(clock, client)
        assert server.file_content("/doc") == new
        assert client.stats.deltas_kept == 1
        assert channel.stats.up_bytes - before < 30_000  # delta-sized, not file-sized


class TestMultiHopRenameChain:
    # Regression: the pending-data trace-back did one forward pass over the
    # queue, so a chain enqueued as [tmp2->tmp1's data, rename tmp2->tmp1,
    # rename tmp1->path] never connected path back to tmp2's write nodes.

    def test_two_hop_chain_triggers_a_delta(self, rng):
        clock, client, server, channel = build()
        old = rng.random_bytes(120_000)
        client.create("/doc")
        client.write("/doc", 0, old)
        client.close("/doc")
        settle(clock, client)
        before = channel.stats.up_bytes

        new = old[:60_000] + b"EDIT" + old[60_004:]
        client.create("/tmp2")
        client.write("/tmp2", 0, new)
        client.close("/tmp2")
        client.rename("/tmp2", "/tmp1")  # hop 1
        client.rename("/tmp1", "/doc")   # hop 2: triggers against old /doc
        settle(clock, client)
        assert server.file_content("/doc") == new
        assert client.stats.deltas_kept == 1
        assert channel.stats.up_bytes - before < 20_000  # delta, not 120KB

    def test_three_hop_chain_still_connects(self, rng):
        clock, client, server, channel = build()
        old = rng.random_bytes(100_000)
        client.create("/doc")
        client.write("/doc", 0, old)
        client.close("/doc")
        settle(clock, client)

        new = old[:50_000] + b"!" + old[50_001:]
        client.create("/tmp3")
        client.write("/tmp3", 0, new)
        client.close("/tmp3")
        client.rename("/tmp3", "/tmp2")
        client.rename("/tmp2", "/tmp1")
        client.rename("/tmp1", "/doc")
        settle(clock, client)
        assert server.file_content("/doc") == new
        assert client.stats.deltas_kept == 1
