"""Policy sweep — what mechanism selection buys, bracketed by its bounds.

Runs every benchmark trace under the four sync policies and checks the
acceptance bars of the policy work:

- ``static`` reproduces the fig8 DeltaCFS rows *exactly* (byte- and
  tick-identical) — the refactor is invisible under the default policy;
- ``cost-model`` never pays more uplink than the better of the two
  bounding policies plus 5%;
- the bounds actually bracket: ``always-rpc`` is catastrophic on the
  delta-friendly Word trace.

A second test joins one instrumented cost-model run against the offline
cost attribution (the ISSUE-4 machinery): the attribution reconciles
byte-exactly and the ``policy.*`` telemetry is present.
"""

import json

from conftest import regenerate

from repro.common.config import DeltaCFSConfig
from repro.harness.experiments import (
    PC_NETWORK,
    PC_PROFILE,
    SWEEP_POLICIES,
    fig8_network_pc,
)
from repro.harness.runner import run_trace
from repro.obs import Observability
from repro.obs.analyze import attribute_uplink, load_trace_lines
from repro.obs.export import snapshot_record
from repro.workloads import word_trace


def test_policy_sweep(benchmark):
    results = regenerate(benchmark, "policy")
    by_key = {(r.extra["setting"], r.trace): r for r in results}
    traces = sorted({r.trace for r in results})
    assert {r.extra["setting"] for r in results} == {
        f"policy-{p}" for p in SWEEP_POLICIES
    }

    # static == the committed fig8 deltacfs rows, byte- and tick-identical
    fig8 = {r.trace: r for r in fig8_network_pc(fast=False) if r.solution == "deltacfs"}
    for trace in traces:
        static = by_key[("policy-static", trace)]
        assert static.up_bytes == fig8[trace].up_bytes, trace
        assert static.client_ticks == fig8[trace].client_ticks, trace

    # cost-model <= min(bounds) + 5% on every trace, and static <= always-rpc
    for trace in traces:
        cost_model = by_key[("policy-cost-model", trace)].up_bytes
        rpc = by_key[("policy-always-rpc", trace)].up_bytes
        delta = by_key[("policy-always-delta", trace)].up_bytes
        assert cost_model <= min(rpc, delta) * 1.05, trace
        assert by_key[("policy-static", trace)].up_bytes <= rpc, trace

    # the bounds genuinely bracket: Word is where delta sync pays off
    assert (
        by_key[("policy-always-rpc", "word")].up_bytes
        > 5 * by_key[("policy-static", "word")].up_bytes
    )


def test_cost_model_attribution_join():
    # One instrumented cost-model run joined against the offline uplink
    # attribution: every uplink byte lands in a mechanism bucket and the
    # policy telemetry is present in the same trace.
    obs = Observability()
    config = DeltaCFSConfig(enable_checksums=False, sync_policy="cost-model")
    result = run_trace(
        "deltacfs",
        word_trace(scale=8, saves=8),
        profile=PC_PROFILE,
        network=PC_NETWORK,
        config=config,
        obs=obs,
    )
    lines = obs.tracer.to_jsonl().splitlines()
    lines.append(json.dumps(snapshot_record(obs.metrics, obs.clock.now())))
    doc = load_trace_lines(lines)

    attribution = attribute_uplink(doc)
    attribution.reconcile(expected_up_bytes=result.up_bytes)  # byte-exact

    decisions = [
        e for e in doc.point_events() if e.get("name") == "policy.decision"
    ]
    assert decisions, "cost-model run emitted no policy decisions"
    assert all(e["attrs"]["policy"] == "cost-model" for e in decisions)
    # the Word save dance is delta-friendly: the policy must pick the
    # backend (not rpc) at least once, and estimates must be accounted
    assert any(e["attrs"]["mechanism"] != "rpc" for e in decisions)
    snapshot = doc.snapshot["metrics"]
    assert any(k.startswith("policy.estimate.rpc_bytes") for k in snapshot)
    assert any(k.startswith("policy.estimate.delta_bytes") for k in snapshot)
