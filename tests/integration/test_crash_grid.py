"""The crash grid: the gedit trace cut after every one of its first 18 ops,
over a perfect link and a lossy one (loss 0.2, fault seeds 3, 5 and 7).

Each point is ``repro replay --journal J --crash-at c``'s path —
``SystemUnderTest.restart().recover()`` inside one measured run — and must
end with no server conflict (the trace has one client), converged replicas
and a trace the invariant checker passes. Before recovery re-executed
journaled units, 22 of these 72 points failed: a rebased transactional save
conflicted, and an applied-but-unacked group was re-shipped node by node.
"""

from dataclasses import replace

import pytest

from repro.check import verify_trace
from repro.faults.network import NO_FAULTS, NetworkFaults
from repro.harness.runner import build_system, measured_run
from repro.kvstore.kv import MemoryKV
from repro.obs import Observability
from repro.obs.analyze import load_trace_lines
from repro.workloads.gedit import gedit_trace
from repro.workloads.traces import replay

SEEDS = (None, 3, 5, 7)  # None: the perfect link


@pytest.mark.parametrize("crash_at", range(18))
@pytest.mark.parametrize("fault_seed", SEEDS, ids=lambda s: f"seed{s}" if s else "lossless")
def test_crash_point_converges_cleanly(fault_seed, crash_at):
    obs = Observability()
    trace = gedit_trace()
    system = build_system(
        "deltacfs",
        obs=obs,
        faults=NO_FAULTS if fault_seed is None else NetworkFaults(drop_prob=0.2),
        fault_seed=fault_seed or 0,
        journal_kv=MemoryKV(),
    )
    with measured_run(system, trace, obs) as pump:
        head, tail = trace.ops[:crash_at], trace.ops[crash_at:]
        replay(replace(trace, ops=head), system.fs, system.clock, pump=pump)
        system.restart().recover()
        replay(replace(trace, ops=tail), system.fs, system.clock, pump=pump)

    assert obs.metrics.counter_total("server.apply.conflicts") == 0
    assert system.sim.converged()
    doc = load_trace_lines(obs.tracer.to_jsonl().splitlines())
    violated = {r.id: r.violations for r in verify_trace(doc) if r.status == "violated"}
    assert violated == {}
