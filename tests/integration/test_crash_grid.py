"""The crash grid: the gedit trace cut after every one of its first 18 ops,
over a perfect link and a lossy one (loss 0.2, fault seeds 3, 5 and 7), and
a torn hard-linked file over the same links.

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
from repro.common.rng import DeterministicRandom
from repro.faults.crash import inject_crash_inconsistency
from repro.faults.network import NO_FAULTS, NetworkFaults
from repro.harness.runner import build_system, measured_run
from repro.kvstore.kv import MemoryKV
from repro.obs import Observability
from repro.obs.analyze import load_trace_lines
from repro.workloads.gedit import gedit_trace
from repro.vfs.ops import LinkOp, WriteOp
from repro.workloads.traces import Trace, replay

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

    _assert_clean(obs, system)


def _assert_clean(obs, system):
    assert obs.metrics.counter_total("server.apply.conflicts") == 0
    assert system.sim.converged()
    doc = load_trace_lines(obs.tracer.to_jsonl().splitlines())
    violated = {r.id: r.violations for r in verify_trace(doc) if r.status == "violated"}
    assert violated == {}


# A crash under a write pending through a hard link's second name, with the
# first name torn. The sweep repaired /a with the writes pending under /a
# alone, so /a lost the write its node still shipped and the replica
# diverged from the cloud.


@pytest.mark.parametrize("fault_seed", SEEDS, ids=lambda s: f"seed{s}" if s else "lossless")
def test_a_torn_hard_linked_file_converges_cleanly(fault_seed):
    obs = Observability()
    rng = DeterministicRandom(0)
    trace = Trace(
        "hard-link",
        ops=[
            LinkOp("/a", "/b", timestamp=1.0),
            WriteOp("/b", 8192, rng.random_bytes(5000), timestamp=6.0),
        ],
        preload={"/a": rng.random_bytes(64 * 1024)},
    )
    system = build_system(
        "deltacfs",
        obs=obs,
        faults=NO_FAULTS if fault_seed is None else NetworkFaults(drop_prob=0.2),
        fault_seed=fault_seed or 0,
        journal_kv=MemoryKV(),
    )
    with measured_run(system, trace, obs) as pump:
        replay(trace, system.fs, system.clock, pump=pump)
        written = system.fs.inner.read_file("/a")
        inject_crash_inconsistency(system.fs.inner, "/a", seed=0)
        assert system.restart().recover().damaged_paths == ["/a"]
    _assert_clean(obs, system)
    assert system.fs.read("/a") == system.fs.read("/b") == written
