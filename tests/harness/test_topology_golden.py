"""Golden topology tests: every way the harness wires and drives a
DeltaCFS system must keep producing exactly these numbers.

``topology_golden.json`` was captured before the construction paths were
folded into :mod:`repro.sim` (``python tests/harness/test_topology_golden.py``
regenerates it, with ``PYTHONPATH=src``). It pins, for Word and WeChat
replays over a perfect link, a lossy link and a journaled client: the
``RunResult`` (obs on, so ``extra`` carries every scalar metric series and
the transport counters), the sha256 of the recorded trace JSONL, and the
client / transport / channel counters of a ``build_system`` drive — plus
one capacity run and one fleet run.
"""

import dataclasses
import hashlib
import io
import json
import pathlib

import pytest

from repro.faults.network import NetworkFaults
from repro.harness.capacity import run_capacity
from repro.harness.fleet import FleetSpec, run_fleet
from repro.harness.runner import _preload, build_system, run_trace
from repro.kvstore.kv import MemoryKV
from repro.obs import Observability, Tracer
from repro.workloads.traces import replay
from repro.workloads.wechat import wechat_trace
from repro.workloads.word import word_trace

GOLDEN = pathlib.Path(__file__).with_name("topology_golden.json")

TRACES = {
    "word": lambda: word_trace(scale=64, saves=4),
    "wechat": lambda: wechat_trace(scale=64, modifications=12),
}
MODES = {
    "perfect": lambda: {},
    "lossy": lambda: {
        "faults": NetworkFaults(drop_prob=0.1, dup_prob=0.05),
        "fault_seed": 3,
    },
    "journal": lambda: {"journal_kv": MemoryKV()},
}


def _replay_case(trace_name: str, mode: str) -> dict:
    trace = TRACES[trace_name]()
    sink = io.StringIO()
    obs = Observability(tracer=Tracer(sink=sink))
    result = run_trace("deltacfs", trace, obs=obs, **MODES[mode]())

    # The same drive through the five-solution view, for the counters a
    # RunResult does not carry.
    system = build_system("deltacfs", **MODES[mode]())
    _preload(system, trace)
    replay(trace, system.fs, system.clock, pump=system.pump)
    system.flush()
    return {
        "result": dataclasses.asdict(result),
        "trace_sha256": hashlib.sha256(sink.getvalue().encode()).hexdigest(),
        "client_stats": dataclasses.asdict(system.client.stats),
        "transport_stats": (
            dataclasses.asdict(system.transport.stats)
            if system.transport is not None
            else None
        ),
        "channel_stats": dataclasses.asdict(system.channel.stats),
        "client_ticks": system.client_meter.total,
        "server_ticks": system.server_meter.total,
        "clock": system.clock.now(),
    }


def _capacity_case() -> dict:
    return dataclasses.asdict(run_capacity(50))


def _fleet_case() -> dict:
    result = run_fleet(FleetSpec(n_clients=200, n_shards=4))
    doc = dataclasses.asdict(result)
    del doc["rollup"]  # its content is what the reads below summarise
    for read in ("p50_latency", "p90_latency", "p99_latency", "max_latency",
                 "shard_queue_peak"):
        doc[read] = getattr(result, read)
    doc["shard_stalls"] = [s.stalls for s in result.health().shards]
    return doc


def _capture() -> dict:
    doc = {
        f"{trace}/{mode}": _replay_case(trace, mode)
        for trace in TRACES
        for mode in MODES
    }
    doc["capacity-50"] = _capacity_case()
    doc["fleet-200x4"] = _fleet_case()
    # One JSON round trip so tuples/lists compare the way the file stores them.
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("trace", TRACES)
def test_replay_topologies_bit_identical(golden, trace, mode):
    measured = json.loads(json.dumps(_replay_case(trace, mode)))
    assert measured == golden[f"{trace}/{mode}"]


def test_lossy_mode_really_retransmits(golden):
    assert golden["word/lossy"]["transport_stats"]["retransmits"] > 0
    assert golden["word/perfect"]["transport_stats"] is None


def test_capacity_bit_identical(golden):
    assert json.loads(json.dumps(_capacity_case())) == golden["capacity-50"]


def test_fleet_bit_identical(golden):
    expected = dict(golden["fleet-200x4"])
    # FleetResult.extra was never written; the golden's empty value is
    # all it pinned.
    assert expected.pop("extra", {}) == {}
    assert json.loads(json.dumps(_fleet_case())) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
