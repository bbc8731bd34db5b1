"""Event-stream golden: what a run *emits*, in order, is pinned.

``test_tracing_golden.py`` and ``test_topology_golden.py`` pin numbers;
this file pins the stream itself. For each scripted run below it takes one
sha-256 over the recorded trace JSONL (every span and event: name, attrs,
order, enclosing span), the metrics snapshot and the run's result numbers,
and compares it with ``event_stream_golden.json``. A refactor that keeps
the behavioural contract reproduces every digest; one that reorders two
emissions, drops an attribute or moves a meter charge does not.

The digests were recorded at the parent of the PR that added this file,
before any source edit. ``python tests/harness/test_event_stream_golden.py``
(with ``PYTHONPATH=src``) re-records them — **a digest may only be
re-recorded by a PR whose ISSUE says the event stream changes.**
"""

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest

from repro.common.config import DeltaCFSConfig
from repro.common.rng import DeterministicRandom
from repro.cost.meter import CostMeter
from repro.faults.crash import inject_crash_inconsistency
from repro.faults.network import NetworkFaults
from repro.harness.fleet import FleetSpec, run_fleet
from repro.harness.runner import run_trace
from repro.kvstore.kv import MemoryKV
from repro.obs import Observability, Tracer
from repro.obs.names import DISTRIBUTION, EVENT_NAMES, METRICS, event_spec, metric_spec
from repro.obs.registry import parse_series_name
from repro.server.cloud import CloudServer
from repro.server.shard import ShardRouter
from repro.sim import Simulation
from repro.workloads.gedit import gedit_trace
from repro.workloads.generators import append_write_trace, random_write_trace
from repro.workloads.wechat import wechat_trace
from repro.workloads.word import word_trace

GOLDEN = pathlib.Path(__file__).with_name("event_stream_golden.json")

TRACES = {
    "word": lambda: word_trace(scale=16, saves=12),
    "wechat": lambda: wechat_trace(scale=32, modifications=40),
    "gedit": lambda: gedit_trace(),
    "random": lambda: random_write_trace(scale=16, writes=10),
    "append": lambda: append_write_trace(scale=16, appends=10),
}
POLICIES = ("static", "cost-model", "always-rpc", "always-delta")
LOSSY = NetworkFaults(drop_prob=0.1, dup_prob=0.05, reorder_prob=0.05)
SERVERS = {
    "bare": lambda obs: CloudServer(meter=CostMeter(), obs=obs),
    "router4": lambda obs: ShardRouter(4, obs=obs),  # one meter per shard
}


def _digest(obs: Observability, numbers):
    """One hash over the trace, the metrics and the result numbers — and,
    beside it, every distinct (name, attr keys) the run emitted and every
    distinct (metric family, label keys) it touched."""
    doc = [obs.tracer.to_jsonl(), obs.metrics.snapshot(), numbers]
    emitted = frozenset(
        (e.name, tuple(e.attrs)) for e in obs.tracer.events() if e.type != "span_end"
    )
    series = frozenset(
        (family, tuple(key for key, _ in labels))
        for family, labels in map(parse_series_name, doc[1])
    )
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return digest, emitted, series


def _replay(trace, solution="deltacfs", **kwargs):
    obs = Observability(tracer=Tracer())
    result = run_trace(solution, trace, obs=obs, **kwargs)
    return _digest(obs, dataclasses.asdict(result))


def _replica_numbers(sim: Simulation) -> dict:
    stores = [shard.store for shard in getattr(sim.server, "shards", [sim.server])]
    return {
        "clients": [
            {
                "stats": dataclasses.asdict(c.stats),
                "channel": dataclasses.asdict(c.channel.stats),
                "ticks": c.meter.total,
                "notices": [repr(n) for n in c.conflict_notices],
            }
            for c in sim.clients
        ],
        "server_ticks": [meter.total for meter in sim.server_meters],
        "store": {
            path: [
                hashlib.sha256(store.get(path).content).hexdigest(),
                repr(store.get(path).version),
            ]
            for store in stores
            for path in store.paths()
        },
        "upload_order": list(sim.server.upload_order),
        "apply_status": [r.status for r in sim.server.apply_log],
        "mismatched": sim.mismatched(),
        "clock": sim.clock.now(),
    }


def _save(client, path: str, content: bytes, tmp: str) -> None:
    """The Word save dance: write a temp file, swap it in over ``path``."""
    client.create(tmp)
    client.write(tmp, 0, content)
    client.close(tmp)
    client.rename(path, path + ".bak")
    client.rename(tmp, path)
    client.unlink(path + ".bak")


def _three_clients(server_kind: str):
    """Three devices sharing one folder: every delta trigger rule, a batched
    write, a truncate, a hard link, a lone conflict and a conflicting
    transactional group."""
    obs = Observability(tracer=Tracer())
    sim = Simulation(clients=3, server=SERVERS[server_kind](obs), obs=obs)
    a, b, c = sim.clients
    rng = DeterministicRandom(11).fork("three-clients")
    doc = rng.random_bytes(48 * 1024)

    a.mkdir("/d")
    for path, content in (
        ("/doc", doc),
        ("/db", rng.random_bytes(32 * 1024)),
        ("/notes", rng.random_bytes(16 * 1024)),
        ("/d/log", rng.random_bytes(8 * 1024)),
    ):
        a.create(path)
        a.write(path, 0, content)
        a.close(path)
    sim.settle()

    # Transactional save (rule relation_match), then a second one whose
    # delta is larger than the rewrite (RPC wins).
    doc = doc[:9000] + rng.random_bytes(700) + doc[9000:]
    _save(a, "/doc", doc, "/doc.tmp")
    sim.settle()
    _save(a, "/d/log", rng.random_bytes(8 * 1024), "/d/log.tmp")
    sim.settle()

    # gedit save on b: backup hard link, then rename over the live name
    # (rule name_exists).
    notes = bytearray(b.read("/notes", 0, None))
    notes[500:900] = rng.random_bytes(400)
    b.create("/.goutput")
    b.write("/.goutput", 0, bytes(notes))
    b.close("/.goutput")
    b.link("/notes", "/notes~")
    b.rename("/.goutput", "/notes")
    sim.settle()

    # In place on c: an overwrite of most of the file (rule inplace), a
    # sparse batch of small writes, a shrink and an extension.
    db = bytearray(c.read("/db", 0, 24 * 1024))
    db[1000:1100] = rng.random_bytes(100)
    c.write("/db", 0, bytes(db))
    c.close("/db")
    sim.settle()
    c.write("/db", 100, b"x" * 40)
    c.write("/db", 9000, b"y" * 40)
    c.write("/db", 40 * 1024, b"z" * 40)
    c.close("/db")
    c.truncate("/db", 20 * 1024)
    c.truncate("/db", 21 * 1024)
    sim.settle()

    # Delete then rewrite (rule pending_create) on a. Then two updates
    # whose old version never reaches the cloud (no base): a save over a
    # file still in the queue, and a rewrite of a file whose create was
    # cancelled.
    a.unlink("/doc")
    a.create("/doc")
    a.write("/doc", 0, doc[:20000] + rng.random_bytes(300) + doc[20000:])
    a.close("/doc")
    sim.settle()
    a.create("/n")
    a.write("/n", 0, b"n" * 5000)
    a.close("/n")
    _save(a, "/n", b"n" * 4000 + b"m" * 1000, "/n.tmp")
    for content in (b"s" * 100, b"s" * 90 + b"t" * 10):
        a.create("/scratch")
        a.write("/scratch", 0, content)
        a.close("/scratch")
        a.unlink("/scratch")
    sim.settle()

    # Concurrent edits: a's write wins, b's loses alone, c's loses inside a
    # transactional group (the cancelled create leaves a backindex span).
    a.write("/db", 0, b"A" * 100)
    a.close("/db")
    b.write("/db", 50, b"B" * 100)
    b.close("/db")
    c.create("/gone")
    c.write("/db", 70, b"C" * 100)
    c.close("/db")
    c.mkdir("/e")
    c.create("/e/kept")
    c.unlink("/gone")
    sim.settle()
    sim.flush()
    # Placement is a function of the name: every file is on its own shard.
    for index, shard in enumerate(getattr(sim.server, "shards", ())):
        for path in shard.store.paths():
            assert sim.server.shard_index_for_path(path) == index, path
    return _digest(obs, _replica_numbers(sim))


def _crash_recovery():
    """Crash with pending write -> truncate -> write on one file and a
    pending in-place delta on another, tear a block of each, recover."""
    obs = Observability(tracer=Tracer())
    sim = Simulation(obs=obs, journal_kv=MemoryKV(), checksum_kv=MemoryKV())
    client = sim.client
    rng = DeterministicRandom(12).fork("crash")
    doc = rng.random_bytes(64 * 1024)
    for path, content in (("/f", rng.random_bytes(64 * 1024)), ("/g", doc)):
        client.create(path)
        client.write(path, 0, content)
        client.close(path)
    sim.settle()
    client.write("/f", 100, b"A" * 300)
    client.write("/f", 30_000, b"B" * 2000)
    client.truncate("/f", 40_000)
    client.write("/f", 39_000, b"C" * 3000)
    client.write("/g", 0, doc[:5000] + rng.random_bytes(200) + doc[5200 : 40 * 1024])
    client.close("/g")
    inject_crash_inconsistency(client.inner, "/f", seed=3)
    inject_crash_inconsistency(client.inner, "/g", seed=4)
    report = sim.restart(client).recover()
    sim.settle()
    sim.flush()
    numbers = _replica_numbers(sim)
    numbers["report"] = dataclasses.asdict(report)
    return _digest(obs, numbers)


def _crash_restart_lossy():
    """Lossy link + journal: the power is cut while an envelope the cloud
    has already applied is still unacked (fault seed 5 drops its ack, and
    no later answer's cumulative ``through`` covers it before the cut) and
    a second write waits in the queue; restart, recover."""
    obs = Observability(tracer=Tracer())
    sim = Simulation(
        obs=obs, faults=LOSSY, fault_seed=5,
        journal_kv=MemoryKV(), checksum_kv=MemoryKV(),
    )
    client = sim.client
    rng = DeterministicRandom(13).fork("crash-restart")
    for path in ("/f", "/g"):
        client.create(path)
        client.write(path, 0, rng.random_bytes(32 * 1024))
        client.close(path)
    sim.settle()
    sim.flush()
    client.write("/f", 100, b"A" * 300)
    client.close("/f")
    sim.settle(3.5, step=0.5)
    assert client.transport.inflight_depth == 1
    assert sim.server.file_version("/f") == client.versions["/f"]
    client.write("/g", 9000, b"B" * 300)
    inject_crash_inconsistency(client.inner, "/g", seed=5)
    report = sim.restart(client).recover()
    sim.settle()
    sim.flush()
    numbers = _replica_numbers(sim)
    numbers["report"] = dataclasses.asdict(report)
    return _digest(obs, numbers)


def _cases() -> dict:
    cases = {}
    for name, trace in TRACES.items():
        for label, checksums in (("checksums", True), ("plain", False)):
            cases[f"{name}/{label}"] = lambda trace=trace, checksums=checksums: _replay(
                trace(), config=DeltaCFSConfig(enable_checksums=checksums)
            )
    for policy in POLICIES:
        cases[f"policy/{policy}"] = lambda policy=policy: _replay(
            word_trace(scale=32, saves=6),
            config=DeltaCFSConfig(enable_checksums=False, sync_policy=policy),
        )
    cases["word/lossy+journal"] = lambda: _replay(
        word_trace(scale=32, saves=6),
        faults=LOSSY,
        fault_seed=3,
        journal_kv=MemoryKV(),
    )
    cases["wechat/nfs"] = lambda: _replay(
        wechat_trace(scale=64, modifications=12), solution="nfs"
    )
    for kind in SERVERS:
        cases[f"three-clients/{kind}"] = lambda kind=kind: _three_clients(kind)
    cases["crash-recovery"] = _crash_recovery
    cases["crash-restart/lossy"] = _crash_restart_lossy
    return cases


CASES = _cases()

# Catalog names no run below emits. Pinned so the list can only shrink: a
# new catalog entry is either emitted here — and its attrs checked
# against its emitter — or consciously added to it.
NEVER_EMITTED = ["relation.invalidate"]
# Likewise the metric families no run touches (so their labels go unchecked).
NEVER_TOUCHED = [
    "channel.faults.partition_drops",
    "health.regressions",
    "relation.entries.invalidated",
    "relation.entries.stale",
    "relation.entries.superseded",
]


def _small_fleet():
    """Not a golden case (test_tracing_golden.py pins the fleet's numbers):
    a 12-client fleet whose every write counts as a stall, so the fleet
    driver's own events are emitted and their attrs checked below."""
    obs = Observability(tracer=Tracer())
    spec = FleetSpec(n_clients=12, n_shards=2, writes_per_client=2, stall_horizon=1e-6)
    return _digest(obs, run_fleet(spec, obs=obs).writes)


@functools.cache
def _ran(case: str):
    """``(digest, emitted, series)`` of one scripted run, run once per session."""
    return CASES[case]()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_names_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_event_stream_bit_identical(golden, case):
    assert _ran(case)[0] == golden[case]


def test_emitted_attrs_are_the_catalogs(golden):
    """The docs are rendered from the catalog; this checks the catalog
    against the emitters: every span start and point event of every run
    carries exactly its ``EventSpec.attrs``, in order, every metric
    series exactly its ``MetricSpec.labels``, and every distribution
    folds events some run emits."""
    seen, touched = set(), set()
    runs = {case: _ran(case)[1:] for case in CASES}
    runs["small-fleet"] = _small_fleet()[1:]
    for case, (emitted, series) in runs.items():
        for name, keys in sorted(emitted):
            assert keys == event_spec(name).attrs, (case, name)
            seen.add(name)
        assert _label_drift(series, metric_spec) == [], case
        touched.update(family for family, _ in series)
    assert sorted(set(EVENT_NAMES) - seen) == NEVER_EMITTED
    recorded = {s.name for s in METRICS if s.kind != DISTRIBUTION}
    assert sorted(recorded - touched) == NEVER_TOUCHED
    folded = {event for s in METRICS for event, _ in s.folds}
    assert folded <= seen

    # The check bites: one wrong label key in a copy of one spec is found.
    def planted(family):
        spec = metric_spec(family)
        wrong = family == "channel.up.bytes"
        return dataclasses.replace(spec, labels=("kind",)) if wrong else spec

    assert _label_drift(runs["word/plain"][1], planted) == [
        ("channel.up.bytes", ("type",), ("kind",))
    ]


def _label_drift(series, spec_of) -> list:
    """``(family, emitted label keys, declared)`` wherever the two differ."""
    return sorted(
        (family, keys, spec_of(family).labels)
        for family, keys in series
        if keys != spec_of(family).labels
    )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: run()[0] for name, run in CASES.items()}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(CASES)} digests in {GOLDEN}")
