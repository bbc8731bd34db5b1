"""Ablation — undo-log-assisted local delta for large in-place updates.

Section III-A's extension: when an in-place update rewrites more than half
the file with mostly-unchanged data, the undo log lets delta encoding run
locally and compress the upload. This bench compares traffic with the undo
log on versus off for such a workload.
"""

from conftest import register_report

from repro.common.config import DeltaCFSConfig
from repro.common.rng import DeterministicRandom
from repro.metrics.report import format_bytes, format_table
from repro.sim import Simulation

FILE_SIZE = 2 * 1024 * 1024


def _run(enable_undo: bool):
    sim = Simulation(config=DeltaCFSConfig(enable_undo_log=enable_undo))
    client, server, channel = sim.client, sim.server, sim.client.channel
    rng = DeterministicRandom(71)
    base = rng.random_bytes(FILE_SIZE)
    client.create("/db")
    client.write("/db", 0, base)
    client.close("/db")
    sim.settle(6)
    sim.flush()
    measured_from = channel.stats.up_bytes

    # the "checkpoint rewrite": 80% of the file re-written, 1% truly new
    region = bytearray(base[: int(FILE_SIZE * 0.8)])
    for pos in range(0, len(region), len(region) // 16):
        region[pos : pos + 512] = rng.random_bytes(512)
    client.write("/db", 0, bytes(region))
    client.close("/db")
    sim.settle(6)
    sim.flush()
    assert server.file_content("/db") == bytes(region) + base[len(region):]
    return channel.stats.up_bytes - measured_from, client.stats.inplace_deltas


def _collect():
    return _run(True), _run(False)


def test_ablation_undolog(benchmark):
    (with_undo, deltas_on), (without_undo, deltas_off) = benchmark.pedantic(
        _collect, rounds=1, iterations=1
    )

    rows = [
        ["undo log ON", format_bytes(with_undo), str(deltas_on)],
        ["undo log OFF", format_bytes(without_undo), str(deltas_off)],
    ]
    register_report(
        "Ablation: undo-log local delta for a 80%-rewrite in-place update",
        format_table(["variant", "upload", "in-place deltas"], rows),
    )

    assert deltas_on == 1 and deltas_off == 0
    assert with_undo < 0.5 * without_undo
