"""Sensitivity sweeps over DeltaCFS's design parameters.

DESIGN.md calls out three empirically-chosen constants; these sweeps show
the behaviour the paper's choices sit on:

- **relation timeout** (1-3 s, default 2 s): too short and transactional
  updates stop triggering delta encoding (saves take real time); longer
  buys nothing but stale entries.
- **upload delay** (3 s): the coalescing window. Near zero, write nodes
  ship before the rename dance completes and delta replacement finds
  nothing to replace; large delays only add staleness.
- **rsync block size** (4 KB): small blocks shrink deltas but multiply
  per-block work; the sweep shows the traffic/CPU tradeoff.
"""

from conftest import register_report

from repro.common.config import DeltaCFSConfig
from repro.harness.runner import run_trace
from repro.metrics.report import format_bytes, format_table
from repro.workloads import word_trace

SAVES = 10
SCALE = 16


def _run_word(config: DeltaCFSConfig):
    trace = word_trace(scale=SCALE, saves=SAVES, seed=74)
    result = run_trace("deltacfs", trace, config=config, pump_interval=0.25)
    return result.up_bytes, result.client_ticks, result.extra["deltas_kept"]


def _collect_timeout():
    rows = []
    for timeout in (0.2, 0.5, 2.0, 10.0):
        up, ticks, deltas = _run_word(DeltaCFSConfig(relation_timeout=timeout))
        rows.append((timeout, up, ticks, deltas))
    return rows


def _collect_delay():
    rows = []
    for delay in (0.0, 3.0, 10.0):
        up, ticks, deltas = _run_word(DeltaCFSConfig(upload_delay=delay))
        rows.append((delay, up, ticks, deltas))
    return rows


def _collect_block_size():
    rows = []
    for block in (1024, 4096, 16384, 65536):
        up, ticks, deltas = _run_word(DeltaCFSConfig(block_size=block))
        rows.append((block, up, ticks, deltas))
    return rows


def test_sweep_relation_timeout(benchmark):
    rows = benchmark.pedantic(_collect_timeout, rounds=1, iterations=1)
    register_report(
        "Sweep: relation-table timeout (Word trace)",
        format_table(
            ["timeout (s)", "upload", "client ticks", "deltas kept"],
            [[t, format_bytes(u), f"{c:.1f}", d] for t, u, c, d in rows],
        ),
    )
    by_timeout = {t: (u, c, d) for t, u, c, d in rows}
    # a timeout shorter than the save duration misses every trigger
    assert by_timeout[0.2][2] == 0
    assert by_timeout[0.2][0] > 3 * by_timeout[2.0][0]
    # the paper's 2s choice captures all saves; 10s adds nothing
    assert by_timeout[2.0][2] == SAVES
    assert by_timeout[10.0][2] == SAVES
    assert abs(by_timeout[10.0][0] - by_timeout[2.0][0]) < 0.1 * by_timeout[2.0][0]


def test_sweep_upload_delay(benchmark):
    rows = benchmark.pedantic(_collect_delay, rounds=1, iterations=1)
    register_report(
        "Sweep: Sync Queue upload delay (Word trace)",
        format_table(
            ["delay (s)", "upload", "client ticks", "deltas kept"],
            [[t, format_bytes(u), f"{c:.1f}", d] for t, u, c, d in rows],
        ),
    )
    by_delay = {t: (u, c, d) for t, u, c, d in rows}
    # zero delay ships write nodes before delta replacement can happen
    assert by_delay[0.0][0] > 2 * by_delay[3.0][0]
    # the paper's 3s delay achieves full replacement
    assert by_delay[3.0][2] == SAVES


def test_sweep_block_size(benchmark):
    rows = benchmark.pedantic(_collect_block_size, rounds=1, iterations=1)
    register_report(
        "Sweep: rsync block size (Word trace)",
        format_table(
            ["block", "upload", "client ticks", "deltas kept"],
            [[b, format_bytes(u), f"{c:.1f}", d] for b, u, c, d in rows],
        ),
    )
    uploads = [u for _, u, _, _ in rows]
    # traffic grows monotonically with block size (delta granularity)
    assert uploads == sorted(uploads)
    # every block size still triggers all the saves
    assert all(d == SAVES for _, _, _, d in rows)
