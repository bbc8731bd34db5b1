"""Loss sweep — byte-identical convergence over a faulty link.

Replays the Word trace through DeltaCFS with the reliable transport while
the link drops / duplicates / reorders messages, and checks that the run
still converges byte-identically with zero spurious conflict copies —
the paper's delta-sync savings (Fig. 8/9 shape) must survive packet loss,
paid for only in bounded retransmission overhead.

Set ``RELIABILITY_SMOKE=1`` to run the sweep at reduced scale (the CI
smoke job does).
"""

import os

from conftest import register_report

from repro.harness.reliability import loss_convergence_test
from repro.harness.runner import run_trace
from repro.metrics.report import format_bytes, format_table
from repro.workloads.word import word_trace

LOSS_POINTS = (0.0, 0.05, 0.10, 0.20)

_SMOKE = os.environ.get("RELIABILITY_SMOKE") == "1"
_SCALE = 128 if _SMOKE else 64
_SAVES = 4 if _SMOKE else 8


def _sweep():
    outcomes = []
    for loss in LOSS_POINTS:
        outcomes.append(
            loss_convergence_test(
                loss,
                dup_rate=loss / 4,
                reorder_rate=loss / 4,
                seed=7,
                saves=_SAVES,
                scale=_SCALE,
            )
        )
    return outcomes


def _fullsync_lossless_up_bytes():
    """Full-upload (Dropsync) uplink bytes, same trace, perfect link."""
    return run_trace("fullsync", word_trace(scale=_SCALE, saves=_SAVES)).up_bytes


def test_loss_sweep(benchmark):
    outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    rows = [
        [
            f"{o.loss_rate:.0%}",
            "yes" if o.converged else "NO",
            str(o.conflict_copies),
            str(o.retries),
            str(o.dedup_drops),
            format_bytes(o.up_bytes),
            format_bytes(o.down_bytes),
        ]
        for o in outcomes
    ]
    register_report(
        "Loss sweep: DeltaCFS convergence over a lossy link (Word trace)",
        format_table(
            ["loss", "converged", "conflict copies", "retries",
             "dedup drops", "up", "down"],
            rows,
        ),
    )

    for o in outcomes:
        assert o.converged, (
            f"{o.loss_rate:.0%} loss: mismatched={o.mismatched}, "
            f"conflict_copies={o.conflict_copies}"
        )
        assert o.conflict_copies == 0

    lossless = outcomes[0]
    assert lossless.retries == 0
    assert lossless.dedup_drops == 0

    worst = outcomes[-1]
    # Retransmission overhead stays bounded: 20% loss (+5% dup/reorder)
    # must not inflate the uplink past 1.35x the lossless run. Selective
    # acks re-send the lost envelopes, not the window held behind them,
    # and cumulative acks do not re-send one whose own ack was lost.
    assert worst.up_bytes < 1.35 * lossless.up_bytes

    # Fig. 8 shape preserved: even at 20% loss DeltaCFS's delta uplink
    # undercuts the full-content baseline's lossless uplink on the same
    # trace — loss taxes the deltas, it does not forfeit delta sync.
    fullsync_up = _fullsync_lossless_up_bytes()
    assert worst.up_bytes < fullsync_up
