"""Tests for the measured wall-clock lane (repro.harness.wallclock).

These run the lane at toy sizes with ``repeats=1`` — the point is shape
and plumbing, not performance: actual speedups are asserted only by the
CI gate against ``benchmarks/baselines/wallclock.json``, never by unit
tests (a loaded test machine would flake them).
"""

from repro.harness.wallclock import (
    LaneResult,
    _build_drain_queue,
    _drain_reference,
    run_wallclock,
    wallclock_snapshot,
)

TINY = dict(input_bytes=16 * 1024, block_size=512, repeats=1)

EXPECTED_LANES = {
    "rolling_scan",
    "checksum_sweep",
    "delta_encode/remote",
    "delta_encode/bitwise",
    "delta_encode/bitwise_save",
    "queue_drain",
}


def test_runs_every_lane_with_positive_throughput():
    lanes = run_wallclock(**TINY)
    assert {r.lane for r in lanes} == EXPECTED_LANES
    for r in lanes:
        assert isinstance(r, LaneResult)
        assert r.fast_mb_per_s > 0
        assert r.ref_mb_per_s > 0
        assert r.speedup > 0
        assert r.input_mb > 0


def test_snapshot_is_gate_compatible():
    snap = wallclock_snapshot(**TINY)
    assert snap["bench"] == "wallclock"
    assert snap["schema"] == 1
    assert set(snap["metrics"]) == {f"{lane}/speedup" for lane in EXPECTED_LANES}
    for value in snap["metrics"].values():
        assert isinstance(value, float) and value > 0


def test_snapshot_context_carries_absolute_numbers():
    snap = wallclock_snapshot(**TINY)
    context = snap["context"]
    assert context["block_size"] == 512
    assert context["repeats"] == 1
    assert set(context["lanes"]) == EXPECTED_LANES
    for info in context["lanes"].values():
        assert info["fast_mb_per_s"] > 0
        assert info["ref_mb_per_s"] > 0
        assert info["input_mb"] > 0


def test_snapshot_metric_keys_match_committed_baseline():
    """The lane and benchmarks/baselines/wallclock.json must not drift."""
    import json
    from pathlib import Path

    baseline_path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "baselines"
        / "wallclock.json"
    )
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert baseline["bench"] == "wallclock"
    assert baseline["direction"] == "higher"
    snap = wallclock_snapshot(**TINY)
    assert set(baseline["metrics"]) == set(snap["metrics"])


def test_bench_queue_drains_identically_both_ways():
    """The two timed drain paths ship the same units from the same build."""
    fast = _build_drain_queue(4, b"payload").drain_due(1e9)
    slow_queue = _build_drain_queue(4, b"payload")
    shipped = _drain_reference(slow_queue, 1e9)
    assert shipped == len(fast)
    assert len(slow_queue) == 0
    assert sum(len(u.nodes) for u in fast) == 4 * 7
