"""QuantileSketch + ShardWindows: accuracy bound, exact merges, fixed
memory, and the windowed rollup contract the fleet driver relies on."""

import numpy as np
import pytest

from repro.common.rng import DeterministicRandom
from repro.obs.sketch import QuantileSketch, ShardWindows


def _quantile(sorted_values, q):
    """Exact linear-interpolation quantile — the reference the sketch is held to."""
    return float(np.quantile(sorted_values, q))


def _samples(n, seed=7, scale=30.0):
    rng = DeterministicRandom(seed)
    return [0.01 + rng.random() * scale for _ in range(n)]


class TestQuantileSketch:
    def test_empty_sketch_reads_zero(self):
        sk = QuantileSketch()
        assert sk.count == 0
        assert sk.quantile(0.5) == 0.0
        assert sk.to_dict()["p99"] == 0.0

    def test_endpoints_are_exact(self):
        sk = QuantileSketch()
        values = _samples(500)
        for v in values:
            sk.add(v)
        assert sk.quantile(0.0) == min(values)
        assert sk.quantile(1.0) == max(values)
        assert sk.count == len(values)
        assert sk.sum == pytest.approx(sum(values))

    @pytest.mark.parametrize("alpha", [0.005, 0.01, 0.05])
    def test_relative_error_bound_holds(self, alpha):
        """|v̂ - v| <= alpha * v against the exact interpolated quantile."""
        sk = QuantileSketch(alpha)
        values = sorted(_samples(5000))
        for v in values:
            sk.add(v)
        for q in (0.10, 0.25, 0.50, 0.90, 0.95, 0.99):
            exact = _quantile(values, q)
            approx = sk.quantile(q)
            # The interpolated exact quantile sits between two samples,
            # each within alpha relatively — allow both contributions.
            assert abs(approx - exact) <= 2 * alpha * exact, (q, approx, exact)

    def test_merge_equals_single_sketch(self):
        values = _samples(2000)
        whole = QuantileSketch()
        left, right = QuantileSketch(), QuantileSketch()
        for i, v in enumerate(values):
            whole.add(v)
            (left if i % 2 else right).add(v)
        left.merge(right)
        assert left.count == whole.count
        assert left.sum == pytest.approx(whole.sum)
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == whole.quantile(q)

    def test_merge_rejects_alpha_mismatch(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.005).merge(QuantileSketch(0.01))

    def test_memory_is_bounded_by_max_bins(self):
        sk = QuantileSketch(0.005, max_bins=64)
        for v in _samples(20_000, scale=1e6):
            sk.add(v)
        assert sk.bins <= 64 + 1  # +1 for the zero bucket
        assert sk.count == 20_000
        # The top quantiles survive low-bucket collapses.
        values = sorted(_samples(20_000, scale=1e6))
        assert sk.quantile(0.99) == pytest.approx(
            _quantile(values, 0.99), rel=0.02
        )

    def test_zero_and_negative_values_collapse_to_zero_bucket(self):
        sk = QuantileSketch()
        for v in (0.0, -1.0, 0.0, 5.0):
            sk.add(v)
        assert sk.quantile(0.25) == 0.0
        assert sk.quantile(1.0) == 5.0
        assert sk.min == -1.0

    def test_fraction_leq_matches_exact_cdf(self):
        sk = QuantileSketch()
        values = _samples(4000)
        for v in values:
            sk.add(v)
        for threshold in (5.0, 15.0, 25.0):
            exact = sum(1 for v in values if v <= threshold) / len(values)
            assert sk.fraction_leq(threshold) == pytest.approx(exact, abs=0.02)
        assert sk.fraction_leq(1e9) == 1.0
        assert sk.fraction_leq(-1.0) == 0.0

    def test_determinism(self):
        a, b = QuantileSketch(), QuantileSketch()
        for v in _samples(1000):
            a.add(v)
        for v in _samples(1000):
            b.add(v)
        assert a.quantiles([0.5, 0.9, 0.99]) == b.quantiles([0.5, 0.9, 0.99])

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0)
        with pytest.raises(ValueError):
            QuantileSketch(1.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_bins=1)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)


class TestShardWindows:
    def test_cells_created_lazily_per_shard_window(self):
        rollup = ShardWindows(4, 10.0)
        assert rollup.cells == 0
        rollup.record_latency(0, 5.0, 1.0)
        rollup.record_latency(0, 15.0, 2.0)
        rollup.record_latency(2, 5.0, 3.0)
        assert rollup.cells == 3
        cells = rollup.windows()
        assert [(c.shard, c.window) for c in cells] == [(0, 0), (0, 1), (2, 0)]
        assert cells[0].start == 0.0 and cells[0].end == 10.0

    def test_latency_attributed_to_completion_window(self):
        rollup = ShardWindows(1, 10.0, t0=100.0)
        rollup.record_latency(0, 125.0, 30.0)  # window floor((125-100)/10)=2
        (cell,) = rollup.windows()
        assert cell.window == 2
        assert cell.start == 120.0
        assert cell.writes == 1

    def test_depth_peak_and_busy_accumulate(self):
        rollup = ShardWindows(2, 10.0)
        rollup.record_depth(1, 3.0, 4)
        rollup.record_depth(1, 4.0, 2)
        rollup.record_busy(1, 3.0, 1.5)
        rollup.record_busy(1, 4.0, 0.5)
        (cell,) = rollup.windows()
        assert cell.queue_peak == 4
        assert cell.busy == pytest.approx(2.0)

    def test_shard_and_overall_sketches_merge_windows(self):
        rollup = ShardWindows(2, 10.0)
        for ts, lat in [(1.0, 1.0), (11.0, 2.0), (21.0, 3.0)]:
            rollup.record_latency(0, ts, lat)
        rollup.record_latency(1, 1.0, 10.0)
        assert rollup.shard_sketch(0).count == 3
        assert rollup.shard_sketch(1).count == 1
        overall = rollup.overall_sketch()
        assert overall.count == 4
        assert overall.max == 10.0

    def test_memory_independent_of_sample_count(self):
        rollup = ShardWindows(2, 10.0)
        for i in range(10_000):
            rollup.record_latency(i % 2, float(i % 100), 3.0)
        assert rollup.cells == 20  # 2 shards x 10 windows, not O(samples)

    def test_window_stats_to_dict(self):
        rollup = ShardWindows(1, 10.0)
        rollup.record_latency(0, 5.0, 3.0)
        d = rollup.windows()[0].to_dict()
        assert d["shard"] == 0 and d["writes"] == 1
        assert d["p50"] == pytest.approx(3.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardWindows(1, 0.0)
