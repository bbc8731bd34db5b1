"""Figure 2 — WeChat synced through Dropsync on a mobile device.

Replays the WeChat trace through the full-upload client on the mobile
network/CPU profiles and reports total traffic, TUE (Traffic Usage
Efficiency = total sync traffic / data update size), CPU, and the
cumulative-upload timeline.

Shape assertions:
- TUE is terrible (the paper's Figure 2 shows the traffic dwarfing the
  update size — whole-database uploads for message-sized changes);
- the client stays busy: CPU per update byte is orders of magnitude above
  DeltaCFS's on the same workload.
"""

from conftest import regenerate

from repro.harness.experiments import WECHAT_SCALE, run_mobile
from repro.workloads import wechat_trace


def test_fig2(benchmark):
    result = regenerate(benchmark, "fig2")

    # TUE far above 1: the abuse the paper opens with
    assert result.tue > 20

    # cumulative upload is monotone (sanity of the timeline series)
    values = [v for _, v in result.traffic_timeline]
    assert values == sorted(values)

    # DeltaCFS on the same workload: TUE near 1
    trace = wechat_trace(scale=WECHAT_SCALE, modifications=120, seed=32)
    deltacfs = run_mobile("deltacfs", trace, WECHAT_SCALE)
    assert deltacfs.tue < 3
    assert result.cpu_ticks > 5 * deltacfs.client_ticks
