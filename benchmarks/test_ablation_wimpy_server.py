"""Ablation — wimpy cloud servers (the paper's conclusion).

Section VI: "the load of the server side is minimized as well, servers
simply apply incremental data on files. So it becomes possible to use
wimpy servers (e.g., Intel Atom Processor) attached with large numbers of
disks to provide cloud data sync services."

We rerun the WeChat workload with the server's CPU profile scaled to an
Atom-class core (~8x fewer ops per tick) and compare how many clients one
server core could sustain under DeltaCFS vs Seafile, given each client's
server-side tick demand per second of trace time.
"""

from conftest import register_report

from repro.cost.profile import PC_PROFILE
from repro.harness.experiments import WECHAT_SCALE, scaled_kwargs
from repro.harness.runner import run_trace
from repro.metrics.report import format_table
from repro.workloads import wechat_trace

ATOM_FACTOR = 8.0
# a serving core's tick budget per virtual second, in model units: one
# Xeon-class core ~ 100 ticks/s at our calibration
XEON_BUDGET_PER_S = 100.0


def _collect():
    trace = wechat_trace(scale=WECHAT_SCALE, modifications=60, seed=75)
    out = {}
    for solution in ("deltacfs", "seafile", "nfs"):
        result = run_trace(solution, trace, **scaled_kwargs(WECHAT_SCALE))
        demand_per_s = result.server_ticks / max(result.duration, 1e-9)
        out[solution] = {
            "server_ticks": result.server_ticks,
            "demand_per_s": demand_per_s,
            "clients_per_xeon": XEON_BUDGET_PER_S / max(demand_per_s, 1e-12),
            "clients_per_atom": (XEON_BUDGET_PER_S / ATOM_FACTOR)
            / max(demand_per_s, 1e-12),
        }
    return out


def test_ablation_wimpy_server(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    rows = [
        [
            solution,
            f"{r['server_ticks']:.1f}",
            f"{r['clients_per_xeon']:.0f}",
            f"{r['clients_per_atom']:.0f}",
        ]
        for solution, r in results.items()
    ]
    register_report(
        "Ablation: wimpy-server capacity (WeChat workload, modelled)",
        format_table(
            ["solution", "server ticks", "clients/Xeon core", "clients/Atom core"],
            rows,
        ),
    )

    deltacfs = results["deltacfs"]
    seafile = results["seafile"]
    # DeltaCFS's server does a multiple of the clients per core...
    assert deltacfs["clients_per_atom"] > 2 * seafile["clients_per_atom"]
    # ...and an Atom core under DeltaCFS still beats a Xeon under Seafile
    assert deltacfs["clients_per_atom"] > seafile["clients_per_xeon"]
