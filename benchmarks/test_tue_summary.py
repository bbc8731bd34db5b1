"""TUE summary across every (trace, system) pair.

TUE — Traffic Usage Efficiency, total sync traffic divided by update size
(the metric of the paper's ref [2], shown in its Figure 2) — condenses
network efficiency into one number per cell: 1.0 is perfect, large values
are the abuse the paper attacks.
"""

from conftest import register_report

from repro.harness.experiments import PC_SOLUTIONS, paper_runs
from repro.metrics.report import format_table


def test_tue_summary(benchmark):
    runs = benchmark.pedantic(paper_runs, args=(False,), rounds=1, iterations=1)

    systems = {solution: ("pc", solution) for solution in PC_SOLUTIONS}
    systems["dropsync(mobile)"] = ("mobile", "fullsync")
    traces = ("append_write", "random_write", "word", "wechat")
    cells = {
        (trace, system): runs[(setting, trace, solution)]
        for trace in traces
        for system, (setting, solution) in systems.items()
    }
    register_report(
        "TUE summary (total sync traffic / update size; 1.0 is perfect)",
        format_table(
            ["trace"] + list(systems),
            [
                [trace] + [f"{cells[(trace, system)].tue:.2f}" for system in systems]
                for trace in traces
            ],
        ),
    )

    for trace in traces:
        deltacfs = cells[(trace, "deltacfs")].tue
        # DeltaCFS stays within small constant factors of perfect...
        assert deltacfs < 4.0, trace
        # ...and is never beaten by the delta-sync baselines
        assert deltacfs <= cells[(trace, "seafile")].tue * 1.05, trace
        # full-file mobile sync is catastrophic on in-place workloads
    assert cells[("random_write", "dropsync(mobile)")].tue > 100
    assert cells[("wechat", "dropsync(mobile)")].tue > 20
