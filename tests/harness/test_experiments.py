"""Fast-mode smoke tests of the experiment drivers.

The benchmarks assert the paper's shapes at full scale; these verify the
drivers are runnable and directionally sane at reduced op counts, so a
plain ``pytest tests/`` exercises the whole harness quickly.
"""

import copy
import functools
import itertools

import pytest

from repro.harness import experiments
from repro.harness.experiments import (
    EXPERIMENTS,
    MOBILE_SOLUTIONS,
    PC_SOLUTIONS,
    SWEEP_POLICIES,
    bench_traces,
    fig2_dropsync_mobile,
    fig8_network_pc,
    fig9_network_mobile,
    paper_runs,
    policy_sweep,
    run_mobile,
    run_pc,
    table2_cpu,
)
from repro.metrics.collector import RunResult


@pytest.fixture(scope="module")
def fig8_results():
    return {(r.trace, r.solution): r for r in fig8_network_pc(fast=True)}


class TestBenchTraces:
    def test_four_traces(self):
        traces = bench_traces(fast=True)
        assert set(traces) == {"append_write", "random_write", "word", "wechat"}

    def test_fast_smaller_than_full(self):
        fast = bench_traces(fast=True)
        full = bench_traces(fast=False)
        for name in fast:
            assert len(fast[name][0].ops) < len(full[name][0].ops)


class TestFig8Fast(object):
    def test_all_cells_present(self, fig8_results):
        assert len(fig8_results) == 4 * len(PC_SOLUTIONS)

    def test_deltacfs_never_worst(self, fig8_results):
        for trace in ("append_write", "random_write", "word", "wechat"):
            uploads = {
                s: fig8_results[(trace, s)].up_bytes for s in PC_SOLUTIONS
            }
            assert uploads["deltacfs"] < max(uploads.values()), trace

    def test_word_shape(self, fig8_results):
        word = {s: fig8_results[("word", s)] for s in PC_SOLUTIONS}
        assert word["deltacfs"].up_bytes < word["dropbox"].up_bytes
        assert word["nfs"].down_bytes > 0.5 * word["nfs"].up_bytes


class TestTable2Fast:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for r in table2_cpu(fast=True):
            out[(r.extra.get("setting", "pc"), r.trace, r.solution)] = r
        return out

    def test_row_count(self, results):
        assert len(results) == 4 * len(PC_SOLUTIONS) + 4 * len(MOBILE_SOLUTIONS)

    def test_deltacfs_cheapest_cloud_client(self, results):
        for trace in ("append_write", "random_write", "word", "wechat"):
            deltacfs = results[("pc", trace, "deltacfs")].client_ticks
            assert deltacfs < results[("pc", trace, "dropbox")].client_ticks
            assert deltacfs < results[("pc", trace, "seafile")].client_ticks

    def test_mobile_rows_marked(self, results):
        assert ("mobile", "word", "fullsync") in results


class TestFig9Fast:
    def test_dropsync_dominates(self):
        results = {(r.trace, r.solution): r for r in fig9_network_mobile(fast=True)}
        for trace in ("append_write", "word"):
            assert (
                results[(trace, "fullsync")].up_bytes
                > results[(trace, "deltacfs")].up_bytes
            )


class TestFig2Fast:
    def test_tue_terrible(self):
        result = fig2_dropsync_mobile(fast=True)
        assert result.tue > 10
        assert result.total_traffic > result.update_bytes


class TestRunMatrix:
    """Tables and figures are views of one matrix; every cell runs once."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The drivers' ``run_trace`` replaced by a counting stub, over a
        matrix cache of the test's own (the real one keeps its real runs)."""
        calls = []

        def stub(name, trace, **kwargs):
            calls.append((kwargs["profile"].name, trace.name, name))
            return RunResult(solution=name, trace=trace.name, extra={"n": len(calls)})

        monkeypatch.setattr(experiments, "run_trace", stub)
        monkeypatch.setattr(
            experiments, "paper_runs", functools.cache(paper_runs.__wrapped__)
        )
        return calls

    @pytest.mark.parametrize(
        "order",
        list(itertools.permutations([table2_cpu, fig8_network_pc, fig9_network_mobile])),
        ids=lambda order: "-".join(f.__name__.split("_")[0] for f in order),
    )
    def test_24_runs_serve_table2_fig8_fig9_in_any_order(self, counted, order):
        rows = {view.__name__: view(True) for view in order}
        assert len(counted) == len(set(counted)) == 24
        assert len(rows["table2_cpu"]) == 24
        # Figure 8 *is* Table II's PC half, Figure 9 its mobile half.
        assert all(a is b for a, b in zip(rows["table2_cpu"], rows["fig8_network_pc"]))
        assert all(a is b for a, b in zip(rows["table2_cpu"][16:], rows["fig9_network_mobile"]))
        policy_sweep(True)
        assert len(counted) <= 24 + 4 * len(SWEEP_POLICIES)

    def test_rows_are_labelled_when_created_and_never_edited(self, counted):
        matrix = experiments.paper_runs(True)
        before = copy.deepcopy(dict(matrix))
        views = [table2_cpu(True), fig8_network_pc(True), fig9_network_mobile(True)]
        sweep = policy_sweep(True)
        assert dict(matrix) == before
        assert [r.extra.get("setting") for r in views[0]] == [None] * 16 + ["mobile"] * 8
        assert [r.extra["setting"] for r in sweep[:4]] == [
            f"policy-{policy}" for policy in SWEEP_POLICIES
        ]
        with pytest.raises(TypeError):
            matrix[("pc", "word", "nfs")] = None

    def test_single_runs_do_not_depend_on_what_ran_before(self):
        # At the parent, run_mobile() returned the table's cached object,
        # whose `setting` label depended on whether a table had run yet.
        trace, scale = bench_traces(fast=True)["word"]
        first = run_mobile("fullsync", trace, scale)
        cell = paper_runs(True)[("mobile", "word", "fullsync")]
        second = run_mobile("fullsync", trace, scale)
        assert first == second == cell and first.extra["setting"] == "mobile"
        assert first is not second and first is not cell
        assert "setting" not in run_pc("nfs", trace, scale).extra

    def test_the_fingerprint_cache_is_gone(self):
        assert not hasattr(experiments, "_run_cache")
        assert not hasattr(experiments, "_trace_fingerprint")


class TestExperimentTable:
    def test_names_order_and_gated_rows(self):
        assert list(EXPERIMENTS) == [
            "table2", "fig8", "fig9", "policy", "fig1", "fig2", "table3", "table4",
        ]
        assert [n for n, e in EXPERIMENTS.items() if e.metrics is None] == ["fig2", "table4"]

    def test_cli_choices_come_from_the_table(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["experiment", "fig9", "table2"])
        assert args.name == ["fig9", "table2"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table5"])
