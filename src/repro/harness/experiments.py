"""Per-table/figure experiment drivers (see DESIGN.md section 4).

Each function regenerates one table or figure of the paper at a reduced
(but structure-preserving) scale and returns structured results the
benchmarks print and sanity-check. Scales divide file sizes; op counts,
op sequences, and the write-size-tied granularities (4 KB blocks/pages)
are kept at paper values, while structural granularities (4 MB dedup
units, 1 MB CDC chunks) scale with the files (see ``build_system``).

Table II, Figure 8 and Figure 9 are *views* of one run matrix —
:func:`paper_runs`, every (setting, trace, solution) cell run once per
process — as in the paper, which read its CPU and traffic numbers off the
same runs. :data:`EXPERIMENTS` at the bottom is the one table of what
``repro experiment`` can run: each row names an experiment, its driver,
how its results print and which metrics ``--bench-json`` snapshots for
``tools/bench_gate.py``. Adding an experiment is adding a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, partial
from itertools import groupby
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.config import SYNC_POLICIES as SWEEP_POLICIES, DeltaCFSConfig
from repro.cost.profile import MOBILE_PROFILE, PC_PROFILE
from repro.harness.microbench import (
    STACKS,
    MicrobenchResult,
    microbench_metrics,
    run_microbench,
)
from repro.harness.runner import build_system, run_metrics, run_trace
from repro.metrics.collector import RunResult
from repro.metrics.report import format_bytes, format_table
from repro.net.transport import MOBILE_NETWORK, PC_NETWORK
from repro.workloads import (
    append_write_trace,
    random_write_trace,
    wechat_trace,
    word_trace,
)
from repro.workloads.filebench import fileserver_ops, varmail_ops, webserver_ops
from repro.workloads.traces import Trace, replay

# Benchmark scales: chosen so every run finishes in seconds while keeping
# file >> seafile chunk >> rsync block and dedup unit < file.
APPEND_SCALE = 4
RANDOM_SCALE = 4
WORD_SCALE = 8
WECHAT_SCALE = 16

PC_SOLUTIONS = ("dropbox", "seafile", "nfs", "deltacfs")
MOBILE_SOLUTIONS = ("fullsync", "deltacfs")


def bench_traces(fast: bool = False) -> Dict[str, Tuple[Trace, int]]:
    """The four traces at benchmark scale; returns {name: (trace, scale)}.

    ``fast=True`` further trims op counts for smoke tests.
    """
    word_saves = 12 if fast else 61
    wechat_mods = 40 if fast else 373
    appends = 10 if fast else 40
    writes = 10 if fast else 40
    return {
        "append_write": (
            append_write_trace(scale=APPEND_SCALE, appends=appends),
            APPEND_SCALE,
        ),
        "random_write": (
            random_write_trace(scale=RANDOM_SCALE, writes=writes),
            RANDOM_SCALE,
        ),
        "word": (word_trace(scale=WORD_SCALE, saves=word_saves), WORD_SCALE),
        "wechat": (
            wechat_trace(scale=WECHAT_SCALE, modifications=wechat_mods),
            WECHAT_SCALE,
        ),
    }


def scaled_kwargs(scale: int) -> Dict[str, int]:
    """The baselines' structural granularities at ``1/scale`` file sizes."""
    return {
        "dropbox_dedup_size": max(64 * 1024, 4 * 1024 * 1024 // scale),
        "seafile_chunk_size": max(16 * 1024, 1024 * 1024 // scale),
    }


def _table2_config(**overrides) -> DeltaCFSConfig:
    """Plain DeltaCFS, as in Tables II and Figures 8/9.

    The paper treats the checksum store as a separate variant ("DeltaCFSc"
    appears only in Table III), so the headline CPU/traffic rows use the
    plain client.
    """
    return DeltaCFSConfig(enable_checksums=False, **overrides)


#: The paper's two testbeds: EC2-to-EC2, and a Galaxy Note3 on a WAN.
SETTINGS = {
    "pc": (PC_PROFILE, PC_NETWORK),
    "mobile": (MOBILE_PROFILE, MOBILE_NETWORK),
}


def _labelled(result: RunResult, setting: str) -> RunResult:
    """``result`` as a row of ``setting`` — a copy; runs are never edited."""
    return replace(result, extra={**result.extra, "setting": setting})


def run_in(setting: str, name: str, trace: Trace, scale: int, **kwargs) -> RunResult:
    """One run of solution ``name`` over ``trace`` in ``setting``.

    A non-PC result carries its setting in ``extra`` (the prefix
    ``bench_metrics`` keys it under) from the moment it exists.
    """
    profile, network = SETTINGS[setting]
    if name == "deltacfs":
        kwargs.setdefault("config", _table2_config())
    result = run_trace(
        name, trace, profile=profile, network=network, **scaled_kwargs(scale), **kwargs
    )
    return result if setting == "pc" else _labelled(result, setting)


run_pc = partial(run_in, "pc")
run_mobile = partial(run_in, "mobile")


@cache
def paper_runs(fast: bool, /) -> Mapping[Tuple[str, str, str], RunResult]:
    """The paper's run matrix: ``{(setting, trace, solution): result}``.

    Every cell is run once per process and shared, read-only, by every
    table and figure that reports a column of it — Table II and Figure 8
    are different columns of the same runs, as in the paper ("During
    measuring CPU consumption ... we also measured their data
    transmission"). PC cells then mobile cells, trace-major.
    """
    traces = bench_traces(fast)
    return MappingProxyType({
        (setting, trace_name, solution): run_in(setting, solution, trace, scale)
        for setting, solutions in (("pc", PC_SOLUTIONS), ("mobile", MOBILE_SOLUTIONS))
        for trace_name, (trace, scale) in traces.items()
        for solution in solutions
    })


def _cells(fast: bool, *settings: str) -> List[RunResult]:
    return [r for key, r in paper_runs(fast).items() if key[0] in settings]


def table2_cpu(fast: bool = False) -> List[RunResult]:
    """Table II — CPU ticks, client and server, PC rows then mobile rows."""
    return _cells(fast, "pc", "mobile")


def fig8_network_pc(fast: bool = False) -> List[RunResult]:
    """Figure 8 — upload/download bytes, four traces x four PC solutions."""
    return _cells(fast, "pc")


def fig9_network_mobile(fast: bool = False) -> List[RunResult]:
    """Figure 9 — upload/download bytes, four traces, Dropsync vs DeltaCFS."""
    return _cells(fast, "mobile")


# ---------------------------------------------------------------------------
# Policy sweep — Figure 8 traces x mechanism-selection policies
# ---------------------------------------------------------------------------


def policy_sweep(fast: bool = False) -> List[RunResult]:
    """DeltaCFS over the Figure-8 traces under every mechanism policy.

    The ``static`` rows must be byte-identical to Figure 8's ``deltacfs``
    rows (same traces, same config, default policy); ``always-rpc`` and
    ``always-delta`` bracket the selection space; ``cost-model`` must land
    within 5% of the better bracket on total uplink (the acceptance bar
    the policy bench lane gates). Rows are labelled with a
    ``policy-<name>`` setting so bench keys never collide with fig8's.
    """
    return [
        _labelled(
            run_pc("deltacfs", trace, scale, config=_table2_config(sync_policy=policy)),
            f"policy-{policy}",
        )
        for trace, scale in bench_traces(fast).values()
        for policy in SWEEP_POLICIES
    ]


# ---------------------------------------------------------------------------
# Figure 1 — motivation: client resource consumption (Dropbox vs Seafile)
# ---------------------------------------------------------------------------


def fig1_motivation(fast: bool = False) -> List[RunResult]:
    """The intro experiment: a Word file saved 23x and a chat SQLite file.

    Reports client CPU ticks, network traffic, and data *read* from disk
    (the IO cost the paper calls out: Dropbox issued >700 MB of reads for
    a 130 MB database).
    """
    # Figure 1's workloads: a Word file saved 23 times, and the SQLite file
    # "modified 4 times (composed of 85 write operations)".
    saves = 8 if fast else 23
    mods = 2 if fast else 4
    word = word_trace(scale=WORD_SCALE, saves=saves, seed=30)
    chat = wechat_trace(
        scale=WECHAT_SCALE, modifications=mods, seed=31, rewrites_range=(18, 24)
    )
    results: List[RunResult] = []
    for trace, scale in ((word, WORD_SCALE), (chat, WECHAT_SCALE)):
        for solution in ("dropbox", "seafile"):
            system = build_system(
                solution, profile=PC_PROFILE, network=PC_NETWORK,
                **scaled_kwargs(scale),
            )
            system.preload(trace)

            # The paper's Figure 1 subplots are CPU-over-time series whose
            # spikes line up with the saves; sample per-window tick deltas.
            window = 5.0
            timeline: List[float] = []
            state = {"last_sample": 0.0, "last_total": system.client_meter.total}

            def sampling_pump(now: float):
                system.pump(now)
                if now - state["last_sample"] >= window:
                    total = system.client_meter.total
                    timeline.append(total - state["last_total"])
                    state["last_total"] = total
                    state["last_sample"] = now

            replay(trace, system.fs, system.clock, pump=sampling_pump)
            system.settle(10, pump=sampling_pump)
            system.flush()
            result = RunResult(
                solution=solution,
                trace=trace.name,
                client_ticks=system.client_meter.total,
                server_ticks=system.server_meter.total,
                up_bytes=system.channel.stats.up_bytes,
                down_bytes=system.channel.stats.down_bytes,
                update_bytes=trace.stats.update_bytes,
            )
            result.extra["read_bytes"] = system.client_meter.bytes_by_category.get(
                "scan_read", 0
            )
            result.extra["cpu_timeline"] = timeline
            result.extra["cpu_active_windows"] = sum(
                1 for ticks in timeline if ticks > 0.01
            )
            results.append(result)
    return results


# ---------------------------------------------------------------------------
# Figure 2 — WeChat via Dropsync on mobile: traffic, TUE, CPU timeline
# ---------------------------------------------------------------------------


@dataclass
class Fig2Result:
    """Dropsync-on-mobile characterization."""

    total_traffic: int = 0
    update_bytes: int = 0
    tue: float = 0.0
    cpu_ticks: float = 0.0
    # cumulative uploaded bytes sampled once per virtual minute
    traffic_timeline: List[Tuple[float, int]] = field(default_factory=list)


def fig2_dropsync_mobile(fast: bool = False) -> Fig2Result:
    """Replay the WeChat trace through Dropsync on the mobile setting."""
    mods = 30 if fast else 120
    trace = wechat_trace(scale=WECHAT_SCALE, modifications=mods, seed=32)
    system = build_system(
        "fullsync",
        profile=MOBILE_PROFILE,
        network=MOBILE_NETWORK,
        **scaled_kwargs(WECHAT_SCALE),
    )
    system.preload(trace)
    timeline: List[Tuple[float, int]] = []
    last_sample = [0.0]

    def pump_and_sample(now: float):
        system.pump(now)
        if now - last_sample[0] >= 60.0:
            timeline.append((now, system.channel.stats.up_bytes))
            last_sample[0] = now

    replay(trace, system.fs, system.clock, pump=pump_and_sample)
    system.settle(30)
    system.flush()
    total = system.channel.stats.total_bytes
    update = trace.stats.update_bytes
    return Fig2Result(
        total_traffic=total,
        update_bytes=update,
        tue=total / update if update else float("inf"),
        cpu_ticks=system.client_meter.total,
        traffic_timeline=timeline,
    )


# ---------------------------------------------------------------------------
# Table IV — reliability tests
# ---------------------------------------------------------------------------


@dataclass
class ReliabilityOutcome:
    """One service's behaviour in the three reliability scenarios."""

    service: str
    corrupted: str = ""  # "upload" | "detect"
    inconsistent: str = ""  # "upload" | "detect"
    causal_order: str = ""  # "Y" | "N"


def table4_reliability() -> List[ReliabilityOutcome]:
    """Run the corruption / crash-inconsistency / causal-order tests."""
    from repro.harness.reliability import (
        causal_order_test,
        corruption_test,
        crash_inconsistency_test,
    )

    outcomes = []
    for service in ("dropbox", "seafile", "deltacfs"):
        outcomes.append(
            ReliabilityOutcome(
                service=service,
                corrupted=corruption_test(service),
                inconsistent=crash_inconsistency_test(service),
                causal_order="Y" if causal_order_test(service) else "N",
            )
        )
    return outcomes


# ---------------------------------------------------------------------------
# Table III — local read/write performance (repro.harness.microbench)
# ---------------------------------------------------------------------------


def table3_microbench() -> List[MicrobenchResult]:
    """The three filebench streams through the four stacks, workload-major.

    One scale only: the latency model is arithmetic, not replay, so there
    is nothing for ``--fast`` to trim.
    """
    return [
        run_microbench(name, ops, stack)
        for name, ops in (
            ("fileserver", fileserver_ops()),
            ("varmail", varmail_ops()),
            ("webserver", webserver_ops()),
        )
        for stack in STACKS
    ]


def _table3_text(results: List[MicrobenchResult]) -> str:
    rows = []
    for workload, group in groupby(results, key=lambda r: r.workload):
        per_stack = list(group)
        # block size and input MiB are identical across stacks for one
        # workload (0 = stack has no sync engine, so show the max).
        rows.append(
            [
                workload,
                str(max(r.block_size for r in per_stack)),
                f"{per_stack[0].input_mb:.1f}",
            ]
            + [f"{r.mb_per_s:.1f}" for r in per_stack]
        )
    return format_table(["workload", "blk B", "in MiB"] + list(STACKS), rows)


# ---------------------------------------------------------------------------
# The experiment table — what `repro experiment` runs, prints and gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`.

    ``run(fast)`` produces the results, ``render(results)`` the text
    printed under ``=== title ===``, and ``metrics(results)`` — ``None``
    for an experiment with nothing numeric to gate — the flat metric map
    that ``--bench-json`` writes as ``BENCH_<name>.json``.
    """

    title: str
    run: Callable[[bool], Any]
    render: Callable[[Any], str]
    metrics: Optional[Callable[[Any], Dict[str, float]]] = None


def _table(headers: Sequence[str], row: Callable[[Any], Sequence[object]]):
    """A ``render``: one ``row(result)`` per result under ``headers``."""
    return lambda results: format_table(headers, [row(r) for r in results])


_run_table = _table(
    ["setting", "trace", "solution", "cli CPU", "srv CPU", "up", "down"],
    lambda r: [
        r.extra.get("setting", "pc"),
        r.trace,
        r.solution,
        f"{r.client_ticks:.1f}",
        f"{r.server_ticks:.1f}",
        format_bytes(r.up_bytes),
        format_bytes(r.down_bytes),
    ],
)

#: Every experiment by name, in the order ``repro experiment all`` runs
#: them. The CLI, ``--bench-json``, CI's bench gate and the pytest
#: benchmarks (``benchmarks/conftest.regenerate``) all read this table.
EXPERIMENTS: Dict[str, Experiment] = {
    "table2": Experiment("Table II / CPU", table2_cpu, _run_table, run_metrics),
    "fig8": Experiment("Figure 8 / network on PC", fig8_network_pc, _run_table, run_metrics),
    "fig9": Experiment(
        "Figure 9 / network on mobile", fig9_network_mobile, _run_table, run_metrics
    ),
    "policy": Experiment(
        "Policy sweep / mechanism selection", policy_sweep, _run_table, run_metrics
    ),
    "fig1": Experiment(
        "Figure 1 / motivation",
        fig1_motivation,
        _table(
            ["workload", "solution", "cpu", "upload", "disk reads"],
            lambda r: [
                r.trace,
                r.solution,
                f"{r.client_ticks:.1f}",
                format_bytes(r.up_bytes),
                format_bytes(r.extra["read_bytes"]),
            ],
        ),
        run_metrics,
    ),
    "fig2": Experiment(
        "Figure 2 / Dropsync on mobile",
        fig2_dropsync_mobile,
        lambda r: (
            f"traffic {format_bytes(r.total_traffic)}  "
            f"update {format_bytes(r.update_bytes)}  "
            f"TUE {r.tue:.1f}  CPU {r.cpu_ticks:.1f}"
        ),
    ),
    "table3": Experiment(
        "Table III / microbenchmarks (MB/s)",
        lambda fast: table3_microbench(),
        _table3_text,
        microbench_metrics,
    ),
    "table4": Experiment(
        "Table IV / reliability",
        lambda fast: table4_reliability(),
        _table(
            ["service", "corrupted", "inconsistent", "causal"],
            lambda o: [o.service, o.corrupted, o.inconsistent, o.causal_order],
        ),
    ),
}
