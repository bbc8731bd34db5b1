"""Uniform construction and trace execution for all five sync systems."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional

from repro.baselines.dropbox import DropboxClient
from repro.baselines.fullsync import FullUploadClient
from repro.baselines.nfs import NFSClient
from repro.baselines.seafile import SeafileClient
from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.cost.meter import CostMeter
from repro.cost.profile import CostProfile, PC_PROFILE
from repro.faults.network import NO_FAULTS, NetworkFaults
from repro.metrics.collector import RunResult, bench_doc
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.transport import Channel, NetworkModel, NetworkStats, PC_NETWORK
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import CloudServer
from repro.sim import RunPhases, Simulation
from repro.vfs.filesystem import FileSystemAPI, MemoryFileSystem
from repro.workloads.traces import Trace, replay

SOLUTIONS = ("deltacfs", "dropbox", "seafile", "nfs", "fullsync")


@dataclass
class SystemUnderTest(RunPhases):
    """One sync system wired to a simulated cloud, ready to replay a trace.

    The uniform view over all five solutions; ``preload`` and ``settle``
    come from :class:`repro.sim.RunPhases`.
    """

    name: str
    fs: FileSystemAPI  # the surface the workload writes to
    clock: VirtualClock
    channel: Channel
    client_meter: CostMeter
    server_meter: CostMeter
    server: CloudServer
    pump: Callable[[float], object]
    flush: Callable[[], object]
    client: object  # the underlying client, for system-specific inspection
    transport: Optional[ReliableTransport] = None  # set in reliable mode
    sim: Optional[Simulation] = None  # DeltaCFS: the simulation behind this view

    def restart(self):
        """Power-cut the DeltaCFS client (:meth:`Simulation.restart`): ``fs``,
        ``client`` and ``transport`` follow its successor, which is returned."""
        self.client = self.fs = self.sim.restart(self.client)
        self.transport = self.client.transport
        return self.client

    def reset_counters(self) -> None:
        """Zero meters and traffic counters (after preload)."""
        self.client_meter.reset()
        self.server_meter.reset()
        self.channel.stats = NetworkStats()


def build_system(
    name: str,
    *,
    profile: CostProfile = PC_PROFILE,
    network: NetworkModel = PC_NETWORK,
    config: Optional[DeltaCFSConfig] = None,
    clock: Optional[VirtualClock] = None,
    sync_interval: Optional[float] = None,
    wait_for_idle_link: Optional[bool] = None,
    dropbox_dedup_size: int = 4 * 1024 * 1024,
    seafile_chunk_size: int = 1024 * 1024,
    obs: Observability = NULL_OBS,
    faults: NetworkFaults = NO_FAULTS,
    retry: Optional[RetryPolicy] = None,
    fault_seed: int = 0,
    journal_kv=None,
) -> SystemUnderTest:
    """Construct a sync system by name.

    ``journal_kv`` (DeltaCFS only) attaches a crash-recovery journal backed
    by the given KV store, enabling ``client.recover()`` after a crash.

    ``profile`` selects PC vs mobile CPU costs; ``network`` the link model
    (slow WAN for mobile). ``wait_for_idle_link`` defaults to True for the
    fullsync (Dropsync) client, False otherwise. ``obs`` (default: the
    no-op ``NULL_OBS``) is wired into the channel, the server, and — for
    DeltaCFS — the client engine; its trace clock is bound to the run's
    virtual clock.

    A non-lossless ``faults`` plan (or an explicit ``retry`` policy) builds
    the system in *reliable mode*: uploads travel over a
    :class:`LossyChannel` seeded with ``fault_seed``, wrapped in
    :class:`ReliableTransport` envelopes, with the flush wrapper settling
    the transport (retransmitting until every message is acked). Only the
    DeltaCFS client supports reliable mode.

    When a trace is generated at ``1/scale`` of the paper's file sizes, the
    *structural* baseline granularities (Dropbox's 4 MB dedup unit,
    Seafile's 1 MB chunk) should be scaled by the same factor so the
    file-to-chunk ratios stay faithful; granularities tied to absolute
    write sizes (the 4 KB rsync block and NFS page) are not scaled.
    """
    if name not in SOLUTIONS:
        raise ValueError(f"unknown solution {name!r}; pick one of {SOLUTIONS}")
    reliable = not faults.lossless or retry is not None
    if reliable and name != "deltacfs":
        raise ValueError(
            f"reliable mode (fault injection) is only wired for 'deltacfs', "
            f"not {name!r}"
        )
    if journal_kv is not None and name != "deltacfs":
        raise ValueError(
            f"the crash-recovery journal is only wired for 'deltacfs', "
            f"not {name!r}"
        )
    if name == "deltacfs":
        sim = Simulation(
            clock=clock,
            config=config,
            network=network,
            profile=profile,
            obs=obs,
            faults=faults,
            retry=retry,
            fault_seed=fault_seed,
            journal_kv=journal_kv,
        )
        client = sim.client
        return SystemUnderTest(
            name=name,
            fs=client,
            clock=sim.clock,
            channel=client.channel,
            client_meter=client.meter,
            server_meter=sim.server.meter,
            server=sim.server,
            pump=sim.pump,
            flush=sim.flush,
            client=client,
            transport=client.transport,
            sim=sim,
        )

    clock = clock if clock is not None else VirtualClock()
    obs.bind_clock(clock)
    client_meter = CostMeter(profile)
    server_meter = CostMeter(profile if name == "fullsync" else PC_PROFILE)
    server = CloudServer(meter=server_meter, obs=obs)
    if name == "nfs":
        # NFS traffic is not TLS-wrapped.
        network = replace(network, encrypted=False)
    channel = Channel(
        model=network,
        client_meter=client_meter,
        server_meter=server_meter,
        obs=obs,
    )

    idle_gate = wait_for_idle_link if wait_for_idle_link is not None else (
        name == "fullsync"
    )
    if sync_interval is None:
        # Dropbox syncs eagerly on inotify events — it repeatedly re-scans
        # files that are *still being written* ("triggered by file
        # modification events which occurs much more frequently than our
        # relation triggered delta encoding", Section IV-B). Seafile
        # commits on a longer quiescence window.
        sync_interval = {"dropbox": 0.45, "seafile": 2.0}.get(name, 1.0)
    if name == "nfs":
        client = NFSClient(
            MemoryFileSystem(),
            server=server,
            channel=channel,
            meter=client_meter,
        )
    elif name == "dropbox":
        client = DropboxClient(
            server=server,
            channel=channel,
            meter=client_meter,
            sync_interval=sync_interval,
            wait_for_idle_link=idle_gate,
            dedup_size=dropbox_dedup_size,
        )
    elif name == "seafile":
        client = SeafileClient(
            server=server,
            channel=channel,
            meter=client_meter,
            sync_interval=sync_interval,
            wait_for_idle_link=idle_gate,
            chunk_size=seafile_chunk_size,
        )
    else:  # fullsync
        client = FullUploadClient(
            server=server,
            channel=channel,
            meter=client_meter,
            sync_interval=sync_interval,
            wait_for_idle_link=idle_gate,
            # Dropsync rides Dropbox's transport, which compresses uploads.
            compression_ratio=0.8,
        )
    return SystemUnderTest(
        name=name,
        # NFS sits in the IO path; the watchers sit beside a watched fs.
        fs=client if name == "nfs" else client.fs,
        clock=clock,
        channel=channel,
        client_meter=client_meter,
        server_meter=server_meter,
        server=server,
        pump=client.pump,
        flush=lambda: client.flush(clock.now()),
        client=client,
    )


def _counted_pump(system: SystemUnderTest, obs: Observability):
    """Wrap the system pump with run-level counters (no-op when disabled)."""
    if not obs.enabled:
        return system.pump

    def pump(now: float):
        obs.inc("run.pump.calls")
        shipped = system.pump(now)
        if isinstance(shipped, int) and shipped > 0:
            obs.inc("run.pump.shipped", shipped)
        return shipped

    return pump


_preload = SystemUnderTest.preload  # the name tests/harness/test_runner.py imports


@contextmanager
def measured_run(
    system: SystemUnderTest, trace: Trace, obs: Observability = NULL_OBS
) -> Iterator[Callable[[float], object]]:
    """Preload, hand the replay phase to the ``with`` body, settle, flush.

    Yields the pump the body should replay with. When ``obs`` is a live
    :class:`~repro.obs.Observability`, the phases are wrapped in the
    documented span hierarchy (``run`` > ``run.preload`` / ``run.replay``
    / ``run.settle`` / ``run.flush``).
    """
    with obs.span("run", solution=system.name, trace=trace.name):
        with obs.span("run.preload"):
            system.preload(trace)
        if obs.enabled:
            # Mirror reset_counters(): metrics cover the measured window
            # only, so channel.* totals agree with NetworkStats. The trace
            # is left intact — run.preload records stay visible.
            obs.metrics.reset()
        pump = _counted_pump(system, obs)
        with obs.span("run.replay"):
            yield pump
        # settle: let upload delays elapse under normal pumping, then drain
        with obs.span("run.settle"):
            system.settle(10, pump=pump)
        with obs.span("run.flush"):
            system.flush()


def run_trace(
    name: str,
    trace: Trace,
    *,
    profile: CostProfile = PC_PROFILE,
    network: NetworkModel = PC_NETWORK,
    config: Optional[DeltaCFSConfig] = None,
    sync_interval: Optional[float] = None,
    pump_interval: float = 1.0,
    dropbox_dedup_size: int = 4 * 1024 * 1024,
    seafile_chunk_size: int = 1024 * 1024,
    obs: Observability = NULL_OBS,
    faults: NetworkFaults = NO_FAULTS,
    retry: Optional[RetryPolicy] = None,
    fault_seed: int = 0,
    journal_kv=None,
) -> RunResult:
    """Build ``name``, preload, replay ``trace``, flush, and collect.

    The run goes through :func:`measured_run`; with a live ``obs`` every
    scalar metric series also lands in :attr:`RunResult.extra` under its
    registry name.
    """
    system = build_system(
        name,
        profile=profile,
        network=network,
        config=config,
        sync_interval=sync_interval,
        dropbox_dedup_size=dropbox_dedup_size,
        seafile_chunk_size=seafile_chunk_size,
        obs=obs,
        faults=faults,
        retry=retry,
        fault_seed=fault_seed,
        journal_kv=journal_kv,
    )
    with measured_run(system, trace, obs) as pump:
        replay(trace, system.fs, system.clock, pump=pump, pump_interval=pump_interval)

    extra = {}
    if name == "deltacfs":
        stats = system.client.stats
        extra = {
            "deltas_triggered": stats.deltas_triggered,
            "deltas_kept": stats.deltas_kept,
            "inplace_deltas": stats.inplace_deltas,
            "nodes_uploaded": stats.nodes_uploaded,
            "conflicts": stats.conflicts,
        }
        if system.transport is not None:
            tstats = system.transport.stats
            extra.update(
                {
                    "transport_sent": tstats.sent,
                    "transport_retransmits": tstats.retransmits,
                    "transport_timeouts": tstats.timeouts,
                    "transport_acked": tstats.acked,
                    "server_dedup_drops": system.server.dedup_drops,
                }
            )
    elif hasattr(system.client, "sync_rounds"):
        extra = {"sync_rounds": system.client.sync_rounds}
    if obs.enabled:
        extra.update(obs.metrics.snapshot())
    return RunResult(
        solution=name,
        trace=trace.name,
        client_ticks=system.client_meter.total,
        server_ticks=system.server_meter.total,
        up_bytes=system.channel.stats.up_bytes,
        down_bytes=system.channel.stats.down_bytes,
        update_bytes=trace.stats.update_bytes,
        duration=system.clock.now(),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# benchmark snapshots (the BENCH_<name>.json trajectory)
# ---------------------------------------------------------------------------


def bench_metrics(result: RunResult) -> Dict[str, float]:
    """Flatten one run into the gate-comparable metric map.

    Keys are ``{setting/}trace/solution/metric`` (setting appears only
    when the experiment recorded one, e.g. ``mobile``), values are plain
    floats so the snapshot JSON-serializes losslessly. ``tue`` is emitted
    only when defined — division-by-zero runs (no logical update) have
    nothing to gate.
    """
    prefix = f"{result.trace}/{result.solution}"
    setting = result.extra.get("setting")
    if setting:
        prefix = f"{setting}/{prefix}"
    out: Dict[str, float] = {
        f"{prefix}/up_bytes": float(result.up_bytes),
        f"{prefix}/down_bytes": float(result.down_bytes),
        f"{prefix}/client_ticks": float(result.client_ticks),
        f"{prefix}/server_ticks": float(result.server_ticks),
    }
    if math.isfinite(result.tue):
        out[f"{prefix}/tue"] = float(result.tue)
    return out


def run_metrics(results: List[RunResult]) -> Dict[str, float]:
    """The gate metrics of a list of runs: each run's :func:`bench_metrics`,
    with colliding keys (two runs of one cell) an error."""
    metrics: Dict[str, float] = {}
    for result in results:
        for key, value in bench_metrics(result).items():
            if key in metrics:
                raise ValueError(f"duplicate bench metric key {key!r}")
            metrics[key] = value
    return metrics


def bench_snapshot(name: str, results: List[RunResult]) -> Dict[str, object]:
    """The ``BENCH_<name>.json`` document for one experiment's runs."""
    return bench_doc(name, run_metrics(results))
