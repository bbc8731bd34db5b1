"""Fleet-scale discrete-event simulation against the sharded cloud.

Where :mod:`repro.harness.capacity` replays a lock-step workload (every
client writes every round) against one ``CloudServer``, this driver runs
10^4 – 10^6 clients in **virtual time** against a :class:`ShardRouter`:
each client's writes arrive on its own stochastic schedule (Poisson or
bursty), uploads are debounced by the real Sync Queue, and each shard is
modelled as a single wimpy core draining its apply work FIFO. The
output is the scaling curve the paper's Section VI hand-waves: clients
vs p99 sync latency, with per-shard CPU-tick accounting.

Mechanics
---------

Every event is ``(time, seq, client, kind)`` on one heap; ``seq`` breaks
ties deterministically. A WRITE event performs the client's
``write``+``close`` through the full DeltaCFS pipeline and schedules a
PUMP at ``time + upload_delay`` (when the queue node becomes due). A
PUMP ships the client's due units into the router; the CPU ticks the
client's home shard charged during that pump, scaled by
``tick_seconds``, become the service demand appended to that shard's
busy horizon:

    start = max(now, shard_busy);  done = start + ticks * tick_seconds

Sync latency for each write is ``done - write_time`` — debounce wait,
queueing behind other tenants on the shard, and service, all included.

Telemetry is kept exactly: the driver records each measured completion
once, in a :class:`~repro.obs.health.ShardWindows` rollup (per-shard,
per-virtual-time-window latency samples, queue-depth peaks and busy
time). ``FleetResult``'s quantiles, stalls and queue peaks are reads of
that rollup, and ``FleetResult.health()`` folds it into an SLO health
report (``repro fleet --health``). An observed run records the rollup's
grid and objectives and every completion in its trace, from which
``repro inspect --health`` rebuilds the same report.

Determinism: all randomness flows from one ``DeterministicRandom`` seed
via per-client forks, so a (seed, spec) pair reproduces the same curve
bit-for-bit on any machine — which is what lets ``BENCH_fleet.json``
be gated against a committed baseline.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Tuple

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.common.rng import DeterministicRandom
from repro.core.client import DeltaCFSClient
from repro.cost.meter import CostMeter
from repro.metrics import collector
from repro.net.transport import Channel
from repro.obs import NULL_OBS, Observability
from repro.obs.health import (
    SLO_SECONDS,
    STALL_HORIZON,
    HealthReport,
    ShardWindows,
    health_from_windows,
    quantile,
)
from repro.server.shard import ShardRouter
from repro.sim import Simulation, attach_client

__all__ = [
    "FleetSpec",
    "FleetResult",
    "provision_clients",
    "run_fleet",
    "fleet_curve",
    "FLEET_CURVE",
]

#: Seeded file size per client (kept small — 10^5 clients at the capacity
#: harness's 256 KiB would be 25 GiB).
FILE_SIZE = 4096
#: Bytes per in-place write.
WRITE_SIZE = 512
#: Bursty arrivals: uniform jitter width inside a wave, in seconds.
BURST_JITTER = 4.0


def provision_clients(
    n_clients: int,
    *,
    server,
    clock: VirtualClock,
    rng: DeterministicRandom,
    file_size: int,
    server_meter_for: Callable[[int], CostMeter],
    obs: Observability = NULL_OBS,
) -> Tuple[List[DeltaCFSClient], List[Channel]]:
    """The provisioning loop shared by capacity and fleet runs.

    Client ``i`` (1-based) is one :func:`repro.sim.attach_client` stack:
    its own ``MemoryFileSystem``, an unmetered-client, uninstrumented
    channel charging ``server_meter_for(i)`` for server-side receive
    work, a share subscription scoped to its private ``/u{i}`` folder
    (Section III-D selective sharing — on a sharded server this pins the
    registration to one shard), and a seeded ``/u{i}/data.bin`` of
    ``file_size`` bytes drawn from ``rng.fork(str(i))``.

    The seed uploads are *enqueued*, not yet shipped: the caller settles
    them (and resets meters) before its measurement window, so different
    harnesses can settle at whatever cadence they need without this
    function perturbing their clocks.
    """
    clients: List[DeltaCFSClient] = []
    channels: List[Channel] = []
    for client_id in range(1, n_clients + 1):
        channel = Channel(server_meter=server_meter_for(client_id))
        client = attach_client(
            server,
            clock=clock,
            client_id=client_id,
            channel=channel,
            config=DeltaCFSConfig(enable_checksums=False),
            shares=(f"/u{client_id}",),
            obs=obs,
        )
        path = f"/u{client_id}/data.bin"
        client.mkdir(f"/u{client_id}")
        client.create(path)
        client.write(path, 0, rng.fork(str(client_id)).random_bytes(file_size))
        client.close(path)
        clients.append(client)
        channels.append(channel)
    return clients, channels


@dataclass
class FleetSpec:
    """One fleet-simulation configuration.

    Args:
        n_clients: simulated clients (each in a private namespace).
        n_shards: CloudServer shards behind the router.
        writes_per_client: in-place ``WRITE_SIZE`` writes per client
            after seeding its ``FILE_SIZE`` file.
        arrival: ``"poisson"`` (independent exponential gaps) or
            ``"bursty"`` (synchronized waves with uniform jitter — the
            everyone-saves-at-once shape that stresses shard queues).
        mean_gap: poisson — mean seconds between one client's writes.
        burst_every: bursty — seconds between waves (each wave spread
            over ``BURST_JITTER`` seconds).
        window_seconds: width of the telemetry rollup windows (virtual
            seconds); per-shard latency samples, queue peaks and busy
            time aggregate per window.
        slo_seconds: the sync-latency objective — a write meets the SLO
            when its sync latency is at or under this.
        stall_horizon: a write whose sync takes longer than this counts
            as a stall in the health report.
        tick_seconds: virtual seconds of shard-core time per modelled
            CPU tick; the wimpy-core scale factor relating the cost
            model's ticks to the simulation's clock. The default (8.0)
            is calibrated so the committed 10^4-client curve runs its
            shards at moderate utilization — low enough that the paper's
            wimpy-server claim holds, high enough that the bursty
            arrival mix visibly queues.
        seed: root of the deterministic randomness tree.
    """

    n_clients: int = 10_000
    n_shards: int = 8
    writes_per_client: int = 3
    arrival: str = "poisson"
    mean_gap: float = 20.0
    burst_every: float = 20.0
    tick_seconds: float = 8.0
    seed: int = 0
    window_seconds: float = 20.0
    slo_seconds: float = SLO_SECONDS
    stall_horizon: float = STALL_HORIZON

    def validate(self) -> None:
        if self.n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.slo_seconds <= 0 or self.stall_horizon <= 0:
            raise ValueError("slo_seconds and stall_horizon must be positive")


@dataclass
class FleetResult:
    """Measured outcome of one :func:`run_fleet`.

    ``shard_busy`` is the driver's running sum of each shard's service
    time: the rollup holds the same terms grouped by window, and float
    addition regrouped differs in the last bits.
    """

    spec: FleetSpec
    writes: int
    shard_ticks: List[float]
    shard_busy: List[float]
    total_up_bytes: int
    duration: float
    migrations: int
    conflicts: int
    rollup: ShardWindows

    @cached_property
    def latencies(self) -> List[float]:
        """Every measured write's sync latency, sorted."""
        return self.rollup.overall_latencies()

    @property
    def p50_latency(self) -> float:
        return quantile(self.latencies, 0.50)

    @property
    def p90_latency(self) -> float:
        return quantile(self.latencies, 0.90)

    @property
    def p99_latency(self) -> float:
        return quantile(self.latencies, 0.99)

    @property
    def max_latency(self) -> float:
        return self.latencies[-1] if self.latencies else 0.0

    @property
    def stalls(self) -> int:
        """Writes whose sync took longer than the stall horizon."""
        return self.health().total_stalls

    @property
    def shard_queue_peak(self) -> List[int]:
        """Each shard's deepest queue over the run."""
        peaks = [0] * self.spec.n_shards
        for cell in self.rollup.windows():
            peaks[cell.shard] = max(peaks[cell.shard], cell.queue_peak)
        return peaks

    @property
    def ticks_per_client(self) -> float:
        return sum(self.shard_ticks) / self.spec.n_clients

    def health(self) -> HealthReport:
        """SLO health report over this run's rollups."""
        return health_from_windows(
            self.rollup,
            slo_seconds=self.spec.slo_seconds,
            stall_horizon=self.spec.stall_horizon,
        )


_WRITE, _PUMP = 0, 1


def run_fleet(spec: FleetSpec, *, obs: Observability = NULL_OBS) -> FleetResult:
    """Run one fleet simulation in virtual time; fully deterministic."""
    spec.validate()
    clock = VirtualClock()
    obs.bind_clock(clock)
    rng = DeterministicRandom(spec.seed)
    router = ShardRouter(spec.n_shards, obs=obs)

    def meter_for(client_id: int) -> CostMeter:
        return router.shard_meters[
            router.shard_index_for_path(f"/u{client_id}/data.bin")
        ]

    clients, channels = provision_clients(
        spec.n_clients,
        server=router,
        clock=clock,
        rng=rng,
        file_size=FILE_SIZE,
        server_meter_for=meter_for,
        obs=obs,
    )
    home_shard = [
        router.shard_index_for_path(f"/u{cid}/data.bin")
        for cid in range(1, spec.n_clients + 1)
    ]
    obs.set_gauge("fleet.clients", spec.n_clients)

    # Settle the seed uploads outside the measurement window.
    sim = Simulation(clients, server=router, clock=clock, obs=obs)
    upload_delay = clients[0].config.upload_delay
    sim.settle(upload_delay + 1.0, step=upload_delay + 1.0)
    sim.flush()
    sim.reset_counters()

    # Per-client write schedules and payload streams.
    arrival_rngs = [rng.fork(f"t{cid}") for cid in range(1, spec.n_clients + 1)]
    write_rngs = [rng.fork(f"w{cid}") for cid in range(1, spec.n_clients + 1)]

    t0 = clock.now()
    if obs.enabled:
        obs.event(
            "fleet.run.started",
            shards=spec.n_shards,
            t0=t0,
            window_seconds=spec.window_seconds,
            slo_seconds=spec.slo_seconds,
            stall_horizon=spec.stall_horizon,
        )
    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for i in range(spec.n_clients):
        t = t0 + _next_gap(spec, arrival_rngs[i], wave=0)
        heapq.heappush(heap, (t, seq, i, _WRITE))
        seq += 1

    writes_left = [spec.writes_per_client] * spec.n_clients
    waves = [0] * spec.n_clients
    pending: List[List[float]] = [[] for _ in range(spec.n_clients)]
    # Windowed rollups of every latency, tracked unconditionally so
    # reported quantiles are identical with observability on or off.
    rollup = ShardWindows(spec.n_shards, spec.window_seconds, t0=t0)
    shard_busy = [0.0] * spec.n_shards
    shard_busy_total = [0.0] * spec.n_shards
    shard_depth = [0] * spec.n_shards
    completions: List[Tuple[float, int]] = []  # (done_time, shard)
    up_marks = [0] * spec.n_clients
    writes_issued = 0

    def drain_completions(now: float) -> None:
        while completions and completions[0][0] <= now:
            _, shard = heapq.heappop(completions)
            shard_depth[shard] -= 1

    def complete(i: int, now: float, ticks_before: float) -> Tuple[float, float]:
        """Account what client ``i`` just shipped: the ticks its home
        shard charged since ``ticks_before`` become service time appended
        to the shard's busy horizon, and every pending write of the client
        completes when that service does. Returns ``(done, service)``."""
        shard = home_shard[i]
        service = (router.shard_meters[shard].total - ticks_before) * spec.tick_seconds
        start = max(now, shard_busy[shard])
        done = start + service
        shard_busy[shard] = done
        shard_busy_total[shard] += service
        rollup.record_busy(shard, start, service)
        for write_t in pending[i]:
            latency = done - write_t
            rollup.record_latency(shard, done, latency)
            if obs.enabled:
                obs.event(
                    "fleet.sync.completed",
                    shard=shard,
                    client=i + 1,
                    latency=latency,
                    done=done,
                )
        pending[i].clear()
        return done, service

    while heap:
        t, _, i, kind = heapq.heappop(heap)
        now = clock.now()
        if t > now:
            clock.advance(t - now)
        drain_completions(t)
        client = clients[i]
        shard = home_shard[i]
        if kind == _WRITE:
            wrng = write_rngs[i]
            offset = wrng.randint(0, FILE_SIZE - WRITE_SIZE - 1)
            path = f"/u{i + 1}/data.bin"
            client.write(path, offset, wrng.random_bytes(WRITE_SIZE))
            client.close(path)
            pending[i].append(t)
            writes_issued += 1
            writes_left[i] -= 1
            obs.inc("fleet.writes.issued")
            heapq.heappush(heap, (t + upload_delay + 1e-9, seq, i, _PUMP))
            seq += 1
            if writes_left[i] > 0:
                waves[i] += 1
                gap = _next_gap(spec, arrival_rngs[i], wave=waves[i])
                base = t if spec.arrival == "poisson" else t0
                heapq.heappush(heap, (base + gap, seq, i, _WRITE))
                seq += 1
        else:  # _PUMP
            ticks_before = router.shard_meters[shard].total
            client.pump()
            if channels[i].stats.up_bytes <= up_marks[i]:
                continue  # nothing was due yet
            up_marks[i] = channels[i].stats.up_bytes
            done, service = complete(i, t, ticks_before)
            heapq.heappush(completions, (done, shard))
            shard_depth[shard] += 1
            rollup.record_depth(shard, t, shard_depth[shard])
            if obs.enabled:
                obs.set_gauge(
                    "fleet.shard.queue_depth", shard_depth[shard], shard=shard
                )
                obs.inc("fleet.shard.busy_time", service, shard=shard)

    # Anything still queued (a write whose pump raced the heap drain)
    # ships at the end of the horizon.
    for i, client in enumerate(clients):
        if pending[i]:
            ticks_before = router.shard_meters[home_shard[i]].total
            client.flush()
            complete(i, clock.now(), ticks_before)

    total_up = sum(c.stats.up_bytes for c in channels)
    conflicts = sum(
        1 for shard in router.shards for r in shard.apply_log if not r.ok
    )
    result = FleetResult(
        spec=spec,
        writes=writes_issued,
        shard_ticks=[m.total for m in router.shard_meters],
        shard_busy=shard_busy_total,
        total_up_bytes=total_up,
        duration=clock.now(),
        migrations=router.migrations,
        conflicts=conflicts,
        rollup=rollup,
    )
    if obs.enabled:
        _emit_telemetry(obs, result)
    return result


def _emit_telemetry(obs: Observability, result: FleetResult) -> None:
    """Flush the rollups and the health report into the obs sink
    (obs-enabled only)."""
    obs.set_gauge("fleet.window.seconds", result.spec.window_seconds)
    for cell in result.rollup.windows():
        obs.inc("fleet.window.rollovers", shard=cell.shard)
        obs.event("fleet.window.closed", **cell.to_dict())
    report = result.health()
    for shard_health in report.shards:
        obs.set_gauge(
            "health.slo.attainment",
            shard_health.slo_attainment,
            shard=shard_health.shard,
        )
        if shard_health.stalls:
            obs.inc("health.stalls", shard_health.stalls, shard=shard_health.shard)
        if shard_health.regressed_windows:
            obs.inc(
                "health.regressions",
                len(shard_health.regressed_windows),
                shard=shard_health.shard,
            )


def _next_gap(spec: FleetSpec, rng: DeterministicRandom, *, wave: int) -> float:
    """Next arrival offset for one client.

    Poisson: an exponential gap from the previous write. Bursty: wave
    ``k`` fires at ``(k + 1) * burst_every`` plus uniform jitter — every
    client hits the same wall-clock wave, which is the worst case for a
    FIFO shard core.
    """
    if spec.arrival == "poisson":
        return -math.log(1.0 - rng.random()) * spec.mean_gap
    return (wave + 1) * spec.burst_every + rng.random() * BURST_JITTER


# The committed scaling curve: fixed spec per point so the BENCH_fleet
# snapshot is comparable across commits. 8 shards throughout; client
# count sweeps through the 10^4 acceptance scale; the bursty point
# stresses queueing at the same size as the largest poisson point.
FLEET_CURVE: Tuple[FleetSpec, ...] = (
    FleetSpec(n_clients=1_000, n_shards=8),
    FleetSpec(n_clients=4_000, n_shards=8),
    FleetSpec(n_clients=10_000, n_shards=8),
    FleetSpec(n_clients=10_000, n_shards=8, arrival="bursty"),
)


def fleet_curve(
    specs: Tuple[FleetSpec, ...] = FLEET_CURVE,
    *,
    obs: Observability = NULL_OBS,
) -> List[FleetResult]:
    """Run the committed scaling curve (or a custom sweep)."""
    return [run_fleet(spec, obs=obs) for spec in specs]


def bench_doc(results: List[FleetResult]) -> Dict[str, object]:
    """``BENCH_fleet.json`` document for :mod:`tools.bench_gate`."""
    metrics: Dict[str, float] = {}
    for result in results:
        spec = result.spec
        key = f"fleet-{spec.n_clients}x{spec.n_shards}-{spec.arrival}"
        metrics[f"{key}/p50_latency_s"] = result.p50_latency
        metrics[f"{key}/p99_latency_s"] = result.p99_latency
        metrics[f"{key}/shard_ticks_max"] = max(result.shard_ticks)
        metrics[f"{key}/ticks_per_client"] = result.ticks_per_client
        metrics[f"{key}/up_bytes"] = float(result.total_up_bytes)
    return collector.bench_doc("fleet", metrics)
