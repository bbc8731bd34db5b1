"""The one place a DeltaCFS client is wired to a server and driven.

The paper's evaluation has one recipe — one cloud, N clients on shared
virtual time, seed the sync folder, replay, let the upload delay elapse,
flush, compare — and every harness and example in this repository
builds and drives its system through this module:

    from repro.sim import Simulation

    sim = Simulation(clients=2)
    laptop, phone = sim.clients
    laptop.create("/f")
    laptop.write("/f", 0, b"hello")
    laptop.close("/f")
    sim.settle()
    assert phone.read("/f", 0, None) == b"hello"
    assert sim.converged()
    print(sim.report())

:func:`attach_client` builds one client stack, :class:`RunPhases` is the
drive loop (shared with the five-solution view in
:mod:`repro.harness.runner`), and :class:`Simulation` takes the rest of
the topology: ``Simulation(server=ShardRouter(4),
faults=NetworkFaults(drop_prob=0.1), fault_seed=3)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.core.client import DeltaCFSClient
from repro.core.conflict import is_conflict_copy
from repro.cost.meter import CostMeter, NULL_METER
from repro.cost.profile import CostProfile, PC_PROFILE
from repro.faults.crash import restart
from repro.faults.network import NO_FAULTS, NetworkFaults
from repro.metrics.report import format_bytes, format_table
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.transport import (
    Channel,
    LossyChannel,
    NetworkModel,
    NetworkStats,
    PC_NETWORK,
)
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import FileSystemAPI, MemoryFileSystem
from repro.workloads.traces import Trace


def attach_client(
    server,
    *,
    clock: VirtualClock,
    client_id: int = 1,
    fs: Optional[FileSystemAPI] = None,
    channel: Optional[Channel] = None,
    config: Optional[DeltaCFSConfig] = None,
    network: NetworkModel = PC_NETWORK,
    meter: CostMeter = NULL_METER,
    server_meter: CostMeter = NULL_METER,
    obs: Observability = NULL_OBS,
    faults: NetworkFaults = NO_FAULTS,
    retry: Optional[RetryPolicy] = None,
    fault_seed: int = 0,
    journal_kv=None,
    checksum_kv=None,
    shares: Optional[Tuple[str, ...]] = None,
) -> DeltaCFSClient:
    """Attach one DeltaCFS client stack to ``server``.

    ``server`` is a ``CloudServer`` or a ``ShardRouter``. ``fs`` is the
    local file system (a fresh ``MemoryFileSystem`` by default). The link
    is built from ``network`` and the two meters unless a prebuilt
    ``channel`` is given; a non-lossless
    ``faults`` plan (or an explicit ``retry`` policy) makes it a
    :class:`LossyChannel` seeded with ``fault_seed`` under a
    :class:`ReliableTransport` that presents this ``client_id``.
    Everything about the stack is reachable from the returned client
    (``.inner``, ``.channel``, ``.transport``, ``.meter``).
    """
    transport: Optional[ReliableTransport] = None
    if channel is None:
        link = dict(
            model=network, client_meter=meter, server_meter=server_meter, obs=obs
        )
        if faults.lossless and retry is None:
            channel = Channel(**link)
        else:
            channel = LossyChannel(faults=faults, seed=fault_seed, **link)
            transport = ReliableTransport(
                channel,
                server,
                client_id=client_id,
                policy=retry,
                seed=fault_seed,
                obs=obs,
            )
    return DeltaCFSClient(
        fs if fs is not None else MemoryFileSystem(),
        server=server,
        channel=channel,
        clock=clock,
        client_id=client_id,
        meter=meter,
        config=config,
        obs=obs,
        checksum_kv=checksum_kv,
        transport=transport,
        journal_kv=journal_kv,
        shares=shares,
    )


class RunPhases:
    """The run phases every harness repeats, written once.

    They drive anything that offers ``fs`` (the surface a workload writes
    to), ``clock``, ``pump(now)``, ``flush()`` and ``reset_counters()``.
    """

    def preload(self, trace: Trace) -> None:
        """Install preloaded files and let them sync outside the measurement."""
        if not trace.preload:
            return
        for path, content in sorted(trace.preload.items()):
            self.fs.create(path)
            if content:
                self.fs.write(path, 0, content)
            self.fs.close(path)
        # give time-based engines room to upload the seed content
        self.settle(12)
        self.flush()
        self.reset_counters()

    def settle(self, seconds: float = 6.0, step: float = 1.0, pump=None) -> None:
        """Advance virtual time in ``step`` ticks, pumping after each.

        ``seconds`` should exceed the upload delay (default 3 s) so every
        queued node becomes due. ``pump`` stands in for ``self.pump`` when
        a harness wraps it (counters, sampling).
        """
        pump = pump if pump is not None else self.pump
        elapsed = 0.0
        while elapsed < seconds:
            tick = min(step, seconds - elapsed)
            self.clock.advance(tick)
            elapsed += tick
            pump(self.clock.now())


def _covers(shares: Tuple[str, ...], path: str) -> bool:
    """Whether a subscription to ``shares`` includes ``path``."""
    return any(
        path == prefix or path.startswith(prefix.rstrip("/") + "/")
        for prefix in shares
    )


class Simulation(RunPhases):
    """A cloud plus DeltaCFS devices on one virtual clock.

    Args:
        clients: number of devices to attach, or already-attached clients
            to drive (how the fleet and capacity harnesses hand over what
            ``provision_clients`` built).
        server: a prebuilt ``CloudServer`` or ``ShardRouter``; by default
            a ``CloudServer`` metered at PC cost whatever the clients run
            on.
        clock: shared virtual time (created if not given).
        config: DeltaCFS tunables applied to every client.
        network: link model for every client<->cloud channel.
        profile: CPU-cost profile for the clients.
        obs: observability hub for server, channels and clients; its
            trace clock is bound to ``clock``.
        faults / retry / fault_seed: see :func:`attach_client`.
        shares / journal_kv / checksum_kv / fs: per-client pieces of the
            initial clients; give each further :meth:`attach` its own.
    """

    def __init__(
        self,
        clients: Union[int, Sequence[DeltaCFSClient]] = 1,
        *,
        server=None,
        clock: Optional[VirtualClock] = None,
        config: Optional[DeltaCFSConfig] = None,
        network: NetworkModel = PC_NETWORK,
        profile: CostProfile = PC_PROFILE,
        obs: Observability = NULL_OBS,
        faults: NetworkFaults = NO_FAULTS,
        retry: Optional[RetryPolicy] = None,
        fault_seed: int = 0,
        **first_clients,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        obs.bind_clock(self.clock)
        self.server = (
            server if server is not None else CloudServer(meter=CostMeter(), obs=obs)
        )
        self._profile = profile
        self._stack = dict(
            config=config,
            network=network,
            obs=obs,
            faults=faults,
            retry=retry,
            fault_seed=fault_seed,
        )
        self.clients: List[DeltaCFSClient] = []
        if not isinstance(clients, int):
            self.clients.extend(clients)
        elif clients < 1:
            raise ValueError("need at least one client")
        else:
            for _ in range(clients):
                self.attach(**first_clients)

    def attach(self, **per_client) -> DeltaCFSClient:
        """Add one more device over this topology.

        ``per_client`` are :func:`attach_client`'s per-client keywords
        (``fs``, ``shares``, ``journal_kv``, ``checksum_kv``, ``client_id``,
        a ``config`` override). The link terminates at the cloud's meter —
        behind a router, at the meter of the client's home shard.
        """
        stack = {**self._stack, **per_client}
        client_id = stack.setdefault("client_id", len(self.clients) + 1)
        meters = self.server_meters
        home = self.server.home_shard_index(client_id) if len(meters) > 1 else 0
        client = attach_client(
            self.server,
            clock=self.clock,
            meter=CostMeter(self._profile),
            server_meter=meters[home],
            **stack,
        )
        self.clients.append(client)
        return client

    def restart(self, client: DeltaCFSClient) -> DeltaCFSClient:
        """Power-cut ``client`` (:func:`repro.faults.crash.restart`): its
        successor takes its place in ``clients``; call its ``recover()``."""
        reborn = restart(client)
        self.clients[self.clients.index(client)] = reborn
        return reborn

    @property
    def client(self) -> DeltaCFSClient:
        """The first client (convenience for single-device studies)."""
        return self.clients[0]

    fs = client  # the surface preload writes to

    @property
    def server_meters(self) -> List[CostMeter]:
        """The cloud's meter, or one per shard behind a router."""
        return getattr(self.server, "shard_meters", None) or [self.server.meter]

    # -- the drive surface RunPhases needs ---------------------------------

    def pump(self, now: Optional[float] = None) -> int:
        """Pump every client; returns the upload units shipped."""
        if now is None:
            now = self.clock.now()
        return sum(client.pump(now) for client in self.clients)

    def flush(self) -> int:
        """Drain every queue, then retransmit until every envelope is
        acked — flush alone cannot advance virtual time."""
        shipped = sum(client.flush() for client in self.clients)
        for client in self.clients:
            if client.transport is not None:
                client.transport.settle(self.clock)
        return shipped

    def reset_counters(self) -> None:
        """Zero meters and traffic counters (after preload)."""
        for meter in self.server_meters:
            meter.reset()
        for client in self.clients:
            client.meter.reset()
            client.channel.stats = NetworkStats()

    # -- comparing replicas --------------------------------------------------

    def mismatched(self) -> List[str]:
        """Paths on which some replica and the cloud disagree, sorted.

        Each client is held to its own scope: its preservation tmp area is
        exempt (the client's ``_unsynced`` rule), and a cloud file has to
        be on the client only when its shares cover it. Conflict copies
        exist on the cloud alone.
        """
        store = self.server.store
        cloud = [p for p in store.paths() if not is_conflict_copy(p)]
        bad = set()
        for client in self.clients:
            local = {
                p for p in client.inner.walk_files() if not client._unsynced(p)
            }
            bad.update(
                p
                for p in local
                if not store.exists(p)
                or self.server.file_content(p) != client.inner.read_file(p)
            )
            bad.update(
                p for p in cloud if p not in local and _covers(client.shares, p)
            )
        return sorted(bad)

    def converged(self) -> bool:
        """True when every client's synced tree matches the cloud."""
        return not self.mismatched()

    def report(self) -> str:
        """A per-principal traffic/CPU table."""
        rows = []
        for client in self.clients:
            stats = client.channel.stats
            rows.append(
                [
                    f"client {client.client_id}",
                    f"{client.meter.total:.1f}",
                    format_bytes(stats.up_bytes),
                    format_bytes(stats.down_bytes),
                    int(client.stats.deltas_kept),
                    int(client.stats.conflicts),
                ]
            )
        cloud_ticks = sum(meter.total for meter in self.server_meters)
        rows.append(["cloud", f"{cloud_ticks:.1f}", "-", "-", "-", "-"])
        return format_table(
            ["principal", "CPU ticks", "up", "down", "deltas", "conflicts"], rows
        )
