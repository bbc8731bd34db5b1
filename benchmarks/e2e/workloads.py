"""The five benchmark workloads: build a topology, drive it, check it.

Every workload is a closed loop on one driver thread: application ops
are issued back-to-back in wall time while a ``VirtualClock`` supplies
simulated time. ``build`` is everything ``setup_s`` pays for (input
generation, topology, preload/provision, seed settle); ``drive`` is the
measured window; ``verify`` compares every replica with the server and,
for the trace workloads, with an oracle replay onto a bare file system.

Inputs are fixed here. ``SIZES[name][True]`` are the tiny ``--quick``
variants the self-test uses; only the full sizes produce comparable
numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.common.rng import DeterministicRandom
from repro.core.client import DeltaCFSClient
from repro.cost.meter import CostMeter
from repro.faults.network import NetworkFaults
from repro.harness import fleet
from repro.kvstore.kv import MemoryKV
from repro.net.reliable import ReliableTransport
from repro.net.transport import Channel, LossyChannel
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import CloudServer
from repro.server.shard import ShardRouter
from repro.vfs.filesystem import MemoryFileSystem
from repro.workloads.filebench import varmail_ops
from repro.workloads.traces import Trace, replay
from repro.workloads.wechat import wechat_trace
from repro.workloads.word import word_trace

SIZES: Dict[str, Dict[bool, Dict[str, int]]] = {
    "word_save": {
        False: dict(scale=8, saves=61),
        True: dict(scale=32, saves=4),
    },
    "wechat_inplace": {
        False: dict(scale=32, modifications=373),
        True: dict(scale=512, modifications=12),
    },
    "fleet_small": {
        False: dict(clients=4000, shards=8, rounds=12, file_size=4096, write_size=512),
        True: dict(clients=40, shards=4, rounds=3, file_size=4096, write_size=512),
    },
    "shared_fanout": {
        False: dict(clients=16, files=32, file_size=256 * 1024, writes=4000, write_size=4096),
        True: dict(clients=4, files=4, file_size=16 * 1024, writes=40, write_size=4096),
    },
    "mail_lossy_journal": {
        False: dict(operations=12000),
        True: dict(operations=150),
    },
}


@dataclass
class System:
    """One built topology, ready for its measured window."""

    seed: int
    clock: VirtualClock
    server: object  # CloudServer or ShardRouter
    clients: List[DeltaCFSClient]
    disks: List[MemoryFileSystem]  # disks[i] backs clients[i]
    channels: List[Channel]
    meters: List[CostMeter]  # every client and server meter, each once
    size: Dict[str, int]  # the SIZES row this was built from
    update_bytes: int  # logical new data: the TUE denominator
    bytes_written: int
    gen_s: float  # input generation inside build
    transport: Optional[ReliableTransport] = None
    plan: object = None  # the workload's generated inputs

    def counters(self) -> Dict[str, float]:
        """Cumulative totals; a window is the difference of two of these."""
        stats = [client.stats for client in self.clients]
        net = [channel.stats for channel in self.channels]
        sent = self.transport.stats if self.transport is not None else None
        log = self.server.apply_log  # a router concatenates its shards' logs
        applied = sum(1 for result in log if result.ok)
        return {
            "up_bytes": sum(n.up_bytes for n in net),
            "down_bytes": sum(n.down_bytes for n in net),
            "messages": sum(n.up_messages + n.down_messages for n in net),
            "ticks": sum(meter.total for meter in self.meters),
            "deltas_triggered": sum(s.deltas_triggered for s in stats),
            "deltas_kept": sum(s.deltas_kept for s in stats),
            "forwards_applied": sum(s.forwards_applied for s in stats),
            "conflicts": sum(s.conflicts for s in stats),
            "applied": applied,
            "rejected": len(log) - applied,
            "dedup_drops": self.server.dedup_drops,
            "migrations": getattr(self.server, "migrations", 0),
            "sent": sent.sent if sent else 0,
            "retransmits": sent.retransmits if sent else 0,
            "acked": sent.acked if sent else 0,
        }


def _single_client(obs: Observability, config: DeltaCFSConfig, **inputs) -> System:
    """One client, one ``CloudServer``, a perfect channel."""
    clock = VirtualClock()
    obs.bind_clock(clock)
    client_meter, server_meter = CostMeter(), CostMeter()
    server = CloudServer(meter=server_meter, obs=obs)
    channel = Channel(client_meter=client_meter, server_meter=server_meter, obs=obs)
    disk = MemoryFileSystem()
    client = DeltaCFSClient(
        disk, server=server, channel=channel, clock=clock,
        meter=client_meter, config=config, obs=obs,
    )
    return System(
        clock=clock, server=server, clients=[client], disks=[disk],
        channels=[channel], meters=[client_meter, server_meter], **inputs,
    )


def _settle(system: System, loop, seconds: int) -> None:
    """Advance virtual time in 1 s steps, pumping every client."""
    for _ in range(seconds):
        system.clock.advance(1.0)
        now = system.clock.now()
        for client in system.clients:
            if loop is None:
                client.pump(now)
            else:
                loop.sync(client.pump, now)


def _synced_files(client: DeltaCFSClient, disk: MemoryFileSystem) -> List[str]:
    tmp = client.config.tmp_dir + "/"
    return [path for path in disk.walk_files() if not path.startswith(tmp)]


def compare_replicas(system: System) -> Tuple[int, List[str]]:
    """``(files compared, what differed)``: every file on every replica
    equals the server's copy, and the server holds nothing else."""
    compared = 0
    wrong: List[str] = []
    on_clients = set()
    for client, disk in zip(system.clients, system.disks):
        for path in _synced_files(client, disk):
            on_clients.add(path)
            compared += 1
            if (
                not system.server.store.exists(path)
                or system.server.file_content(path) != disk.read_file(path)
            ):
                wrong.append(f"server copy of {path} differs from client {client.client_id}")
    extra = sorted(set(system.server.store.paths()) - on_clients)
    wrong += [f"server holds {path}, no client does" for path in extra]
    return compared + len(extra), wrong


class Workload:
    name = ""

    def build(self, seed: int, quick: bool, obs: Observability = NULL_OBS) -> System:
        raise NotImplementedError

    def drive(self, system: System, loop) -> None:
        raise NotImplementedError

    def verify(self, system: System, window: Dict[str, float]) -> Tuple[int, List[str]]:
        """``(files compared, failures)`` after the window, one line per
        failure; ``window`` is the counter difference over it."""
        return compare_replicas(system)


class TraceReplay(Workload):
    """A paper trace replayed through one client with 1 s pumps, a 10 s
    settle and a flush — ``run_trace``'s protocol, with each op timed."""

    def __init__(self, name: str, make_trace: Callable[..., Trace]):
        self.name = name
        self.make_trace = make_trace
        self._oracles: Dict[tuple, MemoryFileSystem] = {}

    def _oracle(self, system: System) -> MemoryFileSystem:
        """The trace replayed onto a bare file system. Every repeat of a
        seed replays the same ops, so one replay serves them all."""
        key = (system.seed, *sorted(system.size.items()))
        if key not in self._oracles:
            oracle = self._oracles[key] = MemoryFileSystem()
            _preload(oracle, system.plan)
            replay(system.plan, oracle, VirtualClock())
        return self._oracles[key]

    def build(self, seed, quick, obs=NULL_OBS):
        size = SIZES[self.name][quick]
        start = time.perf_counter()
        trace = self.make_trace(seed=seed, **size)
        gen_s = time.perf_counter() - start
        system = _single_client(
            obs, DeltaCFSConfig(enable_checksums=False), seed=seed, size=size, plan=trace,
            gen_s=gen_s, update_bytes=trace.stats.update_bytes,
            bytes_written=trace.stats.bytes_written,
        )
        _preload(system.clients[0], trace)
        _settle(system, None, 12)
        system.clients[0].flush()
        return system

    def drive(self, system, loop):
        client = system.clients[0]
        replay(
            system.plan, loop.timed_fs(client), system.clock,
            pump=partial(loop.sync, client.pump), pump_interval=1.0,
        )
        _settle(system, loop, 10)
        loop.sync(client.flush)

    def verify(self, system, window):
        compared, wrong = compare_replicas(system)
        oracle = self._oracle(system)
        disk = system.disks[0]
        expected = list(oracle.walk_files())
        if expected != _synced_files(system.clients[0], disk):
            wrong.append("the client's file set differs from the oracle replay's")
        for path in expected:
            compared += 1
            if not disk.exists(path) or disk.read_file(path) != oracle.read_file(path):
                wrong.append(f"{path} differs from the oracle replay")
        if self.name == "word_save":
            # A silent fall-back to full upload is a failure, not a slowdown.
            wrong += _broken(
                ("deltas_triggered == saves",
                 window["deltas_triggered"] == system.size["saves"]),
                ("up_bytes < 0.25 * bytes_written",
                 window["up_bytes"] < 0.25 * system.bytes_written),
            )
        return compared, wrong


def _broken(*claims: Tuple[str, bool]) -> List[str]:
    return [f"assertion failed: {label}" for label, holds in claims if not holds]


def _preload(fs, trace: Trace) -> None:
    for path, content in sorted(trace.preload.items()):
        fs.create(path)
        if content:
            fs.write(path, 0, content)
        fs.close(path)


class FleetSmall(Workload):
    """Many tiny clients behind a shard router: per-op overhead is all
    there is, and provisioning is where ``setup_s`` goes."""

    name = "fleet_small"

    def build(self, seed, quick, obs=NULL_OBS):
        size = SIZES[self.name][quick]
        clock = VirtualClock()
        obs.bind_clock(clock)
        rng = DeterministicRandom(seed)
        router = ShardRouter(size["shards"], obs=obs)

        def meter_for(client_id: int) -> CostMeter:
            return router.shard_meters[
                router.shard_index_for_path(f"/u{client_id}/data.bin")
            ]

        clients, channels = fleet.provision_clients(
            size["clients"], server=router, clock=clock, rng=rng,
            file_size=size["file_size"], server_meter_for=meter_for, obs=obs,
        )
        clock.advance(clients[0].config.upload_delay + 1.0)
        for client in clients:
            client.pump()
            client.flush()

        start = time.perf_counter()
        writes = rng.fork("writes")
        span = size["file_size"] - size["write_size"]
        plan = [
            [
                (f"/u{client_id}/data.bin", writes.randint(0, span),
                 writes.random_bytes(size["write_size"]))
                for client_id in range(1, size["clients"] + 1)
            ]
            for _ in range(size["rounds"])
        ]
        written = size["rounds"] * size["clients"] * size["write_size"]
        return System(
            seed=seed, clock=clock, server=router, clients=clients,
            disks=[client.inner for client in clients], channels=channels,
            # provision_clients builds the client side on NULL_METER and takes
            # no client meter, so model_ticks is the server side only here
            meters=list(router.shard_meters), size=size, update_bytes=written,
            bytes_written=written, gen_s=time.perf_counter() - start, plan=plan,
        )

    def drive(self, system, loop):
        gap = system.clients[0].config.upload_delay + 1.0
        for round_writes in system.plan:
            for client, (path, offset, data) in zip(system.clients, round_writes):
                loop.op(client.write, path, offset, data)
                loop.op(client.close, path)
            system.clock.advance(gap)
            now = system.clock.now()
            for client in system.clients:
                loop.sync(client.pump, now)
        for client in system.clients:
            loop.sync(client.flush)


class SharedFanout(Workload):
    """Every client shares ``/team``: the server is a fan-out and the
    clients spend their time on the download/apply side."""

    name = "shared_fanout"

    def build(self, seed, quick, obs=NULL_OBS):
        size = SIZES[self.name][quick]
        clock = VirtualClock()
        obs.bind_clock(clock)
        client_meter, server_meter = CostMeter(), CostMeter()
        server = CloudServer(meter=server_meter, obs=obs)
        clients, disks, channels = [], [], []
        for client_id in range(1, size["clients"] + 1):
            channel = Channel(client_meter=client_meter, server_meter=server_meter, obs=obs)
            disk = MemoryFileSystem()
            clients.append(DeltaCFSClient(
                disk, server=server, channel=channel, clock=clock,
                client_id=client_id, meter=client_meter, obs=obs,
                config=DeltaCFSConfig(enable_checksums=False), shares=("/team",),
            ))
            disks.append(disk)
            channels.append(channel)

        start = time.perf_counter()
        rng = DeterministicRandom(seed).fork("shared")
        seeds = [rng.random_bytes(size["file_size"]) for _ in range(size["files"])]
        span = size["file_size"] - size["write_size"]
        # Writer and file both go round-robin; the file index also steps
        # once per lap of the writers so every writer reaches every file.
        plan = [
            (i % size["clients"],
             f"/team/f{(i + i // size['clients']) % size['files']:02d}.bin",
             rng.randint(0, span), rng.random_bytes(size["write_size"]))
            for i in range(size["writes"])
        ]
        gen_s = time.perf_counter() - start

        first = clients[0]
        first.mkdir("/team")
        for index, content in enumerate(seeds):
            path = f"/team/f{index:02d}.bin"
            first.create(path)
            first.write(path, 0, content)
            first.close(path)
        system = System(
            seed=seed, clock=clock, server=server, clients=clients, disks=disks,
            channels=channels, meters=[client_meter, server_meter], size=size,
            update_bytes=size["writes"] * size["write_size"],
            bytes_written=size["writes"] * size["write_size"],
            gen_s=gen_s, plan=plan,
        )
        _settle(system, None, 5)
        first.flush()
        return system

    def drive(self, system, loop):
        for writer, path, offset, data in system.plan:
            client = system.clients[writer]
            loop.op(client.write, path, offset, data)
            loop.op(client.close, path)
            system.clock.advance(5.0)
            now = system.clock.now()
            for peer in system.clients:
                loop.sync(peer.pump, now)
        for client in system.clients:
            loop.sync(client.flush)


class MailLossyJournal(Workload):
    """filebench varmail on one client with everything switched on:
    checksums, the crash-recovery journal, and a lossy link under the
    reliable transport."""

    name = "mail_lossy_journal"
    faults = NetworkFaults(drop_prob=0.05, dup_prob=0.02, reorder_prob=0.05)
    op_gap = 0.02  # virtual seconds per op
    pump_every = 50  # ops: one pump per virtual second

    def build(self, seed, quick, obs=NULL_OBS):
        size = SIZES[self.name][quick]
        start = time.perf_counter()
        ops = varmail_ops(seed=seed, **size)
        rng = DeterministicRandom(seed).fork("mail-data")
        pool = rng.random_bytes(1 << 20)
        # Map op-for-op onto client calls; fsync has no counterpart on the
        # file-op surface and is dropped. Payloads are slices of one pool.
        sizes: Dict[str, int] = {}
        plan: List[tuple] = []
        written = 0
        for op in ops:
            if op.kind in ("write", "append"):
                offset = sizes.get(op.path, 0) if op.kind == "append" else 0
                at = rng.randint(0, len(pool) - op.size)
                plan.append(("write", op.path, offset, pool[at : at + op.size]))
                sizes[op.path] = max(sizes.get(op.path, 0), offset + op.size)
                written += op.size
            elif op.kind == "delete":
                plan.append(("unlink", op.path))
                sizes.pop(op.path, None)
            elif op.kind != "fsync":
                plan.append((op.kind, op.path))
        gen_s = time.perf_counter() - start

        clock = VirtualClock()
        obs.bind_clock(clock)
        client_meter, server_meter = CostMeter(), CostMeter()
        server = CloudServer(meter=server_meter, obs=obs)
        channel = LossyChannel(
            faults=self.faults, seed=seed,
            client_meter=client_meter, server_meter=server_meter, obs=obs,
        )
        transport = ReliableTransport(channel, server, seed=seed, obs=obs)
        disk = MemoryFileSystem()
        client = DeltaCFSClient(
            disk, server=server, channel=channel, clock=clock, meter=client_meter,
            obs=obs, checksum_kv=MemoryKV(), transport=transport, journal_kv=MemoryKV(),
        )
        client.mkdir("/mail")
        system = System(
            seed=seed, clock=clock, server=server, clients=[client], disks=[disk],
            channels=[channel], meters=[client_meter, server_meter], size=size,
            update_bytes=written, bytes_written=written, gen_s=gen_s,
            transport=transport, plan=plan,
        )
        _settle(system, None, 5)
        client.flush()
        transport.settle(clock)
        return system

    def drive(self, system, loop):
        client, clock = system.clients[0], system.clock
        calls = {kind: getattr(client, kind) for kind in ("create", "write", "read", "unlink", "close")}
        for index, (kind, *args) in enumerate(system.plan, start=1):
            loop.op(calls[kind], *args)
            clock.advance(self.op_gap)
            if index % self.pump_every == 0:
                loop.sync(client.pump, clock.now())
        loop.sync(client.flush)
        loop.sync(system.transport.settle, clock)

    def verify(self, system, window):
        compared, wrong = compare_replicas(system)
        return compared, wrong + _broken(
            ("transport idle", system.transport.idle),
            ("zero conflicts", window["conflicts"] == 0),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        TraceReplay("word_save", word_trace),
        TraceReplay("wechat_inplace", wechat_trace),
        FleetSmall(),
        SharedFanout(),
        MailLossyJournal(),
    )
}
