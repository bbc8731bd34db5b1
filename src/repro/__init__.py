"""DeltaCFS — a reproduction of "DeltaCFS: Boosting Delta Sync for Cloud
Storage Services by Learning from NFS" (Zhang et al., ICDCS 2017).

The package implements the paper's adaptive file-sync framework and every
substrate it depends on, plus the baselines it is evaluated against.

Quickstart (:mod:`repro.sim` is the one place a client is wired to a
server; a sharded cloud over a lossy link is
``Simulation(server=ShardRouter(4), faults=NetworkFaults(drop_prob=0.1))``)::

    from repro import Simulation

    sim = Simulation()
    fs = sim.client

    fs.create("/hello.txt")
    fs.write("/hello.txt", 0, b"hello, cloud")
    fs.close("/hello.txt")
    sim.settle()       # upload-delay elapsed: the write ships as file RPC
    assert sim.server.file_content("/hello.txt") == b"hello, cloud"

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.common.version import VersionCounter, VersionStamp
from repro.core.client import DeltaCFSClient
from repro.cost.meter import CostMeter
from repro.cost.profile import MOBILE_PROFILE, PC_PROFILE
from repro.net.transport import Channel, NetworkModel
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import CloudServer
from repro.sim import Simulation
from repro.vfs.filesystem import MemoryFileSystem

__version__ = "1.1.0"

__all__ = [
    "VirtualClock",
    "Observability",
    "NULL_OBS",
    "DeltaCFSConfig",
    "DeltaCFSClient",
    "VersionCounter",
    "VersionStamp",
    "CostMeter",
    "MOBILE_PROFILE",
    "PC_PROFILE",
    "Channel",
    "NetworkModel",
    "CloudServer",
    "Simulation",
    "MemoryFileSystem",
    "__version__",
]
