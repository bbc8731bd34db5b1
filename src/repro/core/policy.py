"""Online mechanism selection: RPC vs delta, and with which backend.

The paper's client hard-codes one decision procedure: when a transactional
update triggers, encode a bitwise delta and keep it iff it is smaller than
the RPC payload it would replace. This module turns that into a pluggable
:class:`MechanismPolicy` (per *Enabling Cost-Benefit Analysis of Data Sync
Protocols*, PAPERS.md):

- ``static`` — the default; reproduces the pre-policy behaviour
  bit-for-bit: always encode with the configured backend, keep the delta
  iff ``wire_size() < rpc_bytes``.
- ``cost-model`` — the online policy. Per path it learns the observed
  delta/RPC byte ratio from measured outcomes (the same uplink bytes the
  PR-4 cost-attribution join verifies), combines it with the update's
  write-pattern stats and the backend's closed-form CPU-tick estimate from
  the :mod:`repro.cost` profile, and skips encoding entirely when RPC is
  predicted to win — saving the encode CPU that the static policy burns on
  delta-hostile files.
- ``always-rpc`` / ``always-delta`` — the sweep's bounding policies:
  never encode, and keep every valid delta regardless of size. They exist
  so experiments can bracket what selection can possibly buy.

The policy decides; the client executes. A decision is a
:class:`MechanismPlan` naming either RPC (``backend is None``) or a
backend to encode with; after an encode the client reports the measured
outcome back through :meth:`MechanismPolicy.observe_outcome`, which is
where the online learning (and the ``policy.estimate.*`` accounting)
happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.config import SYNC_POLICIES as POLICIES
from repro.cost.profile import CostProfile, PC_PROFILE
from repro.delta.backends import DeltaBackend, get_backend
from repro.obs import NULL_OBS, Observability

#: Byte-equivalents the cost-model policy charges per estimated CPU tick
#: when it scores an encode.
CPU_BYTE_RATE = 1024.0


@dataclass(frozen=True)
class UpdateStats:
    """Write-pattern stats of one pending update, computed by the client.

    Attributes:
        rpc_bytes: payload bytes of the queued nodes RPC would ship.
        changed_bytes: merged extent bytes the update actually wrote.
        node_count: queued data nodes the delta would replace.
    """

    rpc_bytes: int
    changed_bytes: int
    node_count: int = 1


@dataclass(frozen=True)
class MechanismPlan:
    """One decision: what to do about a triggered delta opportunity.

    ``backend is None`` means ship the queued RPC nodes without encoding.
    Otherwise encode with ``backend``; ``force_keep`` keeps the result
    even if it is larger than the RPC payload (the always-delta bound).
    """

    mechanism: str  # "rpc" or the backend name
    backend: Optional[DeltaBackend]
    est_delta_bytes: int
    force_keep: bool = False


@dataclass
class _PathHistory:
    """Online per-path memory: EWMA of the measured delta/RPC ratio."""

    ratio: float = 0.0  # EWMA of delta_bytes / rpc_bytes
    samples: int = 0

    def update(self, observed: float, alpha: float = 0.5) -> None:
        if self.samples == 0:
            self.ratio = observed
        else:
            self.ratio = alpha * observed + (1.0 - alpha) * self.ratio
        self.samples += 1


class MechanismPolicy:
    """Base policy: the static (pre-policy, bit-identical) behaviour."""

    name = "static"

    def __init__(
        self,
        backend: DeltaBackend,
        *,
        block_size: int = 4096,
        profile: CostProfile = PC_PROFILE,
        obs: Observability = NULL_OBS,
        cpu_byte_rate: float = CPU_BYTE_RATE,
    ):
        self.backend = backend
        self.block_size = block_size
        self.profile = profile
        self.obs = obs
        self.cpu_byte_rate = cpu_byte_rate

    # -- the decision ------------------------------------------------------

    def plan(self, path: str, old_len: int, new_len: int, stats: UpdateStats) -> MechanismPlan:
        """Decide the mechanism for one triggered update."""
        plan = self._choose(path, old_len, new_len, stats)
        if self.obs.enabled:
            self.obs.inc("policy.decisions", mechanism=plan.mechanism)
            self.obs.inc(
                "policy.estimate.rpc_bytes", stats.rpc_bytes, policy=self.name
            )
            self.obs.inc(
                "policy.estimate.delta_bytes",
                plan.est_delta_bytes,
                policy=self.name,
            )
            self.obs.event(
                "policy.decision",
                path=path,
                policy=self.name,
                mechanism=plan.mechanism,
                rpc_bytes=stats.rpc_bytes,
                est_delta_bytes=plan.est_delta_bytes,
            )
        return plan

    def _choose(
        self, path: str, old_len: int, new_len: int, stats: UpdateStats
    ) -> MechanismPlan:
        return MechanismPlan(
            mechanism=self.backend.name,
            backend=self.backend,
            est_delta_bytes=self.backend.estimate_wire_bytes(
                old_len, new_len, stats.changed_bytes, self.block_size
            ),
        )

    # -- the feedback loop -------------------------------------------------

    def observe_outcome(
        self, path: str, plan: MechanismPlan, delta_bytes: int, rpc_bytes: int
    ) -> None:
        """Report a measured encode outcome (called only after an encode)."""
        if self.obs.enabled:
            self.obs.inc(
                "policy.estimate.abs_error_bytes",
                abs(delta_bytes - plan.est_delta_bytes),
                policy=self.name,
            )


class AlwaysRpcPolicy(MechanismPolicy):
    """Never encode: the pure NFS-style file-RPC bound."""

    name = "always-rpc"

    def _choose(self, path, old_len, new_len, stats):
        return MechanismPlan(
            mechanism="rpc", backend=None, est_delta_bytes=stats.rpc_bytes
        )


class AlwaysDeltaPolicy(MechanismPolicy):
    """Keep every valid delta, even when RPC would have been smaller."""

    name = "always-delta"

    def _choose(self, path, old_len, new_len, stats):
        plan = super()._choose(path, old_len, new_len, stats)
        return MechanismPlan(
            mechanism=plan.mechanism,
            backend=plan.backend,
            est_delta_bytes=plan.est_delta_bytes,
            force_keep=True,
        )


class CostModelPolicy(MechanismPolicy):
    """Score RPC vs the backend per file and skip hopeless encodes.

    The first encodes on a path are exploratory (identical to ``static``).
    Once ``_MIN_SAMPLES`` measured outcomes exist, the policy predicts the
    next delta's size as ``ewma_ratio * rpc_bytes`` and compares costs in
    byte-equivalents::

        cost(rpc)   = rpc_bytes
        cost(delta) = predicted_bytes + cpu_byte_rate * estimate_ticks

    choosing RPC only when the prediction is *confidently* hopeless
    (ratio above ``_HOPELESS_RATIO``) — a conservative gate, so total
    uplink stays within a whisker of the static policy while the encode
    CPU on delta-hostile paths (e.g. the WeChat SQLite pattern) is saved.
    Mispredictions self-correct: a skipped path is retried after
    ``_RETRY_EVERY`` consecutive skips, refreshing the EWMA.
    """

    name = "cost-model"

    _MIN_SAMPLES = 2
    _HOPELESS_RATIO = 0.85
    _RETRY_EVERY = 8

    def __init__(self, backend, **kwargs):
        super().__init__(backend, **kwargs)
        self._history: Dict[str, _PathHistory] = {}
        self._skips: Dict[str, int] = {}

    def _choose(self, path, old_len, new_len, stats):
        history = self._history.get(path)
        if history is not None and history.samples >= self._MIN_SAMPLES:
            predicted = int(history.ratio * stats.rpc_bytes)
            encode_cost = self.cpu_byte_rate * self.backend.estimate_ticks(
                old_len, new_len, self.block_size, self.profile
            )
            hopeless = history.ratio >= self._HOPELESS_RATIO
            costlier = predicted + encode_cost >= stats.rpc_bytes
            if hopeless and costlier:
                skips = self._skips.get(path, 0) + 1
                if skips < self._RETRY_EVERY:
                    self._skips[path] = skips
                    return MechanismPlan(
                        mechanism="rpc", backend=None, est_delta_bytes=predicted
                    )
                # periodic re-exploration: fall through to an encode
                self._skips[path] = 0
            plan = super()._choose(path, old_len, new_len, stats)
            return MechanismPlan(
                mechanism=plan.mechanism,
                backend=plan.backend,
                est_delta_bytes=predicted,
            )
        return super()._choose(path, old_len, new_len, stats)

    def observe_outcome(self, path, plan, delta_bytes, rpc_bytes):
        super().observe_outcome(path, plan, delta_bytes, rpc_bytes)
        if rpc_bytes > 0:
            self._history.setdefault(path, _PathHistory()).update(
                delta_bytes / rpc_bytes
            )
            self._skips.pop(path, None)


_POLICY_CLASSES = {
    "static": MechanismPolicy,
    "cost-model": CostModelPolicy,
    "always-rpc": AlwaysRpcPolicy,
    "always-delta": AlwaysDeltaPolicy,
}
assert tuple(_POLICY_CLASSES) == POLICIES, "one class per name in SYNC_POLICIES"


def make_policy(
    policy: str,
    backend_name: str,
    *,
    block_size: int = 4096,
    profile: CostProfile = PC_PROFILE,
    obs: Observability = NULL_OBS,
    cpu_byte_rate: float = CPU_BYTE_RATE,
) -> MechanismPolicy:
    """Construct the named policy over the named backend."""
    try:
        cls = _POLICY_CLASSES[policy]
    except KeyError:
        raise ValueError(
            f"unknown sync policy {policy!r}; pick one of {POLICIES}"
        ) from None
    return cls(
        get_backend(backend_name),
        block_size=block_size,
        profile=profile,
        obs=obs,
        cpu_byte_rate=cpu_byte_rate,
    )
