"""The cost meter: an accumulator every metered algorithm charges against."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.cost.profile import CostProfile, PC_PROFILE


class CostMeter:
    """Accumulates CPU ticks by category.

    One meter per principal (client or server). Algorithms call
    :meth:`charge_bytes` / :meth:`charge_ops` as they work (and
    :meth:`charge_repeat` for many equal charges at once); experiment
    harnesses read :attr:`total` at the end, which plays the role of the
    "CPU tick" columns of Table II.
    """

    def __init__(self, profile: CostProfile = PC_PROFILE):
        self.profile = profile
        self._ticks: Dict[str, float] = defaultdict(float)
        self._bytes: Dict[str, int] = defaultdict(int)

    def charge_bytes(self, category: str, nbytes: int) -> float:
        """Charge per-byte work; returns the ticks added."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        ticks = self.profile.per_byte(category, nbytes)
        self._ticks[category] += ticks
        self._bytes[category] += nbytes
        return ticks

    def charge_repeat(self, category: str, nbytes: int, times: int) -> float:
        """Charge ``times`` equal pieces of per-byte work in one call.

        The tick total grows by the same float additions, in the same
        order, as ``times`` calls of :meth:`charge_bytes` would make, so a
        batched caller leaves every total bit-identical. Returns the ticks
        added.
        """
        if nbytes < 0 or times < 0:
            raise ValueError("nbytes and times must be non-negative")
        if not times:
            return 0.0
        ticks = self.profile.per_byte(category, nbytes)
        before = total = self._ticks[category]
        for _ in range(times):
            total += ticks
        self._ticks[category] = total
        self._bytes[category] += nbytes * times
        return total - before

    def charge_ops(self, count: int = 1) -> float:
        """Charge fixed per-operation overhead (interception, syscall)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        ticks = self.profile.op_overhead * count
        self._ticks["op_overhead"] += ticks
        return ticks

    @property
    def total(self) -> float:
        """Total ticks across all categories."""
        return sum(self._ticks.values())

    @property
    def by_category(self) -> Dict[str, float]:
        """Ticks per category (copy)."""
        return dict(self._ticks)

    @property
    def bytes_by_category(self) -> Dict[str, int]:
        """Bytes of work per per-byte category (copy)."""
        return dict(self._bytes)

    def reset(self) -> None:
        """Zero all accumulators, keeping the profile."""
        self._ticks.clear()
        self._bytes.clear()

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's charges into this one."""
        for category, ticks in other._ticks.items():
            self._ticks[category] += ticks
        for category, nbytes in other._bytes.items():
            self._bytes[category] += nbytes

    def __repr__(self) -> str:
        return f"CostMeter(profile={self.profile.name!r}, total={self.total:.1f})"


class _NullMeter(CostMeter):
    """A meter that discards all charges — for callers that don't measure."""

    def charge_bytes(self, category: str, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return 0.0

    def charge_repeat(self, category: str, nbytes: int, times: int) -> float:
        if nbytes < 0 or times < 0:
            raise ValueError("nbytes and times must be non-negative")
        return 0.0

    def charge_ops(self, count: int = 1) -> float:
        return 0.0


NULL_METER = _NullMeter()
