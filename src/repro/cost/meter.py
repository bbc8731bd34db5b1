"""The cost meter: an accumulator every metered algorithm charges against."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.cost.profile import CostProfile, PC_PROFILE, _MB


def _unknown(category: str) -> AttributeError:
    return AttributeError(f"no per-byte cost category {category!r}")


class CostMeter:
    """Accumulates CPU ticks by category.

    One meter per principal (client or server). Algorithms call
    :meth:`charge_bytes` / :meth:`charge_ops` as they work (and
    :meth:`charge_repeat` for many equal charges at once); experiment
    harnesses read :attr:`total` at the end, which plays the role of the
    "CPU tick" columns of Table II.

    The frozen profile's rates are read into a table once, here: a charge
    is one dict hit and ``CostProfile.per_byte``'s own expression, so every
    total is bit-identical to asking the profile each time.
    """

    def __init__(self, profile: CostProfile = PC_PROFILE):
        self.profile = profile
        self._rates: Dict[str, float] = profile.rates()
        self._ticks: Dict[str, float] = defaultdict(float)
        self._bytes: Dict[str, int] = defaultdict(int)

    def charge_bytes(self, category: str, nbytes: int) -> float:
        """Charge per-byte work; returns the ticks added."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        try:
            # per_byte's own expression, so the floats agree by construction
            # (a pre-divided rate agrees only while _MB is a power of two).
            ticks = self._rates[category] * (nbytes / _MB)
        except KeyError:
            raise _unknown(category) from None
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
        try:
            ticks = self._rates[category] * (nbytes / _MB)
        except KeyError:
            raise _unknown(category) from None
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
    """A meter that discards all charges — for callers that don't measure.

    It rejects exactly what a real meter rejects (a negative amount, a
    category the profile does not have), so a path that only unmetered
    clients run cannot hide a bad charge.
    """

    def charge_bytes(self, category: str, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if category not in self._rates:
            raise _unknown(category)
        return 0.0

    def charge_repeat(self, category: str, nbytes: int, times: int) -> float:
        if nbytes < 0 or times < 0:
            raise ValueError("nbytes and times must be non-negative")
        if times and category not in self._rates:
            raise _unknown(category)
        return 0.0

    def charge_ops(self, count: int = 1) -> float:
        if count < 0:
            raise ValueError("count must be non-negative")
        return 0.0


NULL_METER = _NullMeter()
