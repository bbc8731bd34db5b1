"""Applying a delta to a base file — the server side of incremental sync."""

from __future__ import annotations

from repro.cost.meter import CostMeter, NULL_METER
from repro.delta.format import Copy, Delta, Literal


def apply_delta(base: bytes, delta: Delta, *, meter: CostMeter = NULL_METER) -> bytes:
    """Reconstruct the new file from ``base`` and ``delta``.

    Raises ``ValueError`` if a COPY instruction reaches outside the base
    file or the result size disagrees with the delta header — both indicate
    the delta was computed against a different base version (the version
    check in :mod:`repro.server` should have caught that earlier).
    """
    # COPYs are collected as views of ``base`` and joined with the literals
    # in one pass, so every output byte is copied exactly once.
    base_view = memoryview(base)
    base_size = len(base)
    parts = []
    for op in delta.ops:
        if isinstance(op, Copy):
            if op.offset < 0 or op.offset + op.length > base_size:
                raise ValueError(
                    f"copy [{op.offset}, {op.offset + op.length}) outside "
                    f"base of {base_size} bytes"
                )
            parts.append(base_view[op.offset : op.offset + op.length])
        elif isinstance(op, Literal):
            parts.append(op.data)
        else:  # pragma: no cover - Delta only holds the two op kinds
            raise TypeError(f"unknown delta op {op!r}")
    out = b"".join(parts)
    meter.charge_bytes("apply_delta", len(out))
    if delta.target_size and len(out) != delta.target_size:
        raise ValueError(
            f"reconstructed {len(out)} bytes, delta promised {delta.target_size}"
        )
    return out
