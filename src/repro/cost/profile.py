"""Tick-per-unit cost profiles.

Weights are expressed in ticks per megabyte (or per operation) and are
calibrated so the magnitudes of Table II are in a plausible range. Absolute
values are not meaningful — only ratios between solutions are, and those are
driven by how much work each algorithm performs.

Rationale for the relative weights:

- ``strong_checksum`` (MD5) is the most expensive per-byte primitive; the
  whole point of DeltaCFS's bitwise optimization is avoiding it.
- ``rolling_checksum`` (Adler-like) is a few adds/subtracts per byte.
- ``bitwise_compare`` is a memcmp — the cheapest way to compare data.
- ``cdc_chunking`` (gear hash) is cheaper than rolling+strong, which is why
  Seafile's client CPU sits well below Dropbox's.
- ``compress``/``dedup_hash`` model Dropbox's extra per-upload work
  (Section IV-B: 4 MB deduplication and network compression).
- ``network_send``/``network_recv`` model protocol/TLS stack CPU, charged
  per byte moved; ``encrypt`` models OpenSSL on the payload.

The mobile profile scales CPU-bound work up (a Note3 core does far less per
tick than a Xeon) and reflects the paper's observation that low WAN
bandwidth keeps the device busy transmitting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class CostProfile:
    """Tick costs per primitive. Per-byte fields are ticks per megabyte."""

    name: str = "pc"
    rolling_checksum: float = 2.0
    strong_checksum: float = 8.0
    bitwise_compare: float = 0.6
    cdc_chunking: float = 1.6
    scan_read: float = 0.5
    write_io: float = 0.3
    compress: float = 3.0
    encrypt: float = 1.0
    dedup_hash: float = 5.0
    network_send: float = 0.8
    network_recv: float = 0.8
    apply_delta: float = 0.5
    op_overhead: float = 0.02  # ticks per intercepted file operation

    def per_byte(self, field: str, nbytes: int) -> float:
        """Ticks charged for ``nbytes`` of work in category ``field``."""
        return getattr(self, field) * (nbytes / _MB)

    def rates(self) -> Dict[str, float]:
        """Every per-unit cost by category: each field but ``name``."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "name"
        }

    def scaled(self, factor: float, name: str) -> "CostProfile":
        """A profile with every per-unit cost multiplied by ``factor``."""
        return replace(
            self, name=name, **{f: rate * factor for f, rate in self.rates().items()}
        )


PC_PROFILE = CostProfile(name="pc")

# A Galaxy Note3 core retires far fewer operations per tick than a Xeon
# E5-2676, and the paper notes that on mobile the whole experiment is
# dominated by CPU-bound transmission. A single scale factor keeps the
# PC-vs-mobile relationship simple and honest: same work, slower silicon.
MOBILE_PROFILE = PC_PROFILE.scaled(12.0, name="mobile")
