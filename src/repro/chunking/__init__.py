"""Chunking and checksum primitives shared by all delta-sync algorithms.

- :mod:`repro.chunking.rolling` — the rsync weak rolling checksum
  (Adler-32-style), also reused as the integrity block checksum
  (paper Section III-E).
- :mod:`repro.chunking.strong` — metered strong checksums (MD5/SHA-256).
- :mod:`repro.chunking.cdc` — content-defined chunking via a gear hash
  (LBFS/Seafile style).

Fixed-size block signatures (rsync) are
:func:`repro.delta.rsync.compute_signature`.
"""

from repro.chunking.rolling import RollingChecksum, weak_checksum
from repro.chunking.strong import strong_checksum, dedup_hash
from repro.chunking.cdc import cdc_chunks, CDCChunk, GearHasher

__all__ = [
    "RollingChecksum",
    "weak_checksum",
    "strong_checksum",
    "dedup_hash",
    "cdc_chunks",
    "CDCChunk",
    "GearHasher",
]
