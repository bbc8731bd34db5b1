"""Pluggable delta backends — the encoders the mechanism policy picks from.

DeltaCFS's core bet is *choosing* between file RPC and delta sync per
file. This module generalizes the encoding side of that choice: a
:class:`DeltaBackend` exposes the four hooks the client (and the
:mod:`repro.core.policy` cost model) needs —

- :meth:`~DeltaBackend.signature` — the base-file summary the scan matches
  against (what would cross the wire in a remote protocol);
- :meth:`~DeltaBackend.encode` — produce a :class:`~repro.delta.format.Delta`
  from old to new content, charging the meter for the modeled CPU;
- :meth:`~DeltaBackend.apply` — reconstruct the new content server-side;
- :meth:`~DeltaBackend.estimate_ticks` / :meth:`~DeltaBackend.estimate_wire_bytes`
  — closed-form cost estimates the online policy scores *without* running
  the encoder.

All backends emit the same :class:`~repro.delta.format.Delta` wire format
(Copy/Literal streams), so the server applies any of them with the one
:func:`~repro.delta.patch.apply_delta` path and the protocol does not grow
per-backend message types.

Registered implementations:

- ``bitwise`` — the paper's local path (rsync scan, memcmp confirmation,
  no strong checksums). The default, byte-identical to the pre-registry
  client behaviour.
- ``rsync`` — classic remote rsync (weak rolling + MD5 strong checksums).
  More CPU, but its signature is shippable — the shape a future
  server-assisted delta path needs.
- ``cdc-shingle`` — content-defined-chunking shingling per *Scalable
  String Reconciliation by Recursive Content-Dependent Shingling*
  (PAPERS.md): both versions are gear-hash chunked, matching chunks become
  ``Copy`` ops, and unmatched regions are re-shingled recursively at finer
  granularity. Offset-independent, so it tolerates insertions that slide
  the whole tail.

Add a backend by subclassing :class:`DeltaBackend` and calling
:func:`register_backend` (see docs/delta-backends.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cost.meter import CostMeter, NULL_METER
from repro.cost.profile import CostProfile
from repro.delta.bitwise import bitwise_delta
from repro.delta.format import Copy, Delta, Literal
from repro.delta.patch import apply_delta
from repro.delta.rsync import Signature, compute_delta, compute_signature

_MB = 1024.0 * 1024.0


class DeltaBackend:
    """Protocol (and partial default implementation) of one delta encoder.

    Subclasses must set :attr:`name` and implement :meth:`encode`; the
    other hooks have sensible defaults. Instances are stateless — one
    shared instance per backend serves every client.
    """

    #: registry key; also the value of ``DeltaCFSConfig.delta_backend``.
    name: str = ""

    def signature(
        self, base: bytes, block_size: int, *, meter: CostMeter = NULL_METER
    ) -> object:
        """Summary of ``base`` that a remote scan could match against.

        The default is the rsync weak-checksum signature; the CDC backend
        returns its chunk fingerprints instead.
        """
        return compute_signature(base, block_size, with_strong=False, meter=meter)

    def encode(
        self,
        old: bytes,
        new: bytes,
        block_size: int,
        *,
        meter: CostMeter = NULL_METER,
    ) -> Delta:
        """Delta from ``old`` to ``new``; charges modeled CPU to ``meter``."""
        raise NotImplementedError

    def apply(
        self, base: bytes, delta: Delta, *, meter: CostMeter = NULL_METER
    ) -> bytes:
        """Reconstruct the new content (the server side)."""
        return apply_delta(base, delta, meter=meter)

    def estimate_ticks(
        self, old_len: int, new_len: int, block_size: int, profile: CostProfile
    ) -> float:
        """Closed-form estimate of :meth:`encode`'s CPU ticks.

        Used by the cost-model policy to score backends without running
        them; it should track the meter charges the encoder actually makes
        to within a small factor.
        """
        raise NotImplementedError

    def estimate_wire_bytes(
        self, old_len: int, new_len: int, changed_bytes: int, block_size: int
    ) -> int:
        """Cold-start estimate of the encoded delta's wire size.

        ``changed_bytes`` is the write-pattern signal: how many bytes of
        the pending update actually touched new data (merged write
        extents). The default models literal-carried changed bytes plus
        per-block Copy overhead for the untouched remainder.
        """
        literal = min(max(changed_bytes, 0), new_len)
        copied = max(new_len - literal, 0)
        copy_ops = -(-copied // block_size) if copied else 0  # ceil div
        return 8 + literal + 4 + 4 * copy_ops


class BitwiseBackend(DeltaBackend):
    """The paper's local engine: rsync scan with memcmp confirmation.

    Both file versions are local whenever the Relation Table triggers, so
    strong checksums are replaced with bitwise comparison (Section III-A).
    """

    name = "bitwise"

    def encode(
        self,
        old: bytes,
        new: bytes,
        block_size: int,
        *,
        meter: CostMeter = NULL_METER,
    ) -> Delta:
        return bitwise_delta(old, new, block_size, meter=meter)

    def estimate_ticks(
        self, old_len: int, new_len: int, block_size: int, profile: CostProfile
    ) -> float:
        # Rolling checksum over both versions + bitwise confirm of roughly
        # the matched portion (bounded by the new length).
        return (
            profile.rolling_checksum * ((old_len + new_len) / _MB)
            + profile.bitwise_compare * (new_len / _MB)
        )


class RsyncBackend(DeltaBackend):
    """Classic remote rsync: weak rolling + MD5 strong checksums.

    The expensive path DeltaCFS's bitwise engine avoids; registered so the
    policy sweep can quantify exactly what that optimization buys, and
    because its signature is what a server-assisted delta would ship.
    """

    name = "rsync"

    def signature(
        self, base: bytes, block_size: int, *, meter: CostMeter = NULL_METER
    ) -> Signature:
        return compute_signature(base, block_size, with_strong=True, meter=meter)

    def encode(
        self,
        old: bytes,
        new: bytes,
        block_size: int,
        *,
        meter: CostMeter = NULL_METER,
    ) -> Delta:
        signature = compute_signature(old, block_size, with_strong=True, meter=meter)
        return compute_delta(signature, new, base=None, meter=meter)

    def estimate_ticks(
        self, old_len: int, new_len: int, block_size: int, profile: CostProfile
    ) -> float:
        # Strong checksums over the old blocks *and* every candidate match
        # window of the new file dominate.
        return (
            profile.rolling_checksum * ((old_len + new_len) / _MB)
            + profile.strong_checksum * ((old_len + new_len) / _MB)
        )


class CDCShingleBackend(DeltaBackend):
    """Recursive content-dependent shingling over gear-hash CDC chunks.

    Level 0 chunks both versions at ``block_size`` average; chunks of the
    new file whose fingerprint appears in the old file become ``Copy`` ops
    (confirmed bytewise — matches stay exact even under hash collision).
    Runs of unmatched chunks are re-shingled at ``avg/4`` granularity,
    recursively, until the average chunk reaches ``_MIN_AVG`` — so a small
    edit inside a large chunk converges to a small literal instead of
    re-uploading the whole chunk (the Seafile failure mode, Section II-A).
    """

    name = "cdc-shingle"

    _MIN_AVG = 64
    _SHRINK = 4

    def signature(
        self, base: bytes, block_size: int, *, meter: CostMeter = NULL_METER
    ) -> object:
        from repro.chunking.cdc import cdc_chunks

        return cdc_chunks(base, max(block_size, self._MIN_AVG), meter=meter)

    def encode(
        self,
        old: bytes,
        new: bytes,
        block_size: int,
        *,
        meter: CostMeter = NULL_METER,
    ) -> Delta:
        avg = max(block_size, self._MIN_AVG)
        delta = Delta()
        self._shingle(old, new, 0, len(new), avg, delta, meter)
        return delta

    # -- internals ---------------------------------------------------------

    def _old_index(
        self, old: bytes, avg: int, meter: CostMeter
    ) -> Dict[bytes, Tuple[int, int]]:
        """First-occurrence fingerprint index of the old file at ``avg``."""
        from repro.chunking.cdc import cdc_chunks

        index: Dict[bytes, Tuple[int, int]] = {}
        for chunk in cdc_chunks(old, avg, meter=meter):
            index.setdefault(chunk.fingerprint, (chunk.offset, chunk.length))
        return index

    def _shingle(
        self,
        old: bytes,
        new: bytes,
        start: int,
        end: int,
        avg: int,
        delta: Delta,
        meter: CostMeter,
    ) -> None:
        """Shingle ``new[start:end]`` against ``old``, appending ops."""
        from repro.chunking.cdc import cdc_chunks

        region = new[start:end]
        if not region:
            return
        if not old or avg < self._MIN_AVG:
            delta.append(Literal(region))
            return
        index = self._old_index(old, avg, meter)
        # Unmatched spans are collected as (lo, hi) and recursed on at a
        # finer granularity, mirroring the recursive shingling scheme.
        pending: Optional[List[int]] = None  # [lo, hi) of the open miss run
        next_avg = avg // self._SHRINK

        def flush_miss() -> None:
            nonlocal pending
            if pending is None:
                return
            lo, hi = pending
            pending = None
            if next_avg >= self._MIN_AVG and hi - lo > next_avg:
                self._shingle(old, new, lo, hi, next_avg, delta, meter)
            else:
                delta.append(Literal(new[lo:hi]))

        for chunk in cdc_chunks(region, avg, meter=meter):
            abs_off = start + chunk.offset
            hit = index.get(chunk.fingerprint)
            if hit is not None:
                old_off, old_len = hit
                # Bitwise confirmation: a fingerprint collision must not
                # corrupt the reconstruction.
                meter.charge_bytes("bitwise_compare", old_len)
                if (
                    old_len == chunk.length
                    and old[old_off : old_off + old_len]
                    == new[abs_off : abs_off + chunk.length]
                ):
                    flush_miss()
                    delta.append(Copy(old_off, old_len))
                    continue
            if pending is None:
                pending = [abs_off, abs_off + chunk.length]
            else:
                pending[1] = abs_off + chunk.length
        flush_miss()

    def estimate_ticks(
        self, old_len: int, new_len: int, block_size: int, profile: CostProfile
    ) -> float:
        # One gear scan + fingerprint pass over each version at the top
        # level; recursion touches only differing regions, modeled here as
        # a constant small multiplier.
        scanned = (old_len + new_len) * 1.5
        return (
            profile.cdc_chunking * (scanned / _MB)
            + profile.dedup_hash * (scanned / _MB)
            + profile.bitwise_compare * (min(old_len, new_len) / _MB)
        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, DeltaBackend] = {}


def register_backend(backend: DeltaBackend) -> DeltaBackend:
    """Register a backend instance under its :attr:`~DeltaBackend.name`."""
    if not backend.name:
        raise ValueError("backend must declare a non-empty name")
    if backend.name in _REGISTRY:
        raise ValueError(f"delta backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> DeltaBackend:
    """Look up a registered backend; raises ``ValueError`` with options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown delta backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_REGISTRY)


register_backend(BitwiseBackend())
register_backend(RsyncBackend())
register_backend(CDCShingleBackend())
