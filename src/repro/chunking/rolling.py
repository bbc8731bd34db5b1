"""The rsync weak rolling checksum.

This is the Adler-32-style checksum from Tridgell's rsync paper: two 16-bit
sums ``a`` (sum of bytes) and ``b`` (sum of prefix sums) combined into a
32-bit value. Its defining property is O(1) *rolling*: sliding the window by
one byte updates the checksum from the outgoing and incoming bytes alone,
which is what lets rsync scan a file at every offset.

DeltaCFS reuses this same checksum as the per-block integrity checksum of
the Checksum Store (paper Section III-E), "which further reduces the
computational cost".
"""

from __future__ import annotations

from repro.cost.meter import CostMeter, NULL_METER

_MOD = 1 << 16


def weak_checksum(data: bytes, meter: CostMeter = NULL_METER) -> int:
    """Compute the 32-bit weak checksum of ``data`` from scratch.

    Large buffers are one block of the vectorized block kernel
    (bit-identical results); the cost charged is the same either way
    because it reflects logical work.
    """
    meter.charge_bytes("rolling_checksum", len(data))
    if len(data) > 512:
        from repro.chunking._fast import block_weak_checksums_array

        return int(block_weak_checksums_array(data, len(data))[0])
    a = 0
    b = 0
    n = len(data)
    for i, byte in enumerate(data):
        a += byte
        b += (n - i) * byte
    a %= _MOD
    b %= _MOD
    return (b << 16) | a


class RollingChecksum:
    """Incrementally-rollable weak checksum over a fixed-size window."""

    def __init__(self, window: bytes, meter: CostMeter = NULL_METER):
        self._meter = meter
        self._n = len(window)
        meter.charge_bytes("rolling_checksum", self._n)
        a = 0
        b = 0
        for i, byte in enumerate(window):
            a += byte
            b += (self._n - i) * byte
        self._a = a % _MOD
        self._b = b % _MOD

    @property
    def value(self) -> int:
        """The current 32-bit checksum."""
        return (self._b << 16) | self._a

    @property
    def window_size(self) -> int:
        """Size of the window this checksum covers."""
        return self._n

    def roll(self, out_byte: int, in_byte: int) -> int:
        """Slide the window one byte: remove ``out_byte``, append ``in_byte``.

        Returns the new checksum value. Costs O(1) regardless of window
        size — the heart of rsync's efficiency.
        """
        self._meter.charge_bytes("rolling_checksum", 1)
        self._a = (self._a - out_byte + in_byte) % _MOD
        self._b = (self._b - self._n * out_byte + self._a) % _MOD
        return self.value
