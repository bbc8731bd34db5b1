"""Client-assigned version stamps (paper Section III-C).

Rather than round-tripping to the server for version numbers (high WAN
latency per Sync Queue node), each client stamps versions locally from a
monotonic counter, made globally unique by pairing it with the client id:
``<CliID, VerCnt>``. Clients never synchronize counters — partial order is
enough for the cloud sync scenario; the server only ever compares stamps
for *equality* against its current head when validating a node's base
version.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.common import wire


@wire.record(wire.u32be("client_id"), wire.u32be("counter"))
class VersionStamp(NamedTuple):
    """A globally-unique version identifier ``<CliID, VerCnt>``.

    Ordering is lexicographic (client id then counter) and exists only for
    deterministic display/sorting; causality between different clients'
    stamps is *not* implied, by design. 8 bytes on the wire. A tuple, so
    the dicts and sets keyed by stamps hash and compare them in C; it
    equals the bare ``(client_id, counter)`` pair, and no collection
    mixes stamps with other pairs.
    """

    client_id: int
    counter: int

    def __str__(self) -> str:
        return f"v<{self.client_id},{self.counter}>"


# The version of a file that does not exist yet (base of a first upload).
GENESIS: Optional[VersionStamp] = None


class VersionCounter:
    """Per-client monotonically increasing stamp factory."""

    def __init__(self, client_id: int, start: int = 0):
        if client_id < 0:
            raise ValueError("client_id must be non-negative")
        self.client_id = client_id
        self._counter = start

    def next(self) -> VersionStamp:
        """Mint the next stamp. Never repeats within a client."""
        self._counter += 1
        return VersionStamp(self.client_id, self._counter)

    @property
    def current(self) -> int:
        """The last counter value handed out."""
        return self._counter
