"""Fault injection for the reliability experiments (paper Section IV-E).

The corruption and crash injectors mutate file content *beneath* the
operation-interception layer, exactly like the paper's debugfs-based
injection: no file operation reports the change, so only checksum-based
detection can catch it. :class:`NetworkFaults` attacks the *link* instead:
seeded drop/duplicate/reorder probabilities and transient partition windows
consumed by :class:`repro.net.transport.LossyChannel`.
"""

from repro.faults.corruption import flip_bit, corrupt_random_block
from repro.faults.crash import inject_crash_inconsistency, restart
from repro.faults.network import NO_FAULTS, NetworkFaults

__all__ = [
    "flip_bit",
    "corrupt_random_block",
    "inject_crash_inconsistency",
    "restart",
    "NetworkFaults",
    "NO_FAULTS",
]
