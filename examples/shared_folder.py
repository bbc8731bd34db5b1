#!/usr/bin/env python3
"""Scenario: two devices sharing a folder — forwarding, conflicts, recovery.

Demonstrates Sections III-C/D/E end to end:

1. device B receives device A's updates as verbatim forwards;
2. a concurrent edit loses first-write-wins and becomes a conflict copy;
3. silent corruption on one device is detected by the checksum store and
   repaired from the cloud.

Run:  python examples/shared_folder.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Simulation
from repro.core.conflict import is_conflict_copy


def main():
    sim = Simulation(clients=2)
    server = sim.server
    laptop, phone = sim.clients

    # -- 1. forwarding -------------------------------------------------
    laptop.create("/notes.md")
    laptop.write("/notes.md", 0, b"# Shopping\n- milk\n- bread\n")
    laptop.close("/notes.md")
    sim.settle()
    print("phone sees laptop's file:")
    print(phone.read("/notes.md", 0, None).decode(), end="")
    print(f"(delivered via {phone.stats.forwards_applied} forwards)\n")

    # -- 2. concurrent edit: first write wins --------------------------
    laptop.write("/notes.md", 27, b"- eggs (laptop)\n")
    laptop.close("/notes.md")
    phone.write("/notes.md", 27, b"- jam (phone)\n")
    phone.close("/notes.md")
    laptop.flush()  # laptop's update reaches the cloud first
    sim.settle()    # phone's update is now stale -> conflict
    print("cloud content after the race (laptop won):")
    print(server.file_content("/notes.md").decode())
    conflict_copies = [p for p in server.store.paths() if is_conflict_copy(p)]
    print(f"conflict copies kept on the cloud: {conflict_copies}")
    print(f"phone was notified of {phone.stats.conflicts} conflict(s)\n")

    # -- 3. corruption detection and recovery --------------------------
    sim.settle()
    phone.inner.corrupt("/notes.md", 5)  # a bit rots beneath the stack
    data = phone.read("/notes.md", 0, None)  # read verifies + repairs
    print(
        f"corruption detected: {phone.stats.corruptions_detected}, "
        f"recovered from cloud: {phone.stats.recoveries}"
    )
    assert data == server.file_content("/notes.md")
    print("phone's copy verified byte-identical to the cloud again")


if __name__ == "__main__":
    main()
