#!/usr/bin/env python3
"""Scenario: an editing session on an office document.

Replays the Word transactional-save trace (Figure 3's rename dance) and
shows the relation table at work: every save rewrites the whole document
under a temporary name, yet DeltaCFS ships only a delta — while the
event-driven baselines re-scan and re-upload.

Run:  python examples/document_editing.py [--saves N]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.experiments import WORD_SCALE, scaled_kwargs
from repro.harness.runner import run_trace
from repro.metrics.report import format_bytes, format_table
from repro.workloads import word_trace


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--saves", type=int, default=20)
    args = parser.parse_args()

    trace = word_trace(scale=WORD_SCALE, saves=args.saves)
    doc_size = len(trace.preload["/report.docx"])
    print(
        f"document: {format_bytes(doc_size)}, saved {args.saves} times\n"
        f"bytes the editor wrote:   {format_bytes(trace.stats.bytes_written)}\n"
        f"bytes actually changed:   {format_bytes(trace.stats.update_bytes)}\n"
    )

    rows = []
    deltacfs_extra = {}
    for solution in ("deltacfs", "dropbox", "seafile", "nfs"):
        result = run_trace(solution, trace, **scaled_kwargs(WORD_SCALE))
        rows.append([
            solution,
            format_bytes(result.up_bytes),
            format_bytes(result.down_bytes),
            f"{result.client_ticks:.1f}",
        ])
        if solution == "deltacfs":
            deltacfs_extra = result.extra
    print(format_table(["solution", "upload", "download", "client CPU"], rows))

    print(
        f"\nDeltaCFS triggered delta encoding "
        f"{int(deltacfs_extra.get('deltas_triggered', 0))} times "
        f"(once per save) and kept {int(deltacfs_extra.get('deltas_kept', 0))} "
        "deltas — the relation table recognized every rename dance.\n"
        "NFS's download column is the cache-invalidation pathology: the\n"
        "client re-fetches the document it just wrote, byte for byte."
    )


if __name__ == "__main__":
    main()
