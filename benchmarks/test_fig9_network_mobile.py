"""Figure 9 — network traffic of experiments on mobile.

Dropsync (full-file upload over a slow WAN) versus DeltaCFS, upload and
download, for the four traces.

Shape assertions:
- Dropsync's upload dwarfs DeltaCFS on every trace (whole-file uploads);
- DeltaCFS's mobile traffic matches its PC traffic ("DeltaCFS shows
  similar numbers on mobile to that on PC");
- download traffic is small for both; DeltaCFS has almost none.
"""

from conftest import regenerate

from repro.harness.experiments import paper_runs


def test_fig9(benchmark):
    results = regenerate(benchmark, "fig9")
    by_key = {(r.trace, r.solution): r for r in results}

    for trace in ("append_write", "random_write", "word", "wechat"):
        dropsync = by_key[(trace, "fullsync")]
        deltacfs = by_key[(trace, "deltacfs")]
        assert dropsync.up_bytes > 2 * deltacfs.up_bytes, trace
        # DeltaCFS: almost no download traffic
        assert deltacfs.down_bytes < 0.05 * max(1, deltacfs.up_bytes), trace

    # random write: the gap is extreme (whole 5MB file per 1010B write,
    # modulo link-saturation batching)
    assert (
        by_key[("random_write", "fullsync")].up_bytes
        > 30 * by_key[("random_write", "deltacfs")].up_bytes
    )

    # DeltaCFS mobile ~ DeltaCFS PC (the design goal: nothing about the
    # client's sync behaviour depends on the platform)
    for (trace, solution), mobile in by_key.items():
        if solution == "deltacfs":
            pc = paper_runs(False)[("pc", trace, "deltacfs")]
            assert abs(mobile.up_bytes - pc.up_bytes) < 0.15 * max(pc.up_bytes, 1), trace
