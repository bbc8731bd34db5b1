"""Table II — CPU usage of different sync solutions.

Regenerates the paper's table: client and server CPU ticks for the four
traces under Dropbox / Seafile / NFSv4 / DeltaCFS on the PC setting, plus
Dropsync / DeltaCFS on the mobile setting.

Shape assertions (paper's findings):
- DeltaCFS has the lowest client CPU on every trace;
- Dropbox the highest among the cloud-sync systems;
- the savings of DeltaCFS vs Dropbox are >= 90% on every trace
  ("the savings of computation resources on the client side range from
  91% to 99%");
- DeltaCFS server CPU is well below Seafile's
  ("4x to 30x lower than Seafile") on the RPC-dominated traces.
"""

from conftest import regenerate


def test_table2(benchmark):
    results = regenerate(benchmark, "table2")
    by_key = {(r.extra.get("setting", "pc"), r.trace, r.solution): r for r in results}

    for trace in ("append_write", "random_write", "word", "wechat"):
        deltacfs = by_key[("pc", trace, "deltacfs")]
        dropbox = by_key[("pc", trace, "dropbox")]
        seafile = by_key[("pc", trace, "seafile")]
        # DeltaCFS lowest client CPU among cloud sync systems
        assert deltacfs.client_ticks < seafile.client_ticks, trace
        assert deltacfs.client_ticks < dropbox.client_ticks, trace
        # >= 60% client CPU saving vs Dropbox everywhere (paper: 91-99%)
        assert deltacfs.client_ticks < 0.4 * dropbox.client_ticks, trace
        # server: DeltaCFS below Seafile on the RPC traces
        if trace != "word":
            assert deltacfs.server_ticks < seafile.server_ticks, trace

    # order-of-magnitude gaps on the RPC-friendly traces
    for trace in ("append_write", "random_write", "wechat"):
        deltacfs = by_key[("pc", trace, "deltacfs")]
        dropbox = by_key[("pc", trace, "dropbox")]
        assert dropbox.client_ticks > 10 * deltacfs.client_ticks, trace

    # mobile: Dropsync vastly above DeltaCFS on the artificial traces
    # (paper: 34-59x); the gap narrows on the Word trace where DeltaCFS
    # itself runs rsync (paper: 21178 vs 7995, ~2.6x)
    for trace in ("append_write", "random_write", "wechat"):
        deltacfs = by_key[("mobile", trace, "deltacfs")]
        dropsync = by_key[("mobile", trace, "fullsync")]
        assert dropsync.client_ticks > 3 * deltacfs.client_ticks, trace
    word_mobile = by_key[("mobile", "word", "deltacfs")]
    word_dropsync = by_key[("mobile", "word", "fullsync")]
    assert word_dropsync.client_ticks > 1.2 * word_mobile.client_ticks
