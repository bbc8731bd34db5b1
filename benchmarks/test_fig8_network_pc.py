"""Figure 8 — network transmission of experiments on PC.

Regenerates the four subplots (append, random, Word, WeChat): upload and
download bytes per solution.

Shape assertions (paper's findings):
- append: Dropbox, NFSv4, DeltaCFS similar; Seafile clearly higher;
- random: DeltaCFS ~ NFS ~ logical update; Dropbox above them (4KB block
  granularity); Seafile enormous (1MB chunks);
- Word: DeltaCFS << Dropbox < Seafile < NFS, and NFS downloads about as
  much as it uploads (cache invalidation);
- WeChat: DeltaCFS ~ NFS (slightly higher: version overhead); Dropbox low
  (dedup works, no shift); Seafile enormous; NFS has some download traffic
  (fetch-before-write).
"""

from conftest import regenerate


def test_fig8(benchmark):
    results = regenerate(benchmark, "fig8")
    by_key = {(r.trace, r.solution): r for r in results}

    # append: all within 2x of each other except Seafile above
    append = {s: by_key[("append_write", s)] for s in ("dropbox", "seafile", "nfs", "deltacfs")}
    assert append["seafile"].up_bytes > 1.4 * append["deltacfs"].up_bytes
    assert append["dropbox"].up_bytes < 2 * append["deltacfs"].up_bytes
    assert abs(append["nfs"].up_bytes - append["deltacfs"].up_bytes) < 0.2 * append["deltacfs"].up_bytes

    # random: deltacfs ~ nfs ~ update size; dropbox above; seafile >> all
    random = {s: by_key[("random_write", s)] for s in ("dropbox", "seafile", "nfs", "deltacfs")}
    update = random["deltacfs"].update_bytes
    assert random["deltacfs"].up_bytes < 1.5 * update
    assert random["dropbox"].up_bytes > 2 * random["deltacfs"].up_bytes
    assert random["seafile"].up_bytes > 50 * random["deltacfs"].up_bytes

    # word: DeltaCFS << Dropbox < Seafile < NFS; NFS downloads ~ uploads
    word = {s: by_key[("word", s)] for s in ("dropbox", "seafile", "nfs", "deltacfs")}
    assert word["deltacfs"].up_bytes < 0.35 * word["dropbox"].up_bytes
    assert word["dropbox"].up_bytes < word["seafile"].up_bytes
    assert word["seafile"].up_bytes < word["nfs"].up_bytes
    assert word["nfs"].down_bytes > 0.8 * word["nfs"].up_bytes
    assert word["deltacfs"].down_bytes < 0.01 * word["deltacfs"].up_bytes

    # wechat: deltacfs ~ nfs (slightly above); seafile enormous;
    # dropbox below nfs (dedup + compression work; no data shift)
    wechat = {s: by_key[("wechat", s)] for s in ("dropbox", "seafile", "nfs", "deltacfs")}
    assert wechat["deltacfs"].up_bytes >= wechat["nfs"].up_bytes * 0.95
    assert wechat["deltacfs"].up_bytes < wechat["nfs"].up_bytes * 1.3
    assert wechat["seafile"].up_bytes > 10 * wechat["deltacfs"].up_bytes
    assert wechat["dropbox"].up_bytes < wechat["nfs"].up_bytes
    assert wechat["nfs"].down_bytes >= 0  # fetch-before-write traffic
