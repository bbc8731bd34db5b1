"""Figure 1 — the motivating experiment: client resource consumption.

A 12 MB Word document saved 23 times and a chat-history SQLite database
modified 4 times (dozens of page writes), synced by Dropbox and Seafile.
Reports client CPU, traffic, and disk reads.

Shape assertions (Section I / II-A):
- on the SQLite workload, Dropbox burns far more CPU than Seafile (rsync
  re-scans the whole database per change) but transmits far less (4KB
  blocks vs 1MB chunks);
- both systems read the whole file per sync round ("Dropbox issues over
  700MB data read in that test" against a 130MB database) — read volume is
  a large multiple of the database size;
- on the Word workload both burn CPU; Seafile ships more bytes.
"""

from conftest import regenerate


def test_fig1(benchmark):
    results = regenerate(benchmark, "fig1")
    by_key = {(r.trace, r.solution): r for r in results}

    # SQLite workload: Dropbox CPU >> Seafile CPU; Dropbox traffic << Seafile
    chat_dropbox = by_key[("wechat", "dropbox")]
    chat_seafile = by_key[("wechat", "seafile")]
    assert chat_dropbox.client_ticks > 1.5 * chat_seafile.client_ticks
    assert chat_dropbox.up_bytes < 0.5 * chat_seafile.up_bytes

    # the IO observation: reads are a multiple of the database size
    db_size = 131 * 1024 * 1024 // 16  # WECHAT_SCALE
    assert chat_dropbox.extra["read_bytes"] > 2 * db_size

    # Word workload: Seafile ships more than Dropbox
    word_dropbox = by_key[("word", "dropbox")]
    word_seafile = by_key[("word", "seafile")]
    assert word_seafile.up_bytes > 0.8 * word_dropbox.up_bytes
    assert word_dropbox.client_ticks > 0

    # the CPU timeline is spiky: activity concentrates in save windows
    # ("the frequent spikes in CPU usage keep the device staying in high
    # power-consumption mode")
    timeline = word_dropbox.extra["cpu_timeline"]
    assert len(timeline) > 5
    active = word_dropbox.extra["cpu_active_windows"]
    assert 0 < active < len(timeline)  # bursts, not a flat line
    peak = max(timeline)
    mean = sum(timeline) / len(timeline)
    assert peak > 2 * mean  # pronounced spikes
