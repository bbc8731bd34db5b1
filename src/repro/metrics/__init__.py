"""Result collection and table/figure formatting for the benchmark harness."""

from repro.metrics.collector import RunResult, TUE_UNDEFINED, bench_doc
from repro.metrics.report import format_table, format_bytes, format_tue, series_summary

__all__ = [
    "RunResult",
    "TUE_UNDEFINED",
    "bench_doc",
    "format_table",
    "format_bytes",
    "format_tue",
    "series_summary",
]
