"""Benchmark bootstrap: import path, shared fixtures, and report printing.

Each benchmark regenerates one table/figure of the paper and registers a
formatted report; the reports are printed in the terminal summary so
``pytest benchmarks/ --benchmark-only`` shows the regenerated rows next to
pytest-benchmark's timing table.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

_REPORTS = []
_RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def register_report(title: str, body: str) -> None:
    """Queue a table for the end-of-run summary and persist it to disk.

    Each table is also written to ``benchmarks/results/<slug>.txt`` so the
    regenerated rows survive the pytest session (EXPERIMENTS.md quotes
    them).
    """
    _REPORTS.append((title, body))
    _RESULTS_DIR.mkdir(exist_ok=True)
    head = title.split("(")[0].strip().lower()
    slug = "-".join("".join(c if c.isalnum() else " " for c in head).split())[:60]
    (_RESULTS_DIR / f"{slug}.txt").write_text(f"{title}\n\n{body}\n")


def regenerate(benchmark, name: str):
    """Run experiment ``name`` at full scale under pytest-benchmark, queue
    the table ``python -m repro experiment <name>`` prints for it, and
    return the results for the shape assertions."""
    from repro.harness.experiments import EXPERIMENTS

    experiment = EXPERIMENTS[name]
    results = benchmark.pedantic(experiment.run, args=(False,), rounds=1, iterations=1)
    register_report(experiment.title, experiment.render(results))
    return results


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "regenerated paper tables & figures")
    for title, body in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title} ---")
        for line in body.splitlines():
            terminalreporter.write_line(line)
