"""`repro check` — the two-layer analysis subsystem.

Layer 1 lints the source tree with one engine
(:mod:`repro.check.linter`): the tree is loaded once into a parsed
project (:mod:`repro.check.project`) and every rule of the one catalog
(:mod:`repro.check.rules`) runs over it as node handlers in a single
walk per module. The rules check what a module can name — which modules
it imports, what sits in an obs name slot — so none follows a value.
Layer 2 (:mod:`repro.check.invariants`) verifies protocol invariants
over recorded JSONL traces. Both report through the shared findings
model in :mod:`repro.check.findings` and export to SARIF
(:mod:`repro.check.sarif`). See ``docs/static-analysis.md`` for the rule
and invariant catalogs, the suppression syntax, and how to add a rule.
"""

from repro.check.config import CheckConfig, DEFAULT_EXEMPTIONS
from repro.check.findings import (
    Finding,
    FindingSummary,
    active,
    gate,
    human_report,
    to_json,
)
from repro.check.invariants import (
    INVARIANTS,
    INVARIANTS_BY_ID,
    InvariantResult,
    InvariantSpec,
    report_results,
    results_to_findings,
    verify_trace,
)
from repro.check.linter import (
    KNOWN_SUPPRESSIBLE,
    lint_paths,
    lint_source,
)
from repro.check.rules import ALL_RULES, RULES_BY_ID, Rule
from repro.check.sarif import sarif_json, to_sarif

__all__ = [
    "ALL_RULES",
    "CheckConfig",
    "DEFAULT_EXEMPTIONS",
    "Finding",
    "FindingSummary",
    "INVARIANTS",
    "INVARIANTS_BY_ID",
    "InvariantResult",
    "InvariantSpec",
    "KNOWN_SUPPRESSIBLE",
    "Rule",
    "RULES_BY_ID",
    "active",
    "gate",
    "human_report",
    "lint_paths",
    "lint_source",
    "report_results",
    "results_to_findings",
    "sarif_json",
    "to_json",
    "to_sarif",
    "verify_trace",
]
