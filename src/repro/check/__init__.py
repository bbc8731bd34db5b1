"""`repro check` — the two-layer analysis subsystem.

Layer 1 lints the source tree: per-file rules
(:mod:`repro.check.linter` + :mod:`repro.check.rules`) plus the
project-wide semantic pass (:mod:`repro.check.semantic`) — symbol
resolution and flow-sensitive dataflow over one
parsed view of the tree (:mod:`repro.check.project`). Layer 2
(:mod:`repro.check.invariants`) verifies protocol invariants over
recorded JSONL traces. Both report through the shared findings model in
:mod:`repro.check.findings`; results cache by content hash
(:mod:`repro.check.cache`) and export to SARIF
(:mod:`repro.check.sarif`). See ``docs/static-analysis.md`` for the rule
and invariant catalogs, the suppression syntax, and how to add a rule.
"""

from repro.check.cache import AnalysisCache, catalog_fingerprint
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
from repro.check.semantic import (
    SEMANTIC_RULES,
    SEMANTIC_RULES_BY_ID,
    analyze_project,
)

__all__ = [
    "ALL_RULES",
    "AnalysisCache",
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
    "SEMANTIC_RULES",
    "SEMANTIC_RULES_BY_ID",
    "active",
    "analyze_project",
    "catalog_fingerprint",
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
