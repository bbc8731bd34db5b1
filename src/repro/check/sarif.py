"""SARIF 2.1.0 output for `repro check` findings.

SARIF (Static Analysis Results Interchange Format) is what code hosts
ingest to annotate diffs with findings. This module renders the shared
:class:`Finding` model into a single-run SARIF log:

* every rule id that appears in the findings becomes a
  ``tool.driver.rules`` entry, described from the static catalogs (the
  lint rules, the trace invariants) when the id is known there;
* severities map ``error`` -> ``error``, ``warning`` -> ``warning``,
  ``advice`` -> ``note``;
* suppressed findings are carried with an ``inSource`` suppression
  object — SARIF consumers hide them by default but keep the record,
  mirroring ``--show-suppressed``;
* ``line == 0`` (whole-file findings like ``IO``) omit the region, as
  SARIF regions are 1-based.

The output is deterministic: results keep the engine's sorted order and
all JSON keys are emitted sorted.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.check.findings import Finding
from repro.check.invariants import INVARIANTS_BY_ID
from repro.check.rules import RULES_BY_ID

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "warning": "warning", "advice": "note"}

#: Findings the engine itself synthesizes, described here because no
#: catalog class carries them.
_ENGINE_RULES: Dict[str, str] = {
    "PARSE": "the file must parse before any rule can run",
    "IO": "the file could not be read",
    "CFG001": "a suppression comment names an unknown rule id",
    "CFG002": "a suppression comment matches no finding (stale)",
}


def _rule_description(rule_id: str) -> str:
    rule = RULES_BY_ID.get(rule_id)
    if rule is not None:
        return rule.description
    spec = INVARIANTS_BY_ID.get(rule_id)
    if spec is not None:
        return spec.statement
    return _ENGINE_RULES.get(rule_id, rule_id)


def _rule_help(rule_id: str) -> str:
    rule = RULES_BY_ID.get(rule_id)
    return rule.hint if rule is not None else ""


def _artifact_uri(path: str) -> str:
    uri = path.replace("\\", "/")
    if uri.startswith("./"):
        uri = uri[2:]
    return uri


def to_sarif(findings: Sequence[Finding]) -> dict:
    """The findings as a SARIF 2.1.0 log (a plain dict)."""
    rule_ids: List[str] = []
    for finding in findings:
        if finding.rule not in rule_ids:
            rule_ids.append(finding.rule)
    rule_ids.sort()
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    rules = []
    for rule_id in rule_ids:
        entry = {
            "id": rule_id,
            "shortDescription": {"text": _rule_description(rule_id)},
        }
        help_text = _rule_help(rule_id)
        if help_text:
            entry["help"] = {"text": help_text}
        rules.append(entry)

    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": _LEVELS.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _artifact_uri(finding.path)
                        },
                    }
                }
            ],
        }
        if finding.line > 0:
            result["locations"][0]["physicalLocation"]["region"] = {
                "startLine": finding.line
            }
        if finding.suppressed:
            result["suppressions"] = [{"kind": "inSource"}]
        results.append(result)

    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": (
                            "docs/static-analysis.md"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def sarif_json(findings: Sequence[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True)
