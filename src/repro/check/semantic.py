"""Project-wide semantic rules: dataflow findings over the whole tree.

The per-file catalog (:mod:`repro.check.rules`) sees one AST at a time
and only literal spellings. This layer runs the flow-sensitive pass
(:mod:`repro.check.dataflow`) over the loaded :class:`Project` and turns
its observations into the same :class:`Finding` shape:

========  =========  ====================================================
id        severity   what it flags
========  =========  ====================================================
DET001    error      (upgrade) wall-clock reads reached *through flow* —
                     a clock function bound to a local, an attribute, or
                     passed into a parameter the callee invokes
OBS001    error      (upgrade) obs facade names that are not literals at
                     the call site but resolve statically — module
                     constants, dict-literal lookups, parameters a
                     helper forwards into ``obs.inc``/``obs.event``
DET003    error      a ``DeterministicRandom`` instance shared across
                     construction sites without ``fork()`` — consumers
                     interleave draws on one stream, so adding a draw in
                     one component perturbs every other
DET004    error      iteration over a ``set`` flowing into an
                     order-sensitive sink (fleet event heap, wire
                     encoders, ``conflict_path``)
========  =========  ====================================================

DET001/OBS001 findings from this layer are *disjoint* from the per-file
rules by construction: the dataflow pass only reports clock calls that
need flow to explain (``via_flow``) and obs names that are not string
literals at the call site.

:func:`analyze_project` returns **raw** findings — no exemption globs
applied, no suppression comments honoured — so the engine can cache
them against the project fingerprint and re-filter per run;
:func:`apply_config` does the filtering.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.check.callgraph import CallGraph
from repro.check.config import CheckConfig, parse_suppressions
from repro.check.dataflow import Observations, analyze_module
from repro.check.findings import Finding
from repro.check.project import Project
from repro.obs.names import EVENT_NAMES, METRIC_NAMES


class SemanticRule:
    """Catalog entry for one semantic rule (no visitor — descriptor only)."""

    id: str = ""
    severity: str = "error"
    description: str = ""
    hint: str = ""


class FlowClockRule(SemanticRule):
    id = "DET001"
    severity = "error"
    description = "wall-clock call reached through dataflow"
    hint = (
        "take `now` from the simulation clock (repro.common.clock) or "
        "accept a timestamp parameter instead of reading the wall clock"
    )


class FlowObsNameRule(SemanticRule):
    id = "OBS001"
    severity = "error"
    description = "statically resolvable obs name missing from the catalog"
    hint = (
        "declare the name with an EventSpec/MetricSpec in "
        "repro/obs/names.py (and document it in docs/observability.md)"
    )


class SharedRngRule(SemanticRule):
    id = "DET003"
    severity = "error"
    description = "DeterministicRandom shared across construction sites"
    hint = (
        "derive one independent stream per consumer with "
        "rng.fork(\"label\") so adding draws in one component cannot "
        "perturb another"
    )


class UnorderedIterationRule(SemanticRule):
    id = "DET004"
    severity = "error"
    description = "set iteration order flows into an order-sensitive sink"
    hint = (
        "iterate `sorted(the_set)` (or keep a list/dict, which preserve "
        "insertion order) before feeding heaps, encoders or conflict paths"
    )


#: Registry, in report order — mirrored by docs/static-analysis.md.
SEMANTIC_RULES: Tuple[type, ...] = (
    FlowClockRule,
    FlowObsNameRule,
    SharedRngRule,
    UnorderedIterationRule,
)

SEMANTIC_RULES_BY_ID: Dict[str, type] = {
    rule.id: rule for rule in SEMANTIC_RULES
}


def _finding(rule: type, path: str, line: int, message: str) -> Finding:
    return Finding(
        rule=rule.id,
        severity=rule.severity,
        path=path,
        line=line,
        message=message,
        hint=rule.hint,
    )


def _observation_findings(
    path: str, obs: Observations
) -> List[Finding]:
    findings: List[Finding] = []
    for call in obs.clock_calls:
        if not call.via_flow:
            continue  # the per-file DET001 rule owns the direct spelling
        findings.append(
            _finding(
                FlowClockRule, path, call.node.lineno,
                f"wall-clock `{call.origin}` called through a local or "
                "attribute binding",
            )
        )
    for arg in obs.clock_args:
        findings.append(
            _finding(
                FlowClockRule, path, arg.node.lineno,
                f"wall-clock `{arg.origin}` passed into parameter "
                f"`{arg.param}` of `{arg.callee}`, which calls it",
            )
        )
    for share in obs.rng_shares:
        where = (
            "inside a loop"
            if share.in_loop
            else f"across {share.sites} construction sites"
        )
        findings.append(
            _finding(
                SharedRngRule, path, share.node.lineno,
                f"DeterministicRandom `{share.var}` is passed {where} "
                "without fork(); consumers interleave draws on one stream",
            )
        )
    for sink in obs.set_sinks:
        findings.append(
            _finding(
                UnorderedIterationRule, path, sink.node.lineno,
                f"iterating set `{sink.iterable}` feeds `{sink.sink}`, "
                "whose result depends on hash order",
            )
        )
    for name in obs.obs_names:
        catalog = METRIC_NAMES if name.kind == "metric" else EVENT_NAMES
        catalog_label = "METRICS" if name.kind == "metric" else "EVENTS"
        bad = [v for v in name.values if v not in catalog]
        if bad:
            findings.append(
                _finding(
                    FlowObsNameRule, path, name.node.lineno,
                    f"{name.kind} name resolves to "
                    + ", ".join(f"`{v}`" for v in sorted(bad))
                    + f" — not in the {catalog_label} catalog",
                )
            )
    return findings


def analyze_project(project: Project) -> List[Finding]:
    """Raw semantic findings for a whole project.

    Exemption globs and suppression comments are *not* applied — the
    result depends only on the project contents, so the engine can cache
    it against :meth:`Project.fingerprint`.
    """
    graph = CallGraph.build(project)
    findings: List[Finding] = []
    for module in project.parsed():
        obs = analyze_module(module, graph)
        findings.extend(_observation_findings(module.path, obs))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def apply_config(
    findings: List[Finding], project: Project, config: CheckConfig
) -> List[Finding]:
    """Filter raw semantic findings the way the per-file engine would.

    Exempt (rule, file) pairs are dropped; findings on lines covered by
    a ``# reprolint: disable`` comment are marked suppressed. Returns
    fresh Finding objects — the raw list may live in a cache.
    """
    by_path = {m.path: m for m in project.modules}
    suppressions = {}
    out: List[Finding] = []
    for finding in findings:
        if not config.rule_enabled(finding.rule):
            continue
        module = by_path.get(finding.path)
        rel = module.rel_path if module is not None else finding.path
        if config.exempt(finding.rule, rel):
            continue
        kept = Finding(**{**finding.__dict__})
        if module is not None:
            if module.path not in suppressions:
                suppressions[module.path] = parse_suppressions(
                    module.source
                )
            if suppressions[module.path].covers(kept.rule, kept.line):
                kept.suppressed = True
        out.append(kept)
    return out
