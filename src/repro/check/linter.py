"""The lint engine: run the rule catalog over a parsed project.

One engine, each step done once per run:

* :func:`repro.check.project.load_project` reads, parses and
  comment-scans every file once; :func:`lint_source` builds the same
  view for one in-memory module, so both entry points give one answer.
* every rule of :data:`~repro.check.rules.ALL_RULES` is instantiated
  once per module and its node handlers fire during a single tree walk.
* one selection step applies ``--only`` and the exemption globs and
  marks ``# reprolint:`` suppressions (``PARSE``/``IO`` always
  survive).
* suppression hygiene — each ``# reprolint:`` comment is audited
  against the module's *unselected* findings: unknown rule ids are
  ``CFG001`` warnings, comments that match no finding are ``CFG002``
  (stale) warnings. Skipped under ``--only``, where staleness cannot
  be judged against a narrowed picture.
"""

from __future__ import annotations

import ast
import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.check.config import CheckConfig, SuppressionComment
from repro.check.findings import Finding
from repro.check.invariants import INVARIANTS_BY_ID
from repro.check.project import (
    ModuleInfo,
    Project,
    load_project,
    parse_module,
)
from repro.check.rules import ALL_RULES, RULES_BY_ID

#: Findings the engine synthesizes without a catalog rule class.
ENGINE_FINDINGS = ("PARSE", "IO", "CFG001", "CFG002")

#: Every id a ``# reprolint: disable=`` comment may legitimately name.
KNOWN_SUPPRESSIBLE = (
    frozenset(RULES_BY_ID)
    | frozenset(INVARIANTS_BY_ID)
    | frozenset(ENGINE_FINDINGS)
)


def _rule_findings(module: ModuleInfo) -> List[Finding]:
    """Every rule's findings for one parsed module, nothing selected."""
    assert module.tree is not None
    rules = [rule_cls(path=module.path) for rule_cls in ALL_RULES]
    handlers: Dict[type, List[Callable[[ast.AST], None]]] = {}
    for rule in rules:
        for name in dir(rule):
            if name.startswith("visit_"):
                handlers.setdefault(getattr(ast, name[6:]), []).append(
                    getattr(rule, name)
                )
    stack: List[ast.AST] = [module.tree]
    while stack:  # pre-order, children in source order
        node = stack.pop()
        for handle in handlers.get(type(node), ()):
            handle(node)
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
    return [finding for rule in rules for finding in rule.findings]


def _comment_matches(
    finding: Finding, comment: SuppressionComment, rule: str
) -> bool:
    if finding.rule != rule:
        return False
    if comment.kind == "disable-file":
        return True
    return finding.line == comment.lineno


def _hygiene_findings(
    module: ModuleInfo, raw_findings: Sequence[Finding]
) -> List[Finding]:
    """Audit the suppression comments of one module.

    ``raw_findings`` must be the *unselected* findings for the module,
    so a comment is judged against everything the catalog can say about
    the file, not against what the current configuration happens to
    keep.
    """
    path = module.path
    findings: List[Finding] = []
    for comment in module.suppressions.comments:
        for rule in comment.rules:
            if rule not in KNOWN_SUPPRESSIBLE:
                findings.append(
                    Finding(
                        rule="CFG001",
                        severity="warning",
                        path=path,
                        line=comment.lineno,
                        message=(
                            f"suppression names unknown rule id `{rule}`"
                        ),
                        hint=(
                            "check docs/static-analysis.md for the rule "
                            "catalog; a typo here silently disables "
                            "nothing"
                        ),
                    )
                )
                continue
            if not any(
                _comment_matches(f, comment, rule) for f in raw_findings
            ):
                where = (
                    "anywhere in the file"
                    if comment.kind == "disable-file"
                    else "on this line"
                )
                findings.append(
                    Finding(
                        rule="CFG002",
                        severity="warning",
                        path=path,
                        line=comment.lineno,
                        message=(
                            f"suppression of `{rule}` matches no finding "
                            f"{where} — stale"
                        ),
                        hint=(
                            "delete the comment (or the part naming "
                            f"`{rule}`); stale suppressions hide future "
                            "regressions"
                        ),
                    )
                )
    return findings


def lint_project(project: Project, config: CheckConfig) -> List[Finding]:
    """All findings for a loaded project, sorted by location."""
    findings = list(project.unreadable)
    for module in project.modules:
        raw = (
            [module.error]
            if module.error is not None
            else _rule_findings(module)
        )
        for finding in raw:
            if finding.rule != "PARSE":
                if not config.rule_enabled(finding.rule) or config.exempt(
                    finding.rule, module.rel_path
                ):
                    continue
                finding.suppressed = module.suppressions.covers(
                    finding.rule, finding.line
                )
            findings.append(finding)
        if not config.only:
            findings.extend(_hygiene_findings(module, raw))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rel_path: Optional[str] = None,
    config: Optional[CheckConfig] = None,
) -> List[Finding]:
    """Lint one file's source text; returns findings (incl. suppressed)."""
    module = parse_module(
        path, path if rel_path is None else rel_path, source
    )
    return lint_project(Project(modules=[module]), config or CheckConfig())


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git"}
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            out.append(path)
    return sorted(dict.fromkeys(out))


def lint_paths(
    paths: Sequence[str],
    config: Optional[CheckConfig] = None,
    package_roots: Sequence[str] = (),
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` as one project.

    ``package_roots`` are directories whose children are package-relative
    for exemption matching (e.g. ``src/repro``); by default the segment
    after the last ``/repro/`` in each path is used.
    """
    project = load_project(iter_python_files(paths), package_roots)
    return lint_project(project, config or CheckConfig())
