"""The lint engine: run the rule catalog over files or source text.

The engine is split so every expensive result is a pure function of
file contents and therefore cacheable (:mod:`repro.check.cache`):

* :func:`raw_lint_source` — parse once, run **every** rule, mark
  ``# reprolint:`` suppressions. Depends only on the file's bytes.
* config filtering — ``--only`` and the exemption globs select from
  the raw findings per run (``PARSE``/``IO`` always survive).
* suppression hygiene — each ``# reprolint:`` comment is audited:
  unknown rule ids are ``CFG001`` warnings, comments that match no
  finding are ``CFG002`` (stale) warnings. Skipped under ``--only``,
  where most rules did not run and staleness cannot be judged.
* the semantic layer (:mod:`repro.check.semantic`) — project-wide
  dataflow findings, keyed by the whole-project
  fingerprint in the cache. :func:`lint_paths` runs it by default;
  :func:`lint_source` stays per-file.
"""

from __future__ import annotations

import ast
import hashlib
import os
from typing import Dict, Iterable, List, Optional, Sequence

from repro.check.cache import AnalysisCache
from repro.check.config import (
    CheckConfig,
    SuppressionComment,
    Suppressions,
    parse_suppressions,
    relative_to_package,
)
from repro.check.findings import Finding
from repro.check.invariants import INVARIANTS_BY_ID
from repro.check.rules import ALL_RULES, RULES_BY_ID
from repro.check.semantic import (
    SEMANTIC_RULES_BY_ID,
    analyze_project,
    apply_config,
)

#: Findings the engine synthesizes without a catalog rule class.
ENGINE_FINDINGS = ("PARSE", "IO", "CFG001", "CFG002")

#: Every id a ``# reprolint: disable=`` comment may legitimately name.
KNOWN_SUPPRESSIBLE = (
    frozenset(RULES_BY_ID)
    | frozenset(SEMANTIC_RULES_BY_ID)
    | frozenset(INVARIANTS_BY_ID)
    | frozenset(ENGINE_FINDINGS)
)

_SORT_KEY = lambda f: (f.line, f.rule, f.message)  # noqa: E731


def raw_lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Every rule's findings for one file, suppressions marked.

    The result depends only on ``source`` — no configuration — which is
    what makes it safe to cache by content digest.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="PARSE",
                severity="error",
                path=path,
                line=exc.lineno or 0,
                message=f"syntax error: {exc.msg}",
                hint="the file must parse before any rule can run",
            )
        ]
    findings: List[Finding] = []
    for rule_cls in ALL_RULES:
        rule = rule_cls(path=path)
        rule.visit(tree)
        findings.extend(rule.findings)
    suppressions = parse_suppressions(source)
    for finding in findings:
        if suppressions.covers(finding.rule, finding.line):
            finding.suppressed = True
    findings.sort(key=_SORT_KEY)
    return findings


def filter_findings(
    findings: Iterable[Finding], config: CheckConfig, rel_path: str
) -> List[Finding]:
    """Select the raw findings this run's configuration keeps."""
    out: List[Finding] = []
    for finding in findings:
        if finding.rule in ("PARSE", "IO"):
            out.append(finding)
            continue
        if not config.rule_enabled(finding.rule):
            continue
        if config.exempt(finding.rule, rel_path):
            continue
        out.append(finding)
    return out


def _comment_matches(
    finding: Finding, comment: SuppressionComment, rule: str
) -> bool:
    if finding.rule != rule:
        return False
    if comment.kind == "disable-file":
        return True
    return finding.line == comment.lineno


def hygiene_findings(
    path: str,
    suppressions: Suppressions,
    raw_findings: Sequence[Finding],
) -> List[Finding]:
    """Audit the suppression comments of one file.

    ``raw_findings`` must be the *unfiltered* findings for the file
    (per-file plus any semantic ones), so a comment is judged against
    everything the catalog can say about the file, not against what the
    current configuration happens to keep.
    """
    findings: List[Finding] = []
    for comment in suppressions.comments:
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


def lint_source(
    source: str,
    path: str = "<string>",
    rel_path: Optional[str] = None,
    config: Optional[CheckConfig] = None,
) -> List[Finding]:
    """Lint one file's source text; returns findings (incl. suppressed).

    Per-file rules plus suppression hygiene; the project-wide semantic
    rules need the whole tree and only run under :func:`lint_paths`.
    """
    config = config or CheckConfig()
    rel = rel_path if rel_path is not None else path
    raw = raw_lint_source(source, path=path)
    findings = filter_findings(raw, config, rel)
    if not config.only:
        suppressions = parse_suppressions(source)
        if suppressions.comments:
            findings = findings + hygiene_findings(path, suppressions, raw)
    findings.sort(key=_SORT_KEY)
    return findings


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


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def lint_paths(
    paths: Sequence[str],
    config: Optional[CheckConfig] = None,
    package_roots: Sequence[str] = (),
    semantic: bool = True,
    cache: Optional[AnalysisCache] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``.

    ``package_roots`` are directories whose children are package-relative
    for exemption matching (e.g. ``src/repro``); by default the segment
    after the last ``/repro/`` in each path is used. ``semantic`` adds
    the project-wide dataflow rules; ``cache`` (an
    :class:`AnalysisCache`) skips re-analysis of unchanged content.
    """
    config = config or CheckConfig()
    findings: List[Finding] = []
    sources: Dict[str, str] = {}
    raw_by_path: Dict[str, List[Finding]] = {}
    files = iter_python_files(paths)
    for file_path in files:
        rel = relative_to_package(file_path, package_roots)
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            findings.append(
                Finding(
                    rule="IO",
                    severity="error",
                    path=file_path,
                    line=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        sources[file_path] = source
        digest = _source_digest(source)
        raw = (
            cache.file_findings(file_path, digest)
            if cache is not None
            else None
        )
        if raw is None:
            raw = raw_lint_source(source, path=file_path)
            if cache is not None:
                cache.store_file(file_path, digest, raw)
        raw_by_path[file_path] = raw
        findings.extend(filter_findings(raw, config, rel))

    semantic_raw: List[Finding] = []
    if semantic and sources:
        from repro.check.project import load_project

        project = load_project(
            [p for p in files if p in sources],
            package_roots=package_roots,
            sources=sources,
        )
        fingerprint = project.fingerprint()
        cached = (
            cache.semantic_findings(fingerprint)
            if cache is not None
            else None
        )
        if cached is None:
            semantic_raw = analyze_project(project)
            if cache is not None:
                cache.store_semantic(fingerprint, semantic_raw)
        else:
            semantic_raw = cached
        findings.extend(apply_config(semantic_raw, project, config))

    if not config.only:
        for file_path, source in sources.items():
            suppressions = parse_suppressions(source)
            if not suppressions.comments:
                continue
            raw_all = raw_by_path.get(file_path, []) + [
                f for f in semantic_raw if f.path == file_path
            ]
            findings.extend(
                hygiene_findings(file_path, suppressions, raw_all)
            )
    return findings
