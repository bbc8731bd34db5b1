"""Rule configuration: per-path exemptions and suppression comments.

Two mechanisms keep the linter's defaults strict without turning real
design decisions into noise:

* **Per-path exemptions** — rule ids mapped to ``fnmatch`` glob patterns
  over *package-relative* paths (``cli.py``, ``obs/render.py``). The CLI
  is allowed to ``print``; the seeded RNG helper is allowed to import
  :mod:`random`. These live in :data:`DEFAULT_EXEMPTIONS` and callers can
  extend or replace them.

* **Suppression comments** — inline opt-outs for one-off cases, parsed
  from source text (the AST does not carry comments):

  - ``# reprolint: disable=DET001`` suppresses the named rule(s) on that
    line only;
  - ``# reprolint: disable-file=DET001`` anywhere in the file suppresses
    them for the whole file.

  Suppressed findings are still reported (``suppressed=True``), they just
  never fail the run.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Sequence, Set, Tuple

#: Rules that whole areas of the tree legitimately break. Patterns match
#: against the path relative to the ``repro`` package root.
DEFAULT_EXEMPTIONS: Dict[str, Tuple[str, ...]] = {
    # User-facing entry points talk to stdout by design.
    "PY003": ("cli.py", "__main__.py", "obs/render.py", "check/*"),
    # The deterministic clock shim is one place wall-clock may live; the
    # wall-clock benchmark lane is the other — measuring real time is its
    # entire point, and its output never feeds simulation state.
    "DET001": ("common/clock.py", "harness/wallclock.py"),
    # The seeded RNG wrapper is the one place `random` may be imported.
    "DET002": ("common/rng.py",),
    # The field-table module is the one place `struct` may be imported.
    "WIRE001": ("common/wire.py",),
    # The facade's own methods forward the name their caller was held to.
    "OBS001": ("obs/__init__.py",),
}

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s-]+)"
)


@dataclass(frozen=True)
class SuppressionComment:
    """One ``# reprolint:`` comment, as written: where and what."""

    lineno: int
    kind: str  # "disable" | "disable-file"
    rules: Tuple[str, ...]


@dataclass
class Suppressions:
    """Parsed suppression comments for one file."""

    file_rules: Set[str] = field(default_factory=set)
    line_rules: Dict[int, Set[str]] = field(default_factory=dict)
    #: Every comment in source order — the hygiene checks (unknown rule
    #: ids, suppressions that no longer match anything) audit these.
    comments: List[SuppressionComment] = field(default_factory=list)

    def covers(self, rule: str, line: int) -> bool:
        if rule in self.file_rules:
            return True
        return rule in self.line_rules.get(line, set())


def _iter_comments(source: str):
    """(lineno, text) of every real comment token.

    Tokenizing (rather than scanning lines) keeps docstrings that merely
    *mention* the suppression syntax from activating suppressions. A
    source that fails to tokenize yields whatever was seen before the
    error — such a file fails to parse anyway (the ``PARSE`` finding).
    """
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def parse_suppressions(source: str) -> Suppressions:
    """Scan a file's comments for ``# reprolint:`` directives."""
    supp = Suppressions()
    if "reprolint:" not in source:
        return supp  # nothing to find; skip the tokenizer
    for lineno, text in _iter_comments(source):
        for kind, raw_rules in _SUPPRESS_RE.findall(text):
            rules = {r.strip() for r in raw_rules.split(",") if r.strip()}
            supp.comments.append(
                SuppressionComment(
                    lineno=lineno, kind=kind, rules=tuple(sorted(rules))
                )
            )
            if kind == "disable-file":
                supp.file_rules.update(rules)
            else:
                supp.line_rules.setdefault(lineno, set()).update(rules)
    return supp


@dataclass
class CheckConfig:
    """Which rules run where.

    ``exemptions`` maps rule id -> glob patterns (package-relative paths)
    where the rule is silenced entirely. ``only`` restricts the run to a
    subset of rule ids (empty = all registered rules).
    """

    exemptions: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXEMPTIONS)
    )
    only: Tuple[str, ...] = ()

    def rule_enabled(self, rule: str) -> bool:
        return not self.only or rule in self.only

    def exempt(self, rule: str, rel_path: str) -> bool:
        """True when ``rule`` is configured off for this file."""
        rel = rel_path.replace("\\", "/")
        return any(
            fnmatch(rel, pattern)
            for pattern in self.exemptions.get(rule, ())
        )


def relative_to_package(path: str, package_roots: Sequence[str]) -> str:
    """Path relative to the nearest ``repro`` package root.

    ``src/repro/core/sync_queue.py`` -> ``core/sync_queue.py``. Falls back
    to the path unchanged when no root matches, so globs against absolute
    paths still work for out-of-tree files.
    """
    norm = path.replace("\\", "/")
    for root in package_roots:
        root_norm = root.replace("\\", "/").rstrip("/") + "/"
        if norm.startswith(root_norm):
            return norm[len(root_norm):]
    marker = "/repro/"
    idx = norm.rfind(marker)
    if idx != -1:
        return norm[idx + len(marker):]
    return norm
