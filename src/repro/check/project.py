"""Whole-project loading: the one parsed view every lint rule runs over.

The rules reason across files — aliased clocks that cross a function
boundary, obs names built three helpers away — so the engine works on a
:class:`Project`: every ``.py`` file read, ``ast.parse``d and scanned
for ``# reprolint:`` comments exactly once, addressable by dotted module
name, with the import graph resolved far enough to map ``from
repro.common import wire`` back to the loaded module it names.

The loader is deliberately tolerant: a file that does not parse is kept
with ``tree=None`` and its ``PARSE`` finding; an unreadable file becomes
an ``IO`` finding on the project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.check.config import (
    Suppressions,
    parse_suppressions,
    relative_to_package,
)
from repro.check.findings import Finding


@dataclass
class ModuleInfo:
    """One loaded source file."""

    #: Dotted module name (``repro.core.recovery``) when derivable from
    #: the path, else the package-relative path with slashes.
    name: str
    path: str
    rel_path: str
    tree: Optional[ast.Module]
    suppressions: Suppressions
    #: The ``PARSE`` finding when ``tree`` is None.
    error: Optional[Finding] = None


def module_name_for(path: str, rel_path: str) -> str:
    """Best-effort dotted name for a file.

    ``core/recovery.py`` (package-relative) -> ``repro.core.recovery``;
    package ``__init__`` files name the package itself. Files outside
    any recognised package root keep their relative path as the name —
    unique is what matters, prettiness is not.
    """
    rel = rel_path.replace("\\", "/")
    if rel.endswith(".py"):
        rel = rel[: -len(".py")]
    if rel.endswith("/__init__"):
        rel = rel[: -len("/__init__")]
    if rel == "__init__":
        return "repro"
    dotted = rel.replace("/", ".")
    if rel_path != path:
        # A package-relative path: anchor it under the repro package.
        return f"repro.{dotted}"
    return dotted


def parse_module(path: str, rel_path: str, source: str) -> ModuleInfo:
    """Parse one file's text and scan its suppression comments."""
    tree: Optional[ast.Module] = None
    error: Optional[Finding] = None
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        error = Finding(
            rule="PARSE",
            severity="error",
            path=path,
            line=exc.lineno or 0,
            message=f"syntax error: {exc.msg}",
            hint="the file must parse before any rule can run",
        )
    return ModuleInfo(
        name=module_name_for(path, rel_path),
        path=path,
        rel_path=rel_path,
        tree=tree,
        suppressions=parse_suppressions(source),
        error=error,
    )


@dataclass
class Project:
    """Every module of one analysis run, parsed once."""

    modules: List[ModuleInfo] = field(default_factory=list)
    by_name: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: ``IO`` findings for the files that could not be read.
    unreadable: List[Finding] = field(default_factory=list)

    def add(self, info: ModuleInfo) -> None:
        self.modules.append(info)
        self.by_name[info.name] = info

    def parsed(self) -> List[ModuleInfo]:
        """The modules whose source parsed (the rules scan these)."""
        return [m for m in self.modules if m.tree is not None]

    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """The loaded module a dotted import name refers to, if any."""
        return self.by_name.get(dotted)


def load_project(
    files: Sequence[str], package_roots: Sequence[str] = ()
) -> Project:
    """Read and parse ``files`` into a :class:`Project`."""
    project = Project()
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            project.unreadable.append(
                Finding(
                    rule="IO",
                    severity="error",
                    path=path,
                    line=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        rel = relative_to_package(path, package_roots)
        project.add(parse_module(path, rel, source))
    return project
