"""Whole-project loading: the one parsed view every lint rule runs over.

A :class:`Project` is every ``.py`` file of one run, read, ``ast.parse``d
and scanned for ``# reprolint:`` comments exactly once.

The loader is deliberately tolerant: a file that does not parse is kept
with ``tree=None`` and its ``PARSE`` finding; an unreadable file becomes
an ``IO`` finding on the project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.check.config import (
    Suppressions,
    parse_suppressions,
    relative_to_package,
)
from repro.check.findings import Finding


@dataclass
class ModuleInfo:
    """One loaded source file."""

    path: str
    rel_path: str
    tree: Optional[ast.Module]
    suppressions: Suppressions
    #: The ``PARSE`` finding when ``tree`` is None.
    error: Optional[Finding] = None


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
    #: ``IO`` findings for the files that could not be read.
    unreadable: List[Finding] = field(default_factory=list)


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
        project.modules.append(parse_module(path, rel, source))
    return project
