"""Whole-project loading for the semantic analysis layer.

The per-file rules in :mod:`repro.check.rules` see one AST at a time;
the semantic rules (:mod:`repro.check.semantic`) reason across files —
aliased clocks that cross a function boundary, obs names built three
helpers away. This module gives them one parsed view of the tree:
every ``.py`` file read and parsed exactly once, addressable both by
filesystem path and by dotted module name, with the import graph
resolved far enough to map ``from repro.common import wire`` back to
the loaded module it names.

The loader is deliberately tolerant: a file that does not parse is
recorded with ``tree=None`` (the per-file engine already reports the
``PARSE`` finding); semantic rules simply skip it.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.check.config import relative_to_package


@dataclass
class ModuleInfo:
    """One loaded source file."""

    #: Dotted module name (``repro.core.recovery``) when derivable from
    #: the path, else the package-relative path with slashes.
    name: str
    path: str
    rel_path: str
    source: str
    tree: Optional[ast.Module]

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()


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


@dataclass
class Project:
    """Every module of one analysis run, parsed once."""

    modules: List[ModuleInfo] = field(default_factory=list)
    by_name: Dict[str, ModuleInfo] = field(default_factory=dict)
    by_path: Dict[str, ModuleInfo] = field(default_factory=dict)

    def add(self, info: ModuleInfo) -> None:
        self.modules.append(info)
        self.by_name[info.name] = info
        self.by_path[info.path] = info

    def parsed(self) -> List[ModuleInfo]:
        """The modules whose source parsed (semantic rules scan these)."""
        return [m for m in self.modules if m.tree is not None]

    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """The loaded module a dotted import name refers to, if any."""
        return self.by_name.get(dotted)

    def fingerprint(self) -> str:
        """Content hash of the whole project, for the analysis cache."""
        h = hashlib.sha256()
        for module in sorted(self.modules, key=lambda m: m.rel_path):
            h.update(module.rel_path.encode("utf-8"))
            h.update(b"\x00")
            h.update(module.digest.encode("ascii"))
            h.update(b"\x00")
        return h.hexdigest()


def load_project(
    files: Sequence[str],
    package_roots: Sequence[str] = (),
    sources: Optional[Dict[str, str]] = None,
) -> Project:
    """Parse ``files`` into a :class:`Project`.

    ``sources`` lets a caller that already read the files (the lint
    engine does) hand over the text so nothing is read twice; files
    missing from the mapping are read from disk. Unreadable files are
    skipped — the per-file engine owns the ``IO`` finding.
    """
    project = Project()
    for path in files:
        if sources is not None and path in sources:
            source = sources[path]
        else:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError:
                continue
        rel = relative_to_package(path, package_roots)
        try:
            tree: Optional[ast.Module] = ast.parse(source, filename=path)
        except SyntaxError:
            tree = None
        project.add(
            ModuleInfo(
                name=module_name_for(path, rel),
                path=path,
                rel_path=rel,
                source=source,
                tree=tree,
            )
        )
    return project


def project_from_sources(named_sources: Dict[str, str]) -> Project:
    """A project straight from in-memory sources (tests use this)."""
    project = Project()
    for rel, source in named_sources.items():
        try:
            tree: Optional[ast.Module] = ast.parse(source, filename=rel)
        except SyntaxError:
            tree = None
        project.add(
            ModuleInfo(
                name=module_name_for(rel, rel),
                path=rel,
                rel_path=rel,
                source=source,
                tree=tree,
            )
        )
    return project
