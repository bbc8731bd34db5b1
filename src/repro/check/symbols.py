"""Per-module symbol tables for the dataflow pass.

One :class:`SymbolTable` per parsed module answers the questions the
dataflow engine keeps asking:

* what dotted origin does this name refer to? (``import time as t`` +
  ``t.monotonic`` -> ``time.monotonic``; ``from repro.common import
  wire`` + ``wire.u64be`` -> ``repro.common.wire.u64be``);
* what literal value does this module-level constant hold?
  (``_COPY_TAG = 0xC0``).

Resolution is purely syntactic — no imports are executed. Chains of
module-level aliases (``now = time.time`` then ``later = now``) are
followed to a fixed point with a small depth bound.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Literal constant types the table records.
_CONST_TYPES = (str, int, float, bytes, bool)

_ALIAS_DEPTH = 8


@dataclass
class SymbolTable:
    """Module-level names of one module, resolved syntactically."""

    module: str = ""
    #: local name -> imported module dotted path (``import x.y as z``).
    module_alias: Dict[str, str] = field(default_factory=dict)
    #: local name -> fully qualified origin (``from m import f as g``).
    from_alias: Dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = <literal>`` bindings.
    constants: Dict[str, object] = field(default_factory=dict)
    #: module-level ``NAME = {..: "str", ..}`` all-string dict tables.
    str_choices: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: module-level ``NAME = <dotted target>`` callable aliases.
    value_alias: Dict[str, str] = field(default_factory=dict)

    # -- resolution --------------------------------------------------------

    def resolve_name(self, name: str) -> Optional[str]:
        """Dotted origin of a bare module-level name, alias chains followed."""
        seen = 0
        current = name
        while seen < _ALIAS_DEPTH:
            seen += 1
            if current in self.from_alias:
                return self.from_alias[current]
            if current in self.module_alias:
                return self.module_alias[current]
            if current in self.value_alias:
                target = self.value_alias[current]
                if "." in target:
                    head, rest = target.split(".", 1)
                    base = self.resolve_name(head)
                    return f"{base}.{rest}" if base else target
                current = target
                continue
            return None
        return None

    def resolve_expr(self, node: ast.expr) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, or None."""
        if isinstance(node, ast.Name):
            return self.resolve_name(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve_expr(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def constant_value(self, name: str) -> Optional[object]:
        return self.constants.get(name)

    def str_choice(self, name: str) -> Optional[Tuple[str, ...]]:
        return self.str_choices.get(name)


def build_symbol_table(tree: ast.Module, module: str = "") -> SymbolTable:
    """Scan a module's top level into a :class:`SymbolTable`."""
    table = SymbolTable(module=module)
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    table.module_alias[alias.asname] = alias.name
                else:
                    # `import x.y` binds `x`, which refers to module `x`.
                    top = alias.name.split(".")[0]
                    table.module_alias[top] = top
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                continue  # relative imports: not resolved, stay silent
            for alias in stmt.names:
                local = alias.asname or alias.name
                table.from_alias[local] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None or len(targets) != 1:
                continue
            target = targets[0]
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if isinstance(value, ast.Constant) and isinstance(
                value.value, _CONST_TYPES
            ):
                table.constants[name] = value.value
            elif isinstance(value, ast.Dict) and value.values and all(
                isinstance(v, ast.Constant) and isinstance(v.value, str)
                for v in value.values
            ):
                table.str_choices[name] = tuple(
                    v.value for v in value.values  # type: ignore[union-attr]
                )
            elif isinstance(value, (ast.Name, ast.Attribute)):
                dotted = _dotted_of(value)
                if dotted is not None:
                    table.value_alias[name] = dotted
    return table


def _dotted_of(node: ast.expr) -> Optional[str]:
    """The literal dotted spelling of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_of(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None
