"""Project-wide function table, call resolution, and summaries.

The flow rules need three interprocedural facts, each shallow
enough to compute in one pass per function:

* **calls-its-parameter** — a function that invokes one of its own
  parameters (``def sample(now): t = now()``). A caller passing a
  wall-clock function into that parameter is a DET001 violation at the
  call site, even though neither function alone reads the clock.
* **parameter-is-an-obs-name** — a function that forwards a parameter
  into the name slot of an obs facade call (``def note(obs, name):
  obs.inc(name)``). Callers passing string literals get those literals
  checked against the catalog (OBS001), closing the "hide the name in
  a helper" hole.
* **returns-a-set** — a function whose return value is a ``set``.
  Iterating such a return value into an order-sensitive sink is the
  same DET004 hazard as iterating a local set.

Calls resolve syntactically: bare names to same-module functions or
``from``-imported project functions; ``module.func`` attributes through
import aliases. Method calls (``self.x()``, ``obj.x()``) are out of
scope — the dataflow layer handles the receiver-local patterns that
matter for the rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.check.project import ModuleInfo, Project
from repro.check.symbols import SymbolTable, build_symbol_table

#: Receiver tails that look like the obs facade, and its name-taking methods.
OBS_RECEIVERS = {"obs", "_obs", "metrics", "tracer", "registry"}
METRIC_METHODS = {"inc", "set_gauge", "observe"}
EVENT_METHODS = {"event", "span"}


@dataclass
class FunctionInfo:
    """One function or method definition, with its summary."""

    module: ModuleInfo
    qualname: str  # "encode_node" or "Delta.encode"
    node: ast.FunctionDef
    param_names: Tuple[str, ...] = ()
    #: Parameters the body calls as functions.
    calls_params: Set[str] = field(default_factory=set)
    #: Parameters forwarded into a metric-name slot (obs.inc & co).
    metric_name_params: Set[str] = field(default_factory=set)
    #: Parameters forwarded into an event/span-name slot.
    event_name_params: Set[str] = field(default_factory=set)
    #: The function's return value is (sometimes) a set.
    returns_set: bool = False


def _param_names(node: ast.FunctionDef) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return tuple(n for n in names if n not in ("self", "cls"))


def _positional_index(names: Tuple[str, ...], name: str) -> Optional[int]:
    try:
        return names.index(name)
    except ValueError:
        return None


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def summarize_function(info: FunctionInfo) -> None:
    """Fill in the summary fields of ``info`` (idempotent)."""
    params = set(info.param_names)
    set_names: Set[str] = set()
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in params:
                info.calls_params.add(func.id)
            if isinstance(func, ast.Attribute) and node.args:
                receiver = func.value
                tail = (
                    receiver.id
                    if isinstance(receiver, ast.Name)
                    else getattr(receiver, "attr", None)
                )
                first = node.args[0]
                if (
                    tail in OBS_RECEIVERS
                    and isinstance(first, ast.Name)
                    and first.id in params
                ):
                    if func.attr in METRIC_METHODS:
                        info.metric_name_params.add(first.id)
                    elif func.attr in EVENT_METHODS:
                        info.event_name_params.add(first.id)
        elif isinstance(node, ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_set_expr(node.value, set_names)
            ):
                set_names.add(node.targets[0].id)
        elif isinstance(node, ast.Return) and node.value is not None:
            if _is_set_expr(node.value, set_names):
                info.returns_set = True


@dataclass
class CallGraph:
    """Function table plus symbol tables for every parsed module."""

    project: Project
    tables: Dict[str, SymbolTable] = field(default_factory=dict)
    #: (module name, qualname) -> FunctionInfo.
    functions: Dict[Tuple[str, str], FunctionInfo] = field(
        default_factory=dict
    )

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls(project=project)
        for module in project.parsed():
            assert module.tree is not None
            table = build_symbol_table(module.tree, module.name)
            graph.tables[module.name] = table
            for stmt in module.tree.body:
                if isinstance(stmt, ast.FunctionDef):
                    graph._add(module, stmt.name, stmt)
                elif isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if isinstance(sub, ast.FunctionDef):
                            graph._add(
                                module, f"{stmt.name}.{sub.name}", sub
                            )
        return graph

    def _add(
        self, module: ModuleInfo, qualname: str, node: ast.FunctionDef
    ) -> None:
        info = FunctionInfo(
            module=module,
            qualname=qualname,
            node=node,
            param_names=_param_names(node),
        )
        summarize_function(info)
        self.functions[(module.name, qualname)] = info

    def table(self, module: ModuleInfo) -> SymbolTable:
        return self.tables[module.name]

    def resolve_call(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[FunctionInfo]:
        """The project function a call targets, when statically clear."""
        func = call.func
        if isinstance(func, ast.Name):
            local = self.functions.get((module.name, func.id))
            if local is not None:
                return local
            table = self.tables.get(module.name)
            if table is None:
                return None
            origin = table.resolve_name(func.id)
            if origin is None or "." not in origin:
                return None
            mod_name, _, fn_name = origin.rpartition(".")
            target = self.project.resolve_module(mod_name)
            if target is None:
                return None
            return self.functions.get((target.name, fn_name))
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            table = self.tables.get(module.name)
            if table is None:
                return None
            mod_origin = table.resolve_name(func.value.id)
            if mod_origin is None:
                return None
            target = self.project.resolve_module(mod_origin)
            if target is None:
                return None
            return self.functions.get((target.name, func.attr))
        return None

    def argument_for_param(
        self, info: FunctionInfo, call: ast.Call, param: str
    ) -> Optional[ast.expr]:
        """The argument expression a call binds to ``param``, if spelled."""
        index = _positional_index(info.param_names, param)
        if index is not None and index < len(call.args):
            return call.args[index]
        for kw in call.keywords:
            if kw.arg == param:
                return kw.value
        return None
