"""The lint rule catalog: one class per rule id, every rule a node handler.

Every rule has a stable ``id``, a default ``severity``, a one-line
``description`` and an autofix ``hint``. The engine
(:mod:`repro.check.linter`) instantiates each rule once per module and
calls its ``visit_<NodeType>`` methods for every node of that type
during one walk of the module's parsed tree (the engine recurses;
handlers do not). No rule looks past the node it is handed or, for
``DET003``/``DET004``, past the one function that node is.

That is enough because the determinism contract is held by what the
code can *name*, not by chasing values: a module that cannot import
``time`` cannot reach a clock through a local, a ``self.`` attribute, a
default argument or a parameter; an obs name that must be a literal
cannot hide in a table or a helper.

========  =========  ====================================================
id        severity   what it flags
========  =========  ====================================================
DET001    error      ``time`` / ``datetime`` imported (any form, any
                     depth, or a literal handed to ``__import__`` /
                     ``import_module``) outside the clock shim
DET002    error      ``random`` / ``secrets`` / ``uuid`` imported the
                     same way outside ``repro.common.rng``, and the
                     ``os`` entropy attributes ``urandom``/``getrandom``
DET003    error      a local ``DeterministicRandom(...)`` handed to two
                     or more calls, or to one call in a loop, without
                     ``fork()`` — consumers interleave draws on one
                     stream, so adding a draw in one perturbs the others
DET004    error      a ``for`` over a set (display, ``set()``, set
                     operator, ``list()`` reshape, or a local bound to
                     one) whose body feeds an order-sensitive sink
                     (``heappush``/``heapify``, ``.encode*``,
                     ``conflict_path``)
PY001     error      mutable default arguments
PY002     error      bare ``except:`` clauses
PY003     warning    ``print`` in library code (CLI/render exempt)
OBS001    error      the name slot of an obs facade call
                     (``event``/``span``/``inc``/``set_gauge``) is not
                     a string literal from the catalog in
                     ``repro/obs/names.py``
WIRE001   error      a class that hand-writes ``wire_size`` or a byte-level
                     ``encode``/``decode`` instead of declaring a
                     ``repro.common.wire`` field table, or an ``import
                     struct`` outside ``common/wire.py``
========  =========  ====================================================
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Type

from repro.check.findings import Finding
from repro.obs.names import EVENT_NAMES, METRIC_NAMES


class Rule:
    """Base class: subclasses set the class attributes and report()."""

    id: str = ""
    severity: str = "error"
    description: str = ""
    hint: str = ""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=self.id,
                severity=self.severity,
                path=self.path,
                line=getattr(node, "lineno", 0),
                message=message,
                hint=self.hint,
            )
        )


def _tail(node: ast.expr) -> Optional[str]:
    """``f`` for ``f`` and for ``a.b.f``; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


class _ImportBoundary:
    """Mixin: ``_MODULES`` are importable only in the rule's exempt paths.

    Every way of naming a module is an import node or a literal handed
    to an importer, and the engine hands over every node of the file —
    so a function-local, nested or class-level import is seen like a
    top-level one. ``__import__(name)`` with a computed name is the one
    spelling left to review.
    """

    _MODULES: FrozenSet[str] = frozenset()
    #: The module the message sends the reader to.
    _HOME = ""

    def _check_import(self, node: ast.AST, dotted: str) -> None:
        root = dotted.split(".")[0]
        if root in self._MODULES:
            self.report(node, f"`{root}` is imported outside {self._HOME}")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_import(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            self._check_import(node, node.module)

    def visit_Call(self, node: ast.Call) -> None:
        if _tail(node.func) in ("__import__", "import_module") and node.args:
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self._check_import(node, name.value)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
#: The fields that hold a compound statement's nested statements.
_BLOCKS = ("body", "handlers", "orelse", "finalbody", "cases")


def _own_statements(scope: ast.AST) -> List[Tuple[ast.AST, bool]]:
    """``(statement, in_loop)`` for one scope's statements in source order.

    Nested defs and classes are left to their own visit; a loop header
    runs once, so only a loop's ``body`` counts as in the loop.
    """
    out: List[Tuple[ast.AST, bool]] = []
    stack = [(scope, False)]
    while stack:
        node, in_loop = stack.pop()
        if node is not scope:
            if isinstance(node, _SCOPES):
                continue
            out.append((node, in_loop))
        nested = []
        for name in _BLOCKS:
            looped = in_loop or (name == "body" and isinstance(node, _LOOPS))
            nested.extend((stmt, looped) for stmt in getattr(node, name, ()))
        stack.extend(reversed(nested))
    return out


def _own_calls(statement: ast.AST) -> Iterator[ast.Call]:
    """The calls of one statement's own expressions, nested blocks left out."""
    stack = list(ast.iter_child_nodes(statement))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.stmt, ast.excepthandler, ast.match_case, ast.Lambda)
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _bindings(node: ast.AST) -> Iterator[Tuple[str, ast.expr]]:
    """``(name, value)`` for each plain name an assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id, node.value


class ClockImportRule(_ImportBoundary, Rule):
    """DET001 — code that cannot name a clock cannot read one."""

    id = "DET001"
    severity = "error"
    description = "wall-clock module imported outside the clock shim"
    hint = (
        "take `now` from the simulation clock (repro.common.clock) or "
        "accept a timestamp parameter instead of reading the wall clock"
    )

    _MODULES = frozenset({"time", "datetime"})
    _HOME = "repro.common.clock"


class EntropyImportRule(_ImportBoundary, Rule):
    """DET002 — entropy sources are importable only by the seeded RNG.

    ``os`` is everywhere, so its two entropy calls are banned by
    attribute name (and as ``from os import urandom``) instead.
    """

    id = "DET002"
    severity = "error"
    description = "entropy source outside repro.common.rng"
    hint = (
        "draw from the seeded generator in repro.common.rng "
        "(DeterministicRandom) so runs replay bit-identically"
    )

    _MODULES = frozenset({"random", "secrets", "uuid"})
    _HOME = "repro.common.rng"
    _OS_ENTROPY = ("urandom", "getrandom")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        super().visit_ImportFrom(node)
        if node.module == "os" and not node.level:
            for alias in node.names:
                if alias.name in self._OS_ENTROPY:
                    self.report(
                        node, f"nondeterministic source `os.{alias.name}`"
                    )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in self._OS_ENTROPY:
            self.report(node, f"nondeterministic source `os.{node.attr}`")


class SharedRngRule(Rule):
    """DET003 — one RNG stream handed to several consumers.

    Within one function (or the module top level): a name bound to a
    ``DeterministicRandom(...)`` call and passed, bare, as an argument.
    ``rng.fork("a")`` is an attribute call, not the bare name, so forked
    streams never count.
    """

    id = "DET003"
    severity = "error"
    description = "DeterministicRandom shared across construction sites"
    hint = (
        "derive one independent stream per consumer with "
        "rng.fork(\"label\") so adding draws in one component cannot "
        "perturb another"
    )

    def visit_FunctionDef(self, scope: ast.AST) -> None:
        roots: Set[str] = set()
        sites: Dict[str, List[Tuple[ast.Call, bool]]] = {}
        for statement, in_loop in _own_statements(scope):
            for name, value in _bindings(statement):
                if (
                    isinstance(value, ast.Call)
                    and _tail(value.func) == "DeterministicRandom"
                ):
                    roots.add(name)
                else:
                    roots.discard(name)
            if not roots:
                continue
            for call in _own_calls(statement):
                for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                    if isinstance(arg, ast.Name) and arg.id in roots:
                        sites.setdefault(arg.id, []).append((call, in_loop))
        for var, calls in sites.items():
            calls.sort(key=lambda site: (site[0].lineno, site[0].col_offset))
            if len(calls) >= 2:
                at, where = calls[1][0], f"across {len(calls)} construction sites"
            elif calls[0][1]:
                at, where = calls[0][0], "inside a loop"
            else:
                continue
            self.report(
                at,
                f"DeterministicRandom `{var}` is passed {where} "
                "without fork(); consumers interleave draws on one stream",
            )

    visit_AsyncFunctionDef = visit_Module = visit_FunctionDef


class UnorderedIterationRule(Rule):
    """DET004 — hash order leaking into order-sensitive state.

    Within one function (or the module top level): a ``for`` whose
    iterable is syntactically a set — or a local last bound to one — and
    whose body calls an order-sensitive sink. ``sorted(s)`` is not a
    set, so sorting is the fix the rule accepts. A set that arrives from
    a helper's return value is invisible here; the two-``PYTHONHASHSEED``
    CI step owns that case (docs/static-analysis.md, "Who owns what").
    """

    id = "DET004"
    severity = "error"
    description = "set iteration order flows into an order-sensitive sink"
    hint = (
        "iterate `sorted(the_set)` (or keep a list/dict, which preserve "
        "insertion order) before feeding heaps, encoders or conflict paths"
    )

    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    #: Builtins that re-shape a collection but keep its iteration order.
    _ORDER_KEEPERS = ("list", "tuple", "iter", "reversed")

    def _is_set(self, node: ast.expr, sets: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in sets
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, self._SET_OPS) and (
                self._is_set(node.left, sets) or self._is_set(node.right, sets)
            )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in self._ORDER_KEEPERS:
                return bool(node.args) and self._is_set(node.args[0], sets)
            return node.func.id in ("set", "frozenset")
        return isinstance(node, (ast.Set, ast.SetComp))

    @staticmethod
    def _order_sink(loop: ast.For) -> Optional[str]:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = _tail(node.func)
                if name in ("heappush", "heappush_max", "heapify"):
                    return f"heapq.{name}"
                if name == "conflict_path":
                    return name
                if isinstance(node.func, ast.Attribute) and name.startswith(
                    "encode"
                ):
                    return f"wire encoder .{name}()"
        return None

    def visit_FunctionDef(self, scope: ast.AST) -> None:
        sets: Set[str] = set()
        for node, _ in _own_statements(scope):
            for name, value in _bindings(node):
                if self._is_set(value, sets):
                    sets.add(name)
                else:
                    sets.discard(name)
            if isinstance(node, (ast.For, ast.AsyncFor)) and self._is_set(
                node.iter, sets
            ):
                sink = self._order_sink(node)
                if sink is not None:
                    self.report(
                        node,
                        f"iterating set `{ast.unparse(node.iter)}` feeds "
                        f"`{sink}`, whose result depends on hash order",
                    )

    visit_AsyncFunctionDef = visit_Module = visit_FunctionDef


class MutableDefaultRule(Rule):
    """PY001 — mutable default arguments."""

    id = "PY001"
    severity = "error"
    description = "mutable default argument"
    hint = "default to None and create the container inside the function"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict"}

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _tail(node.func) in self._MUTABLE_CALLS
        return False

    def _check(self, node: ast.AST, args: ast.arguments) -> None:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if self._is_mutable(default):
                self.report(
                    default,
                    "mutable default argument is shared across calls",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node, node.args)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node, node.args)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node, node.args)


class BareExceptRule(Rule):
    """PY002 — bare ``except:`` swallows KeyboardInterrupt/SystemExit."""

    id = "PY002"
    severity = "error"
    description = "bare except clause"
    hint = "catch Exception (or something narrower) explicitly"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare `except:` catches SystemExit too")


class PrintRule(Rule):
    """PY003 — print in library code; observability goes through obs."""

    id = "PY003"
    severity = "warning"
    description = "print() in library code"
    hint = (
        "emit through the obs facade (obs.event / metrics) or return the "
        "text to the CLI layer"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.report(node, "print() bypasses the observability layer")


class ObsNameRule(Rule):
    """OBS001 — an obs name is a string literal from the catalog.

    The name slot of a call on something that looks like the obs facade
    must be a literal declared in ``repro/obs/names.py``; a variable, a
    table lookup or a forwarded parameter is itself the finding, so no
    name reaches the facade unread. The facade's own forwarding methods
    (``obs/__init__.py``) are exempt by path; what arrives there from
    outside the linted tree is the registry's runtime ``KeyError``.
    """

    id = "OBS001"
    severity = "error"
    description = "obs name not declared in repro/obs/names.py"
    hint = (
        "pass the name as a string literal declared with an "
        "EventSpec/MetricSpec in repro/obs/names.py"
    )

    _RECEIVERS = {"obs", "_obs", "metrics", "tracer", "registry"}
    _METRIC = ("metric", "METRICS", frozenset(METRIC_NAMES))
    _EVENT = ("event/span", "EVENTS", frozenset(EVENT_NAMES))
    _SLOTS = {
        "inc": _METRIC, "set_gauge": _METRIC,
        "event": _EVENT, "span": _EVENT,
    }

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in self._SLOTS
            and _tail(func.value) in self._RECEIVERS
        ):
            return
        slot = node.args[:1] or [
            kw.value for kw in node.keywords if kw.arg == "name"
        ]
        if not slot:
            return
        (name,) = slot
        kind, label, catalog = self._SLOTS[func.attr]
        if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
            self.report(
                name,
                f"{kind} name `{ast.unparse(name)}` is not a string literal",
            )
        elif name.value not in catalog:
            self.report(
                name,
                f"{kind} name `{name.value}` is not in the {label} catalog",
            )


class HandWrittenCodecRule(_ImportBoundary, Rule):
    """WIRE001 — wire layouts are declared, not hand-written.

    A record's ``wire_size``/``encode``/``decode`` are derived from one
    ``repro.common.wire`` field table, which is what keeps the three
    symmetric and every field costed. Only codec-shaped methods count —
    ``encode(self)`` and a class-level ``decode`` — so an algorithm such
    as a delta backend's ``encode(self, base, target)`` is left alone.
    A codec written as plain functions has no class to inspect, so the
    rule also flags its raw material: importing ``struct`` anywhere but
    ``common/wire.py`` (exempt by path), the one module that packs bytes.
    """

    id = "WIRE001"
    severity = "error"
    description = "hand-written wire codec instead of a field table"
    hint = (
        "declare the layout once with @wire.record(...) (or a wire.Schema) "
        "from repro.common.wire and let it derive the method"
    )

    _MODULES = frozenset({"struct"})
    _HOME = "repro.common.wire"

    @staticmethod
    def _is_codec(func: ast.FunctionDef) -> bool:
        args = func.args
        params = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
        class_level = any(
            ast.unparse(d) in ("classmethod", "staticmethod")
            for d in func.decorator_list
        )
        return (
            func.name == "wire_size"
            or (func.name == "encode" and params == 1)
            or (func.name == "decode" and class_level)
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and self._is_codec(stmt):
                self.report(stmt, f"{node.name}.{stmt.name} is written by hand")


#: Registry, in report order. The engine iterates this.
ALL_RULES: Tuple[Type[Rule], ...] = (
    ClockImportRule,
    EntropyImportRule,
    SharedRngRule,
    UnorderedIterationRule,
    MutableDefaultRule,
    BareExceptRule,
    PrintRule,
    ObsNameRule,
    HandWrittenCodecRule,
)

RULES_BY_ID: Dict[str, Type[Rule]] = {rule.id: rule for rule in ALL_RULES}
