"""The static rule catalog: one AST visitor class per rule.

Every rule is an :class:`ast.NodeVisitor` subclass with a stable ``id``,
a default ``severity``, a one-line ``description`` and an autofix
``hint``. The engine (:mod:`repro.check.linter`) instantiates a rule per
file, runs ``visit(tree)`` and collects ``rule.findings``.

The catalog enforces the determinism and protocol-hygiene contract of
this repository:

========  =========  ====================================================
id        severity   what it flags
========  =========  ====================================================
DET001    error      wall-clock reads (``time.time``, ``datetime.now``,
                     argless ``today`` ...) outside the clock shim
DET002    error      unseeded randomness (module-level ``random.*``,
                     ``os.urandom``, ``uuid.uuid1/4``, ``secrets``)
                     outside ``repro.common.rng``
PY001     error      mutable default arguments
PY002     error      bare ``except:`` clauses
PY003     warning    ``print`` in library code (CLI/render exempt)
OBS001    error      ``obs.event``/``obs.span``/metric name literals that
                     do not resolve against the catalog in
                     ``repro/obs/names.py``
WIRE001   error      a class that hand-writes ``wire_size`` or a byte-level
                     ``encode``/``decode`` instead of declaring a
                     ``repro.common.wire`` field table
========  =========  ====================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple, Type

from repro.check.findings import Finding
from repro.obs.names import EVENT_NAMES, METRIC_NAMES


class Rule(ast.NodeVisitor):
    """Base class: subclasses set the class attributes and report()."""

    id: str = ""
    severity: str = "error"
    description: str = ""
    hint: str = ""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []

    def report(
        self, node: ast.AST, message: str, hint: Optional[str] = None
    ) -> None:
        self.findings.append(
            Finding(
                rule=self.id,
                severity=self.severity,
                path=self.path,
                line=getattr(node, "lineno", 0),
                message=message,
                hint=self.hint if hint is None else hint,
            )
        )


class _ImportTracking(Rule):
    """Shared import-alias bookkeeping for module-sensitive rules.

    ``self.module_alias`` maps a local name to the module it refers to
    (``import time as t`` -> ``{"t": "time"}``); ``self.from_alias`` maps
    a local name to its fully qualified origin (``from time import time
    as now`` -> ``{"now": "time.time"}``).
    """

    #: Modules the subclass cares about; others are not tracked.
    modules: Tuple[str, ...] = ()

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self.module_alias: Dict[str, str] = {}
        self.from_alias: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.modules:
                self.module_alias[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in self.modules:
            for alias in node.names:
                local = alias.asname or alias.name
                self.from_alias[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _qualify(self, func: ast.expr) -> Optional[str]:
        """Resolve a call target to a dotted origin, or None."""
        if isinstance(func, ast.Name):
            return self.from_alias.get(func.id)
        if isinstance(func, ast.Attribute):
            base = self._qualify_base(func.value)
            if base is not None:
                return f"{base}.{func.attr}"
        return None

    def _qualify_base(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self.module_alias:
                return self.module_alias[node.id]
            return self.from_alias.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._qualify_base(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


class WallClockRule(_ImportTracking):
    """DET001 — replay-breaking wall-clock reads."""

    id = "DET001"
    severity = "error"
    description = "wall-clock call in deterministic code"
    hint = (
        "take `now` from the simulation clock (repro.common.clock) or "
        "accept a timestamp parameter instead of reading the wall clock"
    )
    modules = ("time", "datetime")

    _BANNED = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def visit_Call(self, node: ast.Call) -> None:
        origin = self._qualify(node.func)
        if origin in self._BANNED:
            self.report(node, f"wall-clock call `{origin}`")
        self.generic_visit(node)


class UnseededRandomRule(_ImportTracking):
    """DET002 — nondeterministic entropy sources."""

    id = "DET002"
    severity = "error"
    description = "unseeded randomness outside repro.common.rng"
    hint = (
        "draw from the seeded generator in repro.common.rng (or a "
        "random.Random(seed) instance) so runs replay bit-identically"
    )
    modules = ("random", "secrets", "os", "uuid")

    #: Qualified names that are fine: seeded-generator constructors.
    _ALLOWED = {"random.Random"}
    _BANNED_EXACT = {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }

    def visit_Call(self, node: ast.Call) -> None:
        origin = self._qualify(node.func)
        if origin is not None and origin not in self._ALLOWED:
            if origin in self._BANNED_EXACT:
                self.report(node, f"nondeterministic source `{origin}`")
            elif origin.startswith("random."):
                self.report(
                    node,
                    f"module-level `{origin}` uses the shared unseeded "
                    "generator",
                )
            elif origin.startswith("secrets."):
                self.report(node, f"nondeterministic source `{origin}`")
        self.generic_visit(node)


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
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            return name in self._MUTABLE_CALLS
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
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node, node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node, node.args)
        self.generic_visit(node)


class BareExceptRule(Rule):
    """PY002 — bare ``except:`` swallows KeyboardInterrupt/SystemExit."""

    id = "PY002"
    severity = "error"
    description = "bare except clause"
    hint = "catch Exception (or something narrower) explicitly"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare `except:` catches SystemExit too")
        self.generic_visit(node)


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
        self.generic_visit(node)


class ObsNameRule(Rule):
    """OBS001 — obs name literals must exist in the names.py catalog.

    Checks calls whose receiver's last segment looks like an obs facade
    (``obs``, ``self.obs``, ``metrics``, ``tracer``, ``registry``) and
    whose method is one of the facade's five name-taking methods. Only
    string-literal first arguments are checked; dynamic names are the
    Tracer's runtime validation problem.
    """

    id = "OBS001"
    severity = "error"
    description = "obs name not declared in repro/obs/names.py"
    hint = (
        "declare the name with an EventSpec/MetricSpec in "
        "repro/obs/names.py (and document it in docs/observability.md)"
    )

    _RECEIVERS = {"obs", "_obs", "metrics", "tracer", "registry"}
    _METRIC_METHODS = {"inc", "set_gauge", "observe"}
    _EVENT_METHODS = {"event", "span"}

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            tail = (
                receiver.id
                if isinstance(receiver, ast.Name)
                else getattr(receiver, "attr", None)
            )
            if tail in self._RECEIVERS and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    name = first.value
                    if func.attr in self._METRIC_METHODS:
                        if name not in METRIC_NAMES:
                            self.report(
                                first,
                                f"metric name `{name}` is not in the "
                                "METRICS catalog",
                            )
                    elif func.attr in self._EVENT_METHODS:
                        if name not in EVENT_NAMES:
                            self.report(
                                first,
                                f"event/span name `{name}` is not in the "
                                "EVENTS catalog",
                            )
        self.generic_visit(node)


class HandWrittenCodecRule(Rule):
    """WIRE001 — wire layouts are declared, not hand-written.

    A record's ``wire_size``/``encode``/``decode`` are derived from one
    ``repro.common.wire`` field table, which is what keeps the three
    symmetric and every field costed. Only codec-shaped methods count —
    ``encode(self)`` and a class-level ``decode`` — so an algorithm such
    as a delta backend's ``encode(self, base, target)`` is left alone.
    """

    id = "WIRE001"
    severity = "error"
    description = "hand-written wire codec instead of a field table"
    hint = (
        "declare the layout once with @wire.record(...) (or a wire.Schema) "
        "from repro.common.wire and let it derive the method"
    )

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
        self.generic_visit(node)


#: Registry, in report order. The engine iterates this.
ALL_RULES: Tuple[Type[Rule], ...] = (
    WallClockRule,
    UnseededRandomRule,
    MutableDefaultRule,
    BareExceptRule,
    PrintRule,
    ObsNameRule,
    HandWrittenCodecRule,
)

RULES_BY_ID: Dict[str, Type[Rule]] = {rule.id: rule for rule in ALL_RULES}
