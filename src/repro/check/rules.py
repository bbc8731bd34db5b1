"""The lint rule catalog: one class per rule id.

Every rule has a stable ``id``, a default ``severity``, a one-line
``description`` and an autofix ``hint``. The engine
(:mod:`repro.check.linter`) instantiates each rule once per module and
feeds it two ways, both over the module's one parsed tree:

* **node handlers** — a method named ``visit_<NodeType>`` is called for
  every node of that type during the engine's single tree walk (the
  engine recurses; handlers do not);
* **flow observations** — :meth:`Rule.observe` receives what the
  dataflow pass (:mod:`repro.check.dataflow`) saw in the module: clock
  calls however the callable got there, obs names however they were
  spelled, shared RNG streams, set iteration reaching ordered sinks.

The catalog enforces the determinism and protocol-hygiene contract of
this repository:

========  =========  ====================================================
id        severity   what it flags
========  =========  ====================================================
DET001    error      wall-clock reads (``time.time``, ``datetime.now``,
                     argless ``today`` ...) outside the clock shim —
                     called directly, through a local, module-level or
                     attribute binding, or passed into a parameter the
                     callee invokes
DET002    error      unseeded randomness (module-level ``random.*``,
                     ``os.urandom``, ``uuid.uuid1/4``, ``secrets``)
                     outside ``repro.common.rng``
DET003    error      a ``DeterministicRandom`` instance shared across
                     construction sites without ``fork()`` — consumers
                     interleave draws on one stream, so adding a draw in
                     one component perturbs every other
DET004    error      iteration over a ``set`` flowing into an
                     order-sensitive sink (fleet event heap, wire
                     encoders, ``conflict_path``)
PY001     error      mutable default arguments
PY002     error      bare ``except:`` clauses
PY003     warning    ``print`` in library code (CLI/render exempt)
OBS001    error      ``obs.event``/``obs.span``/metric names that do not
                     resolve against the catalog in ``repro/obs/names.py``
                     — string literals, module constants, dict-literal
                     lookups, and parameters a helper forwards into
                     ``obs.inc``/``obs.event``
WIRE001   error      a class that hand-writes ``wire_size`` or a byte-level
                     ``encode``/``decode`` instead of declaring a
                     ``repro.common.wire`` field table, or an ``import
                     struct`` outside ``common/wire.py``
========  =========  ====================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple, Type

from repro.check.dataflow import Observations
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

    def observe(self, obs: Observations) -> None:
        """Report from the module's dataflow observations (flow rules)."""


class FlowClockRule(Rule):
    """DET001 — replay-breaking wall-clock reads, however reached."""

    id = "DET001"
    severity = "error"
    description = "wall-clock call in deterministic code"
    hint = (
        "take `now` from the simulation clock (repro.common.clock) or "
        "accept a timestamp parameter instead of reading the wall clock"
    )

    def observe(self, obs: Observations) -> None:
        for call in obs.clock_calls:
            self.report(
                call.node,
                f"wall-clock `{call.origin}` called through a local or "
                "attribute binding"
                if call.via_flow
                else f"wall-clock call `{call.origin}`",
            )
        for arg in obs.clock_args:
            self.report(
                arg.node,
                f"wall-clock `{arg.origin}` passed into parameter "
                f"`{arg.param}` of `{arg.callee}`, which calls it",
            )


class UnseededRandomRule(Rule):
    """DET002 — nondeterministic entropy sources.

    ``self.module_alias`` maps a local name to the module it refers to
    (``import random as r`` -> ``{"r": "random"}``); ``self.from_alias``
    maps a local name to its fully qualified origin (``from random
    import randint as roll`` -> ``{"roll": "random.randint"}``).
    """

    id = "DET002"
    severity = "error"
    description = "unseeded randomness outside repro.common.rng"
    hint = (
        "draw from the seeded generator in repro.common.rng (or a "
        "random.Random(seed) instance) so runs replay bit-identically"
    )

    _MODULES = ("random", "secrets", "os", "uuid")
    #: Qualified names that are fine: seeded-generator constructors.
    _ALLOWED = {"random.Random"}
    _BANNED_EXACT = {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self.module_alias: Dict[str, str] = {}
        self.from_alias: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self._MODULES:
                self.module_alias[alias.asname or alias.name] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in self._MODULES:
            for alias in node.names:
                local = alias.asname or alias.name
                self.from_alias[local] = f"{node.module}.{alias.name}"

    def _origin(self, node: ast.expr, base: bool = False) -> Optional[str]:
        """Resolve a call target (or the base of one) to a dotted origin."""
        if isinstance(node, ast.Name):
            if base and node.id in self.module_alias:
                return self.module_alias[node.id]
            return self.from_alias.get(node.id)
        if isinstance(node, ast.Attribute):
            root = self._origin(node.value, base=True)
            if root is not None:
                return f"{root}.{node.attr}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        origin = self._origin(node.func)
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


class FlowObsNameRule(Rule):
    """OBS001 — obs names must exist in the names.py catalog.

    Checks every name the dataflow pass could resolve statically in the
    name slot of an obs facade call; names it cannot resolve are the
    Tracer's runtime validation problem.
    """

    id = "OBS001"
    severity = "error"
    description = "obs name not declared in repro/obs/names.py"
    hint = (
        "declare the name with an EventSpec/MetricSpec in "
        "repro/obs/names.py (and document it in docs/observability.md)"
    )

    def observe(self, obs: Observations) -> None:
        for name in obs.obs_names:
            metric = name.kind == "metric"
            catalog = METRIC_NAMES if metric else EVENT_NAMES
            label = "METRICS" if metric else "EVENTS"
            bad = sorted(v for v in name.values if v not in catalog)
            if not bad:
                continue
            if name.literal:
                kind = "metric" if metric else "event/span"
                message = f"{kind} name `{bad[0]}` is not in the {label} catalog"
            else:
                message = (
                    f"{name.kind} name resolves to "
                    + ", ".join(f"`{v}`" for v in bad)
                    + f" — not in the {label} catalog"
                )
            self.report(name.node, message)


class SharedRngRule(Rule):
    """DET003 — one RNG stream handed to several consumers."""

    id = "DET003"
    severity = "error"
    description = "DeterministicRandom shared across construction sites"
    hint = (
        "derive one independent stream per consumer with "
        "rng.fork(\"label\") so adding draws in one component cannot "
        "perturb another"
    )

    def observe(self, obs: Observations) -> None:
        for share in obs.rng_shares:
            where = (
                "inside a loop"
                if share.in_loop
                else f"across {share.sites} construction sites"
            )
            self.report(
                share.node,
                f"DeterministicRandom `{share.var}` is passed {where} "
                "without fork(); consumers interleave draws on one stream",
            )


class UnorderedIterationRule(Rule):
    """DET004 — hash order leaking into order-sensitive state."""

    id = "DET004"
    severity = "error"
    description = "set iteration order flows into an order-sensitive sink"
    hint = (
        "iterate `sorted(the_set)` (or keep a list/dict, which preserve "
        "insertion order) before feeding heaps, encoders or conflict paths"
    )

    def observe(self, obs: Observations) -> None:
        for sink in obs.set_sinks:
            self.report(
                sink.node,
                f"iterating set `{sink.iterable}` feeds `{sink.sink}`, "
                "whose result depends on hash order",
            )


class HandWrittenCodecRule(Rule):
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

    _STRUCT = "`struct` is imported outside repro.common.wire"

    def visit_Import(self, node: ast.Import) -> None:
        if any(alias.name == "struct" for alias in node.names):
            self.report(node, self._STRUCT)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "struct" and not node.level:
            self.report(node, self._STRUCT)


#: Registry, in report order. The engine iterates this.
ALL_RULES: Tuple[Type[Rule], ...] = (
    FlowClockRule,
    UnseededRandomRule,
    SharedRngRule,
    UnorderedIterationRule,
    MutableDefaultRule,
    BareExceptRule,
    PrintRule,
    FlowObsNameRule,
    HandWrittenCodecRule,
)

RULES_BY_ID: Dict[str, Type[Rule]] = {rule.id: rule for rule in ALL_RULES}
