"""Flow-sensitive intraprocedural dataflow for the flow rules.

One forward pass per scope tracks a small abstract domain — just rich
enough for the determinism rules:

==============  ========================================================
abstract value  meaning
==============  ========================================================
``MODULE``      the name is bound to a module (``t = time``) or another
                imported dotted origin (``from datetime import datetime``)
``CLOCK_FN``    a *reference* to a banned wall-clock callable
                (``now = time.time`` — note: not called yet)
``RNG_ROOT``    an un-forked ``DeterministicRandom`` instance
``RNG_FORKED``  the result of ``.fork(label)`` — an independent stream
``SET``         an unordered collection (set/frozenset, and values that
                merely re-shape one: ``list(s)`` keeps the taint,
                ``sorted(s)`` clears it)
``STR``         a known string constant
``STR_CHOICE``  one of several known strings (a dict-literal subscript
                whose values are all string constants)
==============  ========================================================

Branches analyze both arms from a copy of the environment and merge by
agreement (conflicting bindings drop to unknown); loop bodies are
analyzed once with an ``in_loop`` flag — enough precision for the
rules, which all key on "was this value *created* unordered/unforked",
not on loop fixpoints.

Every scope of a module gets a pass — the top level, each function and
method at any nesting depth, each class body — and every statement kind
is walked, so each ``Call`` node in the module is seen exactly once.

The pass does not report findings itself; it collects typed
*observations* that the flow rules in :mod:`repro.check.rules` turn
into findings. A :class:`ClockCall` carries ``via_flow`` (False when
import aliases alone explain the callee) and an :class:`ObsName`
carries ``literal`` because the rules word those findings differently.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.check.callgraph import (
    EVENT_METHODS,
    METRIC_METHODS,
    OBS_RECEIVERS,
    CallGraph,
    FunctionInfo,
)
from repro.check.project import ModuleInfo
from repro.check.symbols import SymbolTable

#: The wall-clock callables DET001 bans outside the clock shim.
BANNED_CLOCKS = {
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

#: Builtins whose result forgets iteration order (clears SET taint).
_ORDER_FIXERS = {"sorted", "min", "max", "sum", "len", "any", "all"}
#: Builtins that re-shape a collection but keep its iteration order.
_ORDER_KEEPERS = {"list", "tuple", "iter", "reversed"}

_HEAP_SINKS = {"heapq.heappush", "heapq.heappush_max", "heapq.heapify"}


@dataclass(frozen=True)
class Value:
    kind: str  # MODULE | CLOCK_FN | RNG_ROOT | RNG_FORKED | SET | STR | STR_CHOICE
    payload: Tuple[str, ...] = ()
    #: False for names a function-local ``import`` bound: calling through
    #: them is as direct as calling through a module-level import.
    via_flow: bool = True


@dataclass
class ClockCall:
    node: ast.AST
    origin: str
    via_flow: bool


@dataclass
class ClockArg:
    node: ast.AST
    origin: str
    callee: str
    param: str


@dataclass
class RngShare:
    node: ast.AST
    var: str
    sites: int
    in_loop: bool


@dataclass
class SetSink:
    node: ast.AST
    iterable: str
    sink: str


@dataclass
class ObsName:
    node: ast.AST
    kind: str  # "metric" | "event"
    values: Tuple[str, ...]
    literal: bool


@dataclass
class Observations:
    clock_calls: List[ClockCall] = field(default_factory=list)
    clock_args: List[ClockArg] = field(default_factory=list)
    rng_shares: List[RngShare] = field(default_factory=list)
    set_sinks: List[SetSink] = field(default_factory=list)
    obs_names: List[ObsName] = field(default_factory=list)


def analyze_module(module: ModuleInfo, graph: CallGraph) -> Observations:
    """Run the dataflow pass over every scope of one module."""
    obs = Observations()
    if module.tree is not None:
        _FlowPass(module, graph, graph.table(module), obs).run(
            module.tree.body
        )
    return obs


def _class_attr_env(
    cls: ast.ClassDef, table: SymbolTable
) -> Dict[str, Value]:
    """``self.X`` bindings that carry clock/RNG values, class-wide."""
    attrs: Dict[str, Value] = {}
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = node.value
            if isinstance(value, (ast.Name, ast.Attribute)):
                origin = table.resolve_expr(value)
                if origin in BANNED_CLOCKS:
                    attrs[target.attr] = Value("CLOCK_FN", (origin,))
            elif _is_rng_ctor(value, table):
                attrs[target.attr] = Value("RNG_ROOT", (target.attr,))
    return attrs


def _is_rng_ctor(node: ast.expr, table: SymbolTable) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "DeterministicRandom":
        return True
    origin = table.resolve_expr(func)
    return origin is not None and origin.endswith(".DeterministicRandom")


class _FlowPass:
    """One scope's forward pass."""

    def __init__(
        self,
        module: ModuleInfo,
        graph: CallGraph,
        table: SymbolTable,
        obs: Observations,
        params: Tuple[str, ...] = (),
        self_attrs: Optional[Dict[str, Value]] = None,
    ) -> None:
        self.module = module
        self.graph = graph
        self.table = table
        self.obs = obs
        self.params = set(params)
        self.self_attrs = self_attrs or {}
        # var -> [(call node, in_loop)] — RNG_ROOT values handed away.
        self.rng_sites: Dict[str, List[Tuple[ast.AST, bool]]] = {}

    # -- entry -------------------------------------------------------------

    def run(self, body: List[ast.stmt]) -> None:
        env: Dict[str, Value] = {}
        self._exec(body, env, in_loop=False)
        # Un-forked RNG instances shared across >= 2 sites (or one site
        # that a loop re-executes) — report once per variable.
        for var, sites in self.rng_sites.items():
            looped = [s for s in sites if s[1]]
            if len(sites) >= 2:
                self.obs.rng_shares.append(
                    RngShare(sites[1][0], var, len(sites), False)
                )
            elif looped:
                self.obs.rng_shares.append(
                    RngShare(looped[0][0], var, len(sites), True)
                )

    def _nested(
        self,
        scope: ast.stmt,
        env: Dict[str, Value],
        params: Tuple[str, ...] = (),
        self_attrs: Optional[Dict[str, Value]] = None,
    ) -> None:
        """A def/class: header expressions here, the body in its own pass."""
        for child in ast.iter_child_nodes(scope):
            if not isinstance(child, ast.stmt):
                self._visit(child, env, False)
        _FlowPass(
            self.module, self.graph, self.table, self.obs, params,
            self.self_attrs if self_attrs is None else self_attrs,
        ).run(scope.body)

    # -- statement walk ----------------------------------------------------

    def _exec(
        self, stmts: List[ast.stmt], env: Dict[str, Value], in_loop: bool
    ) -> None:
        for stmt in stmts:
            self._stmt(stmt, env, in_loop)

    def _visit(
        self, node: ast.AST, env: Dict[str, Value], in_loop: bool
    ) -> None:
        """Any node: statements execute, expressions are scanned for calls."""
        if isinstance(node, ast.stmt):
            self._stmt(node, env, in_loop)
        elif isinstance(node, ast.expr):
            self._expr(node, env, in_loop)
        else:  # withitem, match_case, arguments, keyword, pattern ...
            for child in ast.iter_child_nodes(node):
                self._visit(child, env, in_loop)

    def _stmt(
        self, stmt: ast.stmt, env: Dict[str, Value], in_loop: bool
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for child in ast.iter_child_nodes(stmt):
                self._expr(child, env, in_loop)
            value = stmt.value
            if value is None:
                return
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            abstract = self._classify(value, env)
            if abstract is not None and not abstract.via_flow:
                abstract = replace(abstract, via_flow=True)  # now a binding
            for target in targets:
                if isinstance(target, ast.Name):
                    if abstract is not None:
                        env[target.id] = abstract
                    else:
                        env.pop(target.id, None)
        elif isinstance(stmt, ast.If):
            then_env = dict(env)
            else_env = dict(env)
            self._expr(stmt.test, env, in_loop)
            self._exec(stmt.body, then_env, in_loop)
            self._exec(stmt.orelse, else_env, in_loop)
            env.clear()
            env.update(_merge(then_env, else_env))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, env, in_loop)
            self._expr(stmt.target, env, in_loop)
            self._check_set_iteration(stmt, env)
            body_env = dict(env)
            if isinstance(stmt.target, ast.Name):
                body_env.pop(stmt.target.id, None)
            self._exec(stmt.body, body_env, in_loop=True)
            self._exec(stmt.orelse, env, in_loop)
            merged = _merge(body_env, env)  # loop may run zero times
            env.clear()
            env.update(merged)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, env, in_loop)
            body_env = dict(env)
            self._exec(stmt.body, body_env, in_loop=True)
            self._exec(stmt.orelse, env, in_loop)
        elif isinstance(stmt, ast.Try):
            self._exec(stmt.body, env, in_loop)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self._expr(handler.type, env, in_loop)
                self._exec(handler.body, dict(env), in_loop)
            self._exec(stmt.orelse, env, in_loop)
            self._exec(stmt.finalbody, env, in_loop)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = stmt.args
            self._nested(stmt, env, tuple(
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            ))
        elif isinstance(stmt, ast.ClassDef):
            self._nested(
                stmt, env, self_attrs=_class_attr_env(stmt, self.table)
            )
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                # `import x.y` binds `x`, which refers to module `x`.
                name = alias.name if alias.asname else alias.name.split(".")[0]
                env[alias.asname or name] = Value("MODULE", (name,), False)
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                return  # relative imports: not resolved, stay silent
            for alias in stmt.names:
                origin = f"{stmt.module}.{alias.name}"
                kind = "CLOCK_FN" if origin in BANNED_CLOCKS else "MODULE"
                env[alias.asname or alias.name] = Value(kind, (origin,), False)
        else:  # with, return, raise, expression and the other simple kinds
            for child in ast.iter_child_nodes(stmt):
                self._visit(child, env, in_loop)

    # -- expression walk ---------------------------------------------------

    def _expr(
        self, node: ast.expr, env: Dict[str, Value], in_loop: bool
    ) -> None:
        """Visit an expression for *effects* (calls), recursively."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub, env, in_loop)

    def _call(
        self, call: ast.Call, env: Dict[str, Value], in_loop: bool
    ) -> None:
        func = call.func
        origin, via_flow = self._origin_of(func, env)
        # 1. Wall-clock call: direct, or through an alias or stored
        #    reference (_origin_of already sees env-bound CLOCK_FN values).
        if origin in BANNED_CLOCKS:
            self.obs.clock_calls.append(ClockCall(call, origin, via_flow))
        # 2. Obs facade call with a statically resolvable name.
        self._check_obs_call(call, env)
        # 3. Interprocedural: arguments flowing into summarized params.
        callee = self.graph.resolve_call(self.module, call)
        if callee is not None:
            self._check_callee_args(call, callee, env)
        # 4. RNG sharing: an un-forked root handed to any callee.
        self._note_rng_args(call, env, in_loop)

    def _check_obs_call(
        self, call: ast.Call, env: Dict[str, Value]
    ) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and call.args):
            return
        receiver = func.value
        tail = (
            receiver.id
            if isinstance(receiver, ast.Name)
            else getattr(receiver, "attr", None)
        )
        if tail not in OBS_RECEIVERS:
            return
        if func.attr in METRIC_METHODS:
            kind = "metric"
        elif func.attr in EVENT_METHODS:
            kind = "event"
        else:
            return
        first = call.args[0]
        values = self._string_values(first, env)
        if values:
            self.obs.obs_names.append(
                ObsName(first, kind, values, isinstance(first, ast.Constant))
            )

    def _check_callee_args(
        self, call: ast.Call, callee: FunctionInfo, env: Dict[str, Value]
    ) -> None:
        for param in callee.calls_params:
            arg = self.graph.argument_for_param(callee, call, param)
            if arg is None or not isinstance(arg, (ast.Name, ast.Attribute)):
                continue
            origin, _ = self._origin_of(arg, env)
            if origin is None and isinstance(arg, ast.Name):
                bound = env.get(arg.id)
                if bound is not None and bound.kind == "CLOCK_FN":
                    origin = bound.payload[0]
            if origin in BANNED_CLOCKS:
                self.obs.clock_args.append(
                    ClockArg(call, origin, callee.qualname, param)
                )
        for param in callee.metric_name_params | callee.event_name_params:
            arg = self.graph.argument_for_param(callee, call, param)
            if arg is None:
                continue
            values = self._string_values(arg, env)
            if values:
                kind = (
                    "metric"
                    if param in callee.metric_name_params
                    else "event"
                )
                self.obs.obs_names.append(
                    ObsName(arg, kind, values, False)
                )

    def _note_rng_args(
        self, call: ast.Call, env: Dict[str, Value], in_loop: bool
    ) -> None:
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            if not isinstance(arg, ast.Name):
                continue
            bound = env.get(arg.id)
            if bound is not None and bound.kind == "RNG_ROOT":
                self.rng_sites.setdefault(arg.id, []).append(
                    (call, in_loop)
                )

    def _check_set_iteration(
        self, stmt: ast.For, env: Dict[str, Value]
    ) -> None:
        value = self._classify(stmt.iter, env)
        if value is None or value.kind != "SET":
            return
        sink = self._find_order_sink(stmt.body)
        if sink is not None:
            self.obs.set_sinks.append(
                SetSink(stmt, _describe(stmt.iter), sink)
            )

    def _find_order_sink(self, body: List[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                origin = self.table.resolve_expr(func)
                if origin in _HEAP_SINKS:
                    return origin
                if isinstance(func, ast.Name):
                    if func.id in ("heappush", "heapify"):
                        return f"heapq.{func.id}"
                    if func.id == "conflict_path" or (
                        origin is not None
                        and origin.endswith(".conflict_path")
                    ):
                        return "conflict_path"
                if isinstance(func, ast.Attribute) and func.attr in (
                    "encode", "encode_node", "encode_record"
                ):
                    return f"wire encoder .{func.attr}()"
        return None

    # -- classification ----------------------------------------------------

    def _origin_of(
        self, node: ast.expr, env: Dict[str, Value]
    ) -> Tuple[Optional[str], bool]:
        """Dotted origin of a Name/Attribute chain, and how it resolved.

        ``via_flow`` is False when import aliases alone explain the
        origin — a direct call.
        """
        if isinstance(node, ast.Name):
            bound = env.get(node.id)
            if bound is not None:
                if bound.kind in ("MODULE", "CLOCK_FN"):
                    return bound.payload[0], bound.via_flow
                return None, True
            direct = self.table.from_alias.get(
                node.id
            ) or self.table.module_alias.get(node.id)
            if direct is not None:
                return direct, False
            resolved = self.table.resolve_name(node.id)
            if resolved is not None:
                return resolved, True  # via value_alias chains
            return None, False
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.self_attrs
            ):
                bound = self.self_attrs[node.attr]
                if bound.kind == "CLOCK_FN":
                    return bound.payload[0], True
                return None, True
            base, via_flow = self._origin_of(node.value, env)
            if base is not None:
                return f"{base}.{node.attr}", via_flow
        return None, False

    def _classify(
        self, node: ast.expr, env: Dict[str, Value]
    ) -> Optional[Value]:
        if isinstance(node, ast.Name):
            bound = env.get(node.id)
            if bound is not None:
                return bound
            if node.id in self.params:
                return None
            origin = self.table.resolve_name(node.id)
            if origin in BANNED_CLOCKS:
                return Value("CLOCK_FN", (origin,))
            if origin is not None and origin in self.table.module_alias.values():
                return Value("MODULE", (origin,))
            const = self.table.constant_value(node.id)
            if isinstance(const, str):
                return Value("STR", (const,))
            choice = self.table.str_choice(node.id)
            if choice is not None:
                return Value("STR_CHOICE", choice)
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return Value("STR", (node.value,))
            return None
        if isinstance(node, (ast.Set, ast.SetComp)):
            return Value("SET")
        if isinstance(node, ast.Attribute):
            origin = self.table.resolve_expr(node)
            if origin in BANNED_CLOCKS:
                return Value("CLOCK_FN", (origin,))
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.self_attrs
            ):
                return self.self_attrs[node.attr]
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self._classify(node.left, env)
            right = self._classify(node.right, env)
            if (left is not None and left.kind == "SET") or (
                right is not None and right.kind == "SET"
            ):
                return Value("SET")
            return None
        if isinstance(node, ast.Subscript):
            base = self._classify(node.value, env)
            if base is not None and base.kind == "STR_CHOICE":
                return base
            return None
        if isinstance(node, ast.Dict):
            values: List[str] = []
            for v in node.values:
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    values.append(v.value)
                else:
                    return None
            if values:
                return Value("STR_CHOICE", tuple(values))
            return None
        if isinstance(node, ast.IfExp):
            then = self._classify(node.body, env)
            other = self._classify(node.orelse, env)
            if then is not None and other is not None:
                strs = _string_payloads(then) + _string_payloads(other)
                if strs and len(strs) == len(then.payload) + len(
                    other.payload
                ):
                    return Value("STR_CHOICE", tuple(strs))
                if then.kind == other.kind:
                    return then
            return None
        if isinstance(node, ast.Call):
            return self._classify_call(node, env)
        return None

    def _classify_call(
        self, call: ast.Call, env: Dict[str, Value]
    ) -> Optional[Value]:
        func = call.func
        if _is_rng_ctor(call, self.table):
            return Value("RNG_ROOT")
        if isinstance(func, ast.Attribute) and func.attr == "fork":
            receiver = self._classify(func.value, env)
            if receiver is not None and receiver.kind in (
                "RNG_ROOT", "RNG_FORKED"
            ):
                return Value("RNG_FORKED")
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                return Value("SET")
            if func.id in _ORDER_FIXERS:
                return None
            if func.id in _ORDER_KEEPERS and call.args:
                inner = self._classify(call.args[0], env)
                if inner is not None and inner.kind == "SET":
                    return Value("SET")
                return None
        if isinstance(func, ast.Attribute) and func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
            "copy",
        ):
            receiver = self._classify(func.value, env)
            if receiver is not None and receiver.kind == "SET":
                return Value("SET")
        callee = self.graph.resolve_call(self.module, call)
        if callee is not None and callee.returns_set:
            return Value("SET")
        return None

    def _string_values(
        self, node: ast.expr, env: Dict[str, Value]
    ) -> Tuple[str, ...]:
        value = self._classify(node, env)
        if value is None:
            return ()
        if value.kind in ("STR", "STR_CHOICE"):
            return value.payload
        return ()


def _string_payloads(value: Value) -> List[str]:
    if value.kind in ("STR", "STR_CHOICE"):
        return list(value.payload)
    return []


def _merge(a: Dict[str, Value], b: Dict[str, Value]) -> Dict[str, Value]:
    """Join two branch environments: keep only agreeing bindings."""
    out: Dict[str, Value] = {}
    for name, value in a.items():
        if b.get(name) == value:
            out[name] = value
    return out


def _describe(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on real ASTs
        return "<expression>"
