"""The project's invariant rules, ANN001..ANN006.

Each rule guards one convention the federation's correctness rests on
(DESIGN §10).  Rules are registered by code; fixtures exercising every
rule live under ``tests/tools/fixtures/`` with one good/bad pair per
code, and a violation can be locally waived with
``# annoda: noqa=<code> -- reason``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.tools.lint.engine import (
    Diagnostic,
    Project,
    Rule,
    SourceModule,
    register,
)

# -- shared AST helpers -------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """Textual dotted form of a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_lockish(expression: ast.AST) -> bool:
    """True when a ``with`` item's context expression looks like a
    mutex: its dotted text mentions ``lock`` or ``mutex``."""
    node = expression
    if isinstance(node, ast.Call):
        node = node.func
    text = _dotted(node)
    if text is None:
        return False
    lowered = text.lower()
    return "lock" in lowered or "mutex" in lowered


def _self_private_attr(node: ast.AST) -> Optional[str]:
    """The private ``self._attr`` a write target/receiver resolves to.

    Unwraps subscripts, calls and attribute chains so
    ``self._by_symbol.setdefault(k, []).append(v)`` and
    ``self._by_id[key] = record`` both resolve to their backing
    attribute.  Dunder attributes (``self.__dict__``) and version
    counters are not state in this rule's sense.
    """
    while True:
        if isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Attribute) and not isinstance(
            node.value, ast.Name
        ):
            node = node.value
        else:
            break
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        attr = node.attr
        if (
            attr.startswith("_")
            and not attr.startswith("__")
            and attr not in ("_version",)
        ):
            return attr
    return None


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """name-in-module -> origin ("module" or "module.symbol")."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return origins


def _walk_locked(
    body: Iterable[ast.stmt], locked: Tuple[str, ...] = ()
) -> Iterable[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield ``(node, held-lock labels)`` over statements, descending
    into compound statements and tracking ``with <lock>`` nesting.
    Nested function bodies run later (the lock is not held when they
    execute), so they are yielded with an empty held set.
    """
    for statement in body:
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            yield statement, locked
            yield from _walk_locked(statement.body, ())
            continue
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            labels = list(locked)
            for item in statement.items:
                if _is_lockish(item.context_expr):
                    node = item.context_expr
                    if isinstance(node, ast.Call):
                        node = node.func
                    labels.append(_dotted(node) or "<lock>")
            yield statement, locked
            yield from _walk_locked(statement.body, tuple(labels))
            continue
        yield statement, locked
        for child_body in _statement_bodies(statement):
            yield from _walk_locked(child_body, locked)


def _statement_bodies(statement: ast.stmt) -> List[List[ast.stmt]]:
    bodies = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(statement, name, None)
        if block:
            bodies.append(block)
    for handler in getattr(statement, "handlers", ()) or ():
        bodies.append(handler.body)
    return bodies


def _expressions_under(statement: ast.AST) -> Iterable[ast.AST]:
    """Every expression node belonging to one statement, without
    descending into nested statements (those are walked separately)."""
    block_fields = {"body", "orelse", "finalbody", "handlers"}
    stack = [
        child
        for name, child in ast.iter_fields(statement)
        if name not in block_fields
    ]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, ast.AST):
            yield node
            stack.extend(
                child
                for name, child in ast.iter_fields(node)
                if name not in block_fields
            )


# -- ANN001: no raw-conditions fetch shim ------------------------------------


@register
class RawConditionFetchRule(Rule):
    code = "ANN001"
    title = "fetch() called without a FetchRequest"
    rationale = (
        "Wrapper.fetch accepts only a FetchRequest and raises TypeError "
        "on a raw condition sequence or a missing argument; this rule "
        "finds such calls before they run, so every fetch carries the "
        "purpose tag and request budget its reply and accounting rely "
        "on."
    )

    _LITERALS = (
        ast.List,
        ast.Tuple,
        ast.Set,
        ast.Dict,
        ast.ListComp,
        ast.SetComp,
        ast.GeneratorExp,
    )

    def check(self, module: SourceModule) -> List[Diagnostic]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "fetch"):
                continue
            argument = self._request_argument(node)
            if argument is _NO_ARGUMENT:
                reason = "no request argument (the shim's empty default)"
            elif self._is_raw_sequence(argument):
                reason = "a raw condition sequence"
            else:
                continue
            findings.append(
                Diagnostic(
                    module.path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"fetch() called with {reason}; build a "
                    "repro.mediator.fetch.FetchRequest instead",
                )
            )
        return findings

    @staticmethod
    def _request_argument(call: ast.Call) -> Any:
        if call.args:
            first = call.args[0]
            if isinstance(first, ast.Starred):
                return None  # cannot tell statically; let it pass
            return first
        for keyword in call.keywords:
            if keyword.arg == "request":
                return keyword.value
        if call.keywords:
            return None
        return _NO_ARGUMENT

    def _is_raw_sequence(self, argument: Any) -> bool:
        if argument is None:
            return False
        if isinstance(argument, self._LITERALS):
            return True
        if isinstance(argument, ast.Call):
            return _dotted(argument.func) in ("list", "tuple")
        return False


_NO_ARGUMENT = object()


# -- ANN002: indexed-state writes are synchronized ----------------------------


@register
class UnsynchronizedStateWriteRule(Rule):
    code = "ANN002"
    title = (
        "store-state mutation must bump version or hold _fetch_mutex"
    )
    rationale = (
        "The version-keyed index scheme is only sound if every "
        "mutation of a store's record/index state either bumps the "
        "version counter (invalidating derived indexes wholesale) or "
        "runs under the per-source fetch mutex; methods suffixed "
        "_locked assert the caller already holds it."
    )

    _MUTATORS = {
        "append", "add", "clear", "discard", "extend", "insert",
        "pop", "popitem", "remove", "setdefault", "sort", "update",
    }

    def check(self, module: SourceModule) -> List[Diagnostic]:
        if not module.in_module("repro.sources"):
            return []
        findings: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_store_class(node):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name.endswith("_locked"):
                    continue
                findings.extend(self._check_method(module, method))
        return findings

    @staticmethod
    def _is_store_class(node: ast.ClassDef) -> bool:
        if node.name == "DataSource":
            return True
        for base in node.bases:
            text = _dotted(base)
            if text is not None and text.split(".")[-1] == "DataSource":
                return True
        return False

    def _check_method(
        self, module: SourceModule, method: ast.FunctionDef
    ) -> List[Diagnostic]:
        bumps_version = any(
            isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in ("_version", "version")
                for target in (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
            )
            for node in ast.walk(method)
        )
        if bumps_version:
            return []
        findings = []
        for statement, held in _walk_locked(method.body):
            if held:
                continue
            for attr, line, col in self._state_writes(statement):
                findings.append(
                    Diagnostic(
                        module.path,
                        line,
                        col,
                        self.code,
                        f"write to self.{attr} in {method.name}() "
                        "without holding _fetch_mutex or bumping "
                        "version",
                    )
                )
        return findings

    def _state_writes(
        self, statement: ast.AST
    ) -> List[Tuple[str, int, int]]:
        writes = []
        targets: List[ast.AST] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            targets = [statement.target]
        elif isinstance(statement, ast.Delete):
            targets = list(statement.targets)
        for target in targets:
            attr = _self_private_attr(target)
            if attr is not None:
                writes.append(
                    (attr, statement.lineno, statement.col_offset)
                )
        for node in _expressions_under(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
            ):
                attr = _self_private_attr(node.func.value)
                if attr is not None:
                    writes.append((attr, node.lineno, node.col_offset))
        return writes


# -- ANN003: determinism of answer-affecting modules --------------------------


@register
class NondeterminismRule(Rule):
    code = "ANN003"
    title = (
        "no wall-clock time or unseeded randomness in answer-"
        "affecting modules"
    )
    rationale = (
        "Worker count must be answer-invariant: mediator, sources, "
        "reconciliation and the trace recorder may only use monotonic "
        "timers for accounting (perf_counter, the repro.util.clock "
        "seam) and seeded RNGs (DeterministicRng); wall-clock reads "
        "and global random draws make answers irreproducible."
    )

    _SCOPES = ("repro.mediator", "repro.sources", "repro.trace")
    _TIME_BANNED = {"time.time", "time.time_ns"}
    _DATETIME_RECEIVERS = {"datetime", "datetime.datetime", "datetime.date"}
    _DATETIME_CALLS = {"now", "utcnow", "today"}
    _RANDOM_DRAWS = {
        "random", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "gauss", "betavariate",
        "random.seed",
    }

    def check(self, module: SourceModule) -> List[Diagnostic]:
        if not module.in_module(*self._SCOPES):
            return []
        origins = _import_map(module.tree)
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._violation(node, origins)
            if message is not None:
                findings.append(
                    Diagnostic(
                        module.path,
                        node.lineno,
                        node.col_offset,
                        self.code,
                        message,
                    )
                )
        return findings

    def _violation(
        self, call: ast.Call, origins: Dict[str, str]
    ) -> Optional[str]:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        origin = self._resolve(dotted, origins)
        if origin in self._TIME_BANNED:
            return (
                f"{dotted}() reads the wall clock; use "
                "time.perf_counter() for accounting"
            )
        head, _, tail = origin.rpartition(".")
        if tail in self._DATETIME_CALLS and (
            head in self._DATETIME_RECEIVERS
            or origins.get(head, "").startswith("datetime")
        ):
            return (
                f"{dotted}() reads the wall clock; answer-affecting "
                "code must be deterministic"
            )
        if head == "random" and tail in self._RANDOM_DRAWS:
            return (
                f"{dotted}() draws from the process-global RNG; use "
                "repro.util.rng.DeterministicRng"
            )
        if origin == "random.Random" and not call.args:
            return (
                "random.Random() without a seed is nondeterministic; "
                "pass an explicit seed or use DeterministicRng"
            )
        return None

    @staticmethod
    def _resolve(dotted: str, origins: Dict[str, str]) -> str:
        head, _, rest = dotted.partition(".")
        origin = origins.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


# -- ANN004: no blocking calls while holding a lock ---------------------------


@register
class BlockingUnderLockRule(Rule):
    code = "ANN004"
    title = "no blocking I/O or sleep while holding a lock"
    rationale = (
        "The per-source fetch mutex serializes every indexed fetch on "
        "that source: a sleep or filesystem/network call inside it "
        "stalls the whole federation's worker pool, and lock-holding "
        "I/O is the classic priority-inversion deadlock shape."
    )

    _BANNED_EXACT = {
        "time.sleep", "os.system", "os.popen", "pickle.dump",
        "pickle.load", "json.dump", "json.load", "open", "input",
    }
    _BANNED_ROOTS = {"subprocess", "socket", "requests", "urllib",
                     "shutil"}
    _BANNED_ATTRS = {
        "read_text", "write_text", "read_bytes", "write_bytes",
        "sleep",
    }

    def check(self, module: SourceModule) -> List[Diagnostic]:
        origins = _import_map(module.tree)
        findings = []
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        seen: Set[int] = set()
        for function in functions:
            for statement, held in _walk_locked(function.body):
                if not held or id(statement) in seen:
                    continue
                seen.add(id(statement))
                for node in _expressions_under(statement):
                    if not isinstance(node, ast.Call):
                        continue
                    offence = self._blocking_call(node, origins)
                    if offence is not None:
                        findings.append(
                            Diagnostic(
                                module.path,
                                node.lineno,
                                node.col_offset,
                                self.code,
                                f"{offence} while holding "
                                f"{', '.join(held)}",
                            )
                        )
        return findings

    def _blocking_call(
        self, call: ast.Call, origins: Dict[str, str]
    ) -> Optional[str]:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        head = dotted.split(".")[0]
        origin = origins.get(head, head)
        resolved = (
            origin + dotted[len(head):] if dotted != head else origin
        )
        if resolved in self._BANNED_EXACT or dotted in self._BANNED_EXACT:
            return f"blocking call {dotted}()"
        if origin.split(".")[0] in self._BANNED_ROOTS:
            return f"blocking call {dotted}()"
        tail = dotted.rsplit(".", 1)[-1]
        if "." in dotted and tail in self._BANNED_ATTRS:
            return f"blocking call {dotted}()"
        return None


# -- ANN005: no silently-dropped counters ------------------------------------


@register
class DroppedCounterRule(Rule):
    code = "ANN005"
    title = "every counter is registered, counted and folded"
    rationale = (
        "Counters that are written but never surfaced rot silently: "
        "each counter declared in a metrics registry must be counted "
        "(incr / set_counter) somewhere in the project, a counter "
        "counted inside repro modules must be declared in a registry "
        "(registered AND counted, never half-wired), and each key of "
        "a fetch's tally (new_tally) must be folded in by the module "
        "that defines ExecutionReport."
    )

    def finish(self, project: Project) -> List[Diagnostic]:
        findings = self._check_tally_keys(project)
        findings.extend(self._check_registered_metrics(project))
        return findings

    def _check_tally_keys(
        self, project: Project
    ) -> List[Diagnostic]:
        report_literals: Set[str] = set()
        report_seen = False
        for module in project.modules:
            if not any(
                isinstance(node, ast.ClassDef)
                and node.name == "ExecutionReport"
                for node in ast.walk(module.tree)
            ):
                continue
            report_seen = True
            report_literals.update(
                node.value
                for node in ast.walk(module.tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            )
        if not report_seen:
            return []
        findings = []
        for module in project.modules:
            for key, line, col in self._tally_keys(
                module.tree
            ):
                if key not in report_literals:
                    findings.append(
                        Diagnostic(
                            module.path,
                            line,
                            col,
                            self.code,
                            f"fetch tally key {key!r} is not folded "
                            "in by the ExecutionReport module (the "
                            "execution report would drop it)",
                        )
                    )
        return findings

    def _check_registered_metrics(
        self, project: Project
    ) -> List[Diagnostic]:
        """Registration and counting must agree both ways: a counter
        registered in a metrics registry must be counted somewhere in
        the linted project, and (within ``repro`` modules) a counted
        name must be declared in a registry — a new counter cannot
        ship half-wired."""
        attached: Set[str] = set()
        registrations: List[
            Tuple[SourceModule, str, int, int]
        ] = []
        for module in project.modules:
            attached.update(self._attached_counter_names(module.tree))
            for name, line, col in self._metric_registrations(
                module.tree
            ):
                registrations.append((module, name, line, col))
        findings = []
        registered = {name for _, name, _, _ in registrations}
        for module, name, line, col in registrations:
            if name not in attached:
                findings.append(
                    Diagnostic(
                        module.path,
                        line,
                        col,
                        self.code,
                        f"metric {name!r} is registered in the metrics "
                        "registry but never counted "
                        "(no incr/set_counter names it)",
                    )
                )
        if not registered:
            # No registry in the linted set: nothing to agree with
            # (single-file lints of unrelated fixtures stay silent).
            return findings
        for module in project.modules:
            if not module.in_module("repro"):
                continue
            for name, line, col in self._attached_counter_sites(
                module.tree
            ):
                if name not in registered:
                    findings.append(
                        Diagnostic(
                            module.path,
                            line,
                            col,
                            self.code,
                            f"counter {name!r} is counted but not "
                            "registered in any metrics registry "
                            "(undeclared counter)",
                        )
                    )
        return findings

    @staticmethod
    def _metric_registrations(
        tree: ast.Module,
    ) -> List[Tuple[str, int, int]]:
        """``(name, line, col)`` for every counter registered on a
        registry instance constructed in this module, i.e. a
        ``.register("name", ...)`` call whose receiver was assigned
        from a ``MetricsRegistry(...)`` call."""
        registries: Set[str] = set()
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
            ):
                continue
            callee = _dotted(node.value.func)
            if (
                callee is not None
                and callee.split(".")[-1] == "MetricsRegistry"
            ):
                registries.update(
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name)
                )
        if not registries:
            return []
        registrations = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "register"
                and _dotted(func.value) in registries
            ):
                continue
            if (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                registrations.append(
                    (
                        node.args[0].value,
                        node.lineno,
                        node.col_offset,
                    )
                )
        return registrations

    @classmethod
    def _attached_counter_names(cls, tree: ast.Module) -> Set[str]:
        """Counter names attached to spans in this module."""
        return {
            name for name, _, _ in cls._attached_counter_sites(tree)
        }

    @staticmethod
    def _attached_counter_sites(
        tree: ast.Module,
    ) -> List[Tuple[str, int, int]]:
        """``(name, line, col)`` per counting site in this module: the
        literal first argument of ``.incr()`` / ``.set_counter()``
        calls (a span's, or an execution report's)."""
        sites: List[Tuple[str, int, int]] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("incr", "set_counter")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                sites.append(
                    (node.args[0].value, node.lineno, node.col_offset)
                )
        return sites

    @staticmethod
    def _tally_keys(
        tree: ast.Module,
    ) -> List[Tuple[str, int, int]]:
        keys = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "new_tally"
            ):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Dict):
                        for key in sub.keys:
                            if isinstance(
                                key, ast.Constant
                            ) and isinstance(key.value, str):
                                keys.append(
                                    (
                                        key.value,
                                        key.lineno,
                                        key.col_offset,
                                    )
                                )
                        break
        return keys


# -- ANN006: plan objects are constructed frozen ------------------------------


@register
class FrozenPlanNodeRule(Rule):
    code = "ANN006"
    title = "plan objects are constructed frozen — no post-hoc mutation"
    rationale = (
        "The plan's contract is immutability: the optimizer rewrites "
        "stages with dataclasses.replace and the executor only reads "
        "them — so a plan object can be shared, cached and "
        "fingerprinted safely.  Assigning to a stage attribute "
        "(directly, via setattr, or via object.__setattr__) after "
        "construction silently invalidates estimates, rule records and "
        "artifact keys."
    )

    _PLAN_MODULE = "repro.mediator.plan"
    _NODE_NAMES = {"FetchStage", "PhysicalPlan", "RuleRecord", "RuleReport"}

    def check(self, module: SourceModule) -> List[Diagnostic]:
        origins = _import_map(module.tree)
        constructors = self._constructor_names(origins)
        if not constructors:
            return []
        node_vars = self._node_variables(module.tree, constructors)
        findings = []
        for node in ast.walk(module.tree):
            message = self._mutation(node, constructors, node_vars)
            if message is None:
                continue
            findings.append(
                Diagnostic(
                    module.path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    message,
                )
            )
        return findings

    def _constructor_names(
        self, origins: Dict[str, str]
    ) -> Dict[str, str]:
        """local name -> plan class, for every way this module can
        reach a plan constructor (direct import, alias, or the plan
        module itself for ``plan.FetchStage(...)`` dotted calls)."""
        constructors: Dict[str, str] = {}
        for local, origin in origins.items():
            head, _, symbol = origin.rpartition(".")
            if head == self._PLAN_MODULE and symbol in self._NODE_NAMES:
                constructors[local] = symbol
            elif origin == self._PLAN_MODULE:
                for name in self._NODE_NAMES:
                    constructors[f"{local}.{name}"] = name
        return constructors

    @staticmethod
    def _node_variables(
        tree: ast.Module, constructors: Dict[str, str]
    ) -> Dict[str, str]:
        """variable name -> plan class, for names bound from a
        plan constructor call anywhere in the module."""
        bound: Dict[str, str] = {}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
            ):
                continue
            callee = _dotted(node.value.func)
            if callee is None or callee not in constructors:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = constructors[callee]
        return bound

    def _mutation(
        self,
        node: ast.AST,
        constructors: Dict[str, str],
        node_vars: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                klass = self._receiver_class(
                    target, constructors, node_vars
                )
                if klass is not None:
                    attr = (
                        target.attr
                        if isinstance(target, ast.Attribute)
                        else "?"
                    )
                    return (
                        f"assignment to {klass}.{attr} after "
                        "construction; build the object with the final "
                        "value or rewrite with dataclasses.replace"
                    )
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in ("setattr", "object.__setattr__") and node.args:
                receiver = node.args[0]
                klass = node_vars.get(_dotted(receiver) or "")
                if klass is None and isinstance(receiver, ast.Call):
                    callee = _dotted(receiver.func)
                    klass = (
                        constructors.get(callee) if callee else None
                    )
                if klass is not None:
                    return (
                        f"{dotted}() on a frozen {klass}; rewrite "
                        "with dataclasses.replace instead"
                    )
        return None

    @staticmethod
    def _receiver_class(
        target: ast.AST,
        constructors: Dict[str, str],
        node_vars: Dict[str, str],
    ) -> Optional[str]:
        if not isinstance(target, ast.Attribute):
            return None
        receiver = target.value
        name = _dotted(receiver)
        if name is not None and name in node_vars:
            return node_vars[name]
        if isinstance(receiver, ast.Call):
            callee = _dotted(receiver.func)
            if callee is not None and callee in constructors:
                return constructors[callee]
        return None
