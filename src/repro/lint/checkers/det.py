"""DET — determinism contracts for the simulation packages.

Everything downstream of the simulator assumes a run is a pure function of
its spec: golden traces diff bitwise, the verify harness replays scenarios
expecting identical dynamics, and the result cache keys on the spec hash
alone.  Three things silently break that purity:

* **DET001** — ambient nondeterminism: wall clocks, process-seeded RNGs,
  OS entropy.  Stochastic workloads must draw from the SHA-256 named-substream
  service in :mod:`repro.workloads.rng`, which is process- and
  hash-seed-independent by construction.
* **DET002** — iterating a ``set``/``frozenset``: element order follows the
  hash layout, which ``PYTHONHASHSEED`` perturbs for strings (and any tuple
  containing one), so a set-ordered loop that feeds scheduling, emission or
  accumulation order can differ between processes.  Iterate ``sorted(...)``
  or keep an insertion-ordered ``dict`` instead.
* **DET003** — a module-scope ``itertools.count(...)``: a process-global
  counter hands out IDs that depend on everything the process ran before,
  so a run's output stops being a function of its own spec.  Keep counters
  per run (an attribute of the object that owns the run).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..base import Checker, LintContext, register_checker
from ..findings import Finding, Rule

#: Packages whose execution order reaches traces, goldens and cache keys.
DETERMINISTIC_PACKAGES = ("repro.sim", "repro.network", "repro.workloads", "repro.service")

#: Call chains that read ambient state.  A ``None`` attribute matches any
#: attribute of the module (``random.*``), otherwise the chain must end with
#: the named attribute.
_FORBIDDEN_CALLS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("random", None),
    ("secrets", None),
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
)

#: Modules whose ``from X import ...`` forms are flagged outright (an aliased
#: ``from random import randint`` would dodge the attribute-chain check).
_FORBIDDEN_FROM_IMPORTS = ("random", "secrets")


def _attribute_chain(node: ast.expr) -> List[str]:
    """``datetime.datetime.now`` -> ["datetime", "datetime", "now"]."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
    else:
        return []
    chain.reverse()
    return chain


def _is_set_expr(node: ast.expr, known_sets: Dict[str, bool]) -> bool:
    """Whether ``node`` syntactically evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, known_sets) or _is_set_expr(node.right, known_sets)
    name = _bound_name(node)
    if name is not None:
        return known_sets.get(name, False)
    return False


def _bound_name(node: ast.expr) -> Optional[str]:
    """A trackable binding: a bare name or a ``self.attr`` attribute."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _is_set_annotation(annotation: ast.expr) -> bool:
    """``Set[int]`` / ``FrozenSet[str]`` / ``set[...]`` / bare ``set``."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in ("Set", "FrozenSet", "set", "frozenset", "AbstractSet", "MutableSet")
    if isinstance(target, ast.Attribute):  # typing.Set[...]
        return target.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    return False


class _ScopeVisitor(ast.NodeVisitor):
    """Tracks set-typed bindings per lexical scope and flags set iteration."""

    def __init__(self, checker: "DeterminismChecker", context: LintContext) -> None:
        self.checker = checker
        self.context = context
        self.findings: List[Finding] = []
        #: Stack of {binding-name: is-set} scopes; ``self.attr`` annotations
        #: land in the enclosing class scope so every method sees them.
        self.scopes: List[Dict[str, bool]] = [{}]

    # -- scope management -------------------------------------------------------------

    def _known(self) -> Dict[str, bool]:
        merged: Dict[str, bool] = {}
        for scope in self.scopes:
            merged.update(scope)
        return merged

    def _with_new_scope(self, node: ast.AST) -> None:
        self.scopes.append({})
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._with_new_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._with_new_scope(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._with_new_scope(node)

    # -- binding tracking -------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self._known())
        for target in node.targets:
            name = _bound_name(target)
            if name is not None:
                self.scopes[-1][name] = is_set
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = _bound_name(node.target)
        if name is not None:
            is_set = _is_set_annotation(node.annotation) or (
                node.value is not None and _is_set_expr(node.value, self._known())
            )
            scope = self.scopes[-1]
            if name.startswith("self.") and len(self.scopes) >= 2:
                # Attribute annotations are visible class-wide.
                scope = self.scopes[-2]
            scope[name] = is_set
        self.generic_visit(node)

    # -- iteration sites --------------------------------------------------------------

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if _is_set_expr(iter_node, self._known()):
            self.findings.append(
                self.checker.finding(
                    self.context,
                    iter_node,
                    "DET002",
                    "iteration over a set: element order follows the hash seed; "
                    "iterate sorted(...) or an insertion-ordered dict so "
                    "scheduling/emission order stays deterministic",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- forbidden calls / imports ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if chain:
            for module, attribute in _FORBIDDEN_CALLS:
                if module not in chain[:-1]:
                    continue
                if attribute is None or chain[-1] == attribute:
                    self.findings.append(
                        self.checker.finding(
                            self.context,
                            node,
                            "DET001",
                            f"nondeterministic call {'.'.join(chain)}(): simulation "
                            "state must be a pure function of the spec; draw from "
                            "repro.workloads.rng (SHA-256 named substreams) instead",
                        )
                    )
                    break
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module in _FORBIDDEN_FROM_IMPORTS:
            self.findings.append(
                self.checker.finding(
                    self.context,
                    node,
                    "DET001",
                    f"importing names from {node.module!r}: use the deterministic "
                    "substream service in repro.workloads.rng instead",
                )
            )
        self.generic_visit(node)


def _module_scope_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements executed at import time (nested blocks, but no def/class bodies)."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for block in ("body", "orelse", "finalbody"):
            yield from _module_scope_statements(getattr(stmt, block, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield from _module_scope_statements(handler.body)


def _calls_outside_lambdas(node: ast.AST) -> Iterator[ast.Call]:
    """Calls evaluated with ``node`` itself (a lambda's body runs later, per call)."""
    if isinstance(node, ast.Lambda):
        return
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _calls_outside_lambdas(child)


def _global_counters(tree: ast.Module) -> Iterator[ast.Call]:
    """``itertools.count(...)`` calls bound to a name at module scope."""
    modules: Set[str] = set()  # names bound to the itertools module
    counts: Set[str] = set()  # names bound to itertools.count
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "itertools")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "itertools":
            counts.update(a.asname or a.name for a in node.names if a.name == "count")
    for stmt in _module_scope_statements(tree.body):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            continue
        for call in _calls_outside_lambdas(stmt.value):
            func = call.func
            if (isinstance(func, ast.Name) and func.id in counts) or (
                isinstance(func, ast.Attribute)
                and func.attr == "count"
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            ):
                yield call


@register_checker
class DeterminismChecker(Checker):
    """No ambient randomness, hash-ordered iteration or global counters in the sim packages."""

    name = "DET"
    rules = (
        Rule(
            "DET001",
            "no ambient nondeterminism (random.*, time.time, os.urandom, "
            "datetime.now, uuid, secrets) inside repro.sim/network/workloads/service",
            "Runs must replay bit-for-bit from the spec alone; stochastic "
            "workloads go through repro.workloads.rng's SHA-256 substreams.",
        ),
        Rule(
            "DET002",
            "no iteration over set/frozenset inside repro.sim/network/workloads/service",
            "Set order follows PYTHONHASHSEED for str-bearing elements; loops "
            "that feed scheduling or emission order must iterate sorted(...) "
            "or an insertion-ordered dict.",
        ),
        Rule(
            "DET003",
            "no module-scope itertools.count(...) inside repro.sim/network/workloads/service",
            "A process-global counter makes IDs depend on every earlier run in "
            "the process; keep the counter on the object that owns the run.",
        ),
    )

    def applies_to(self, context: LintContext) -> bool:
        return context.in_package(*DETERMINISTIC_PACKAGES)

    def check(self, context: LintContext) -> Iterator[Finding]:
        visitor = _ScopeVisitor(self, context)
        visitor.visit(context.tree)
        yield from visitor.findings
        for call in _global_counters(context.tree):
            yield self.finding(
                context,
                call,
                "DET003",
                "module-scope itertools.count(): a process-global counter makes IDs "
                "depend on earlier runs in the process; keep a per-run counter on "
                "the object that owns the run",
            )
