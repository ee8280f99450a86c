"""FLT — float discipline in the physics and verification layers.

The verify harness documents exactly which comparisons are bitwise (allocator
parity, utilisation included) and which are toleranced (backend fidelity
parity at 1e-6).  Bare ``==``/``!=`` on float quantities outside those
documented constants is how tolerance bugs creep in:

* **FLT001** — equality comparison where a side is a float literal or a
  float-named quantity (``*_us``, ``*fidelity``, ``*rate``, ``makespan*``,
  ``ratio``, ``*_tol*``).  Either route it through the documented tolerance
  constant (``FIDELITY_ABS_TOL``) / ``math.isclose``, or suppress with a
  justification naming the bitwise contract relied on;
* **FLT002** — ``validate_*``/``clamp_*`` entry points in the physics layer
  must reject non-finite values (``math.isfinite``/``math.isnan``): NaN
  compares false against every bound, so range checks alone wave it straight
  into cache keys and Bell-diagonal algebra.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..base import Checker, LintContext, register_checker
from ..findings import Finding, Rule

#: Packages where float comparisons are contract-sensitive.
FLOAT_PACKAGES = ("repro.verify", "repro.physics")

#: Terminal names that denote float-valued quantities in this codebase.
_FLOAT_NAME = re.compile(
    r"(^|_)(us|fidelity|rate|ratio|makespan|tol|tolerance)$|^makespan|fidelity$"
)


def _float_named(node: ast.expr) -> Optional[str]:
    """The dotted name of a float-suggesting operand, or ``None``."""
    terminal: Optional[str] = None
    if isinstance(node, ast.Attribute):
        terminal = node.attr
    elif isinstance(node, ast.Name):
        terminal = node.id
    if terminal is not None and _FLOAT_NAME.search(terminal):
        return terminal
    return None


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


def _mentions_finiteness(function: ast.FunctionDef) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr in ("isfinite", "isnan", "isinf"):
            return True
        if isinstance(node, ast.Name) and node.id in ("isfinite", "isnan", "isinf"):
            return True
    return False


def _takes_float(function: ast.FunctionDef) -> bool:
    arguments = function.args
    return any(
        arg.annotation is not None and "float" in ast.unparse(arg.annotation)
        for arg in arguments.args + arguments.kwonlyargs + arguments.posonlyargs
    )


@register_checker
class FloatDisciplineChecker(Checker):
    """Toleranced comparisons and non-finite rejection in physics/verify."""

    name = "FLT"
    rules = (
        Rule(
            "FLT001",
            "no bare ==/!= on float quantities in repro.verify/repro.physics",
            "Float agreement goes through the documented tolerance constant "
            "(FIDELITY_ABS_TOL) or math.isclose; sites that *rely* on "
            "bitwise equality suppress with the contract named.",
        ),
        Rule(
            "FLT002",
            "validate_*/clamp_* physics entry points must reject non-finite "
            "values (math.isfinite/isnan)",
            "NaN compares false against every bound, so a range check alone "
            "admits it into spec hashes and Bell-diagonal algebra.",
        ),
    )

    def applies_to(self, context: LintContext) -> bool:
        return context.in_package(*FLOAT_PACKAGES)

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(context, node)
            elif isinstance(node, ast.FunctionDef):
                yield from self._check_validator(context, node)

    def _check_compare(self, context: LintContext, node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                reason: Optional[str] = None
                if _is_float_literal(side):
                    reason = f"float literal {ast.unparse(side)}"
                else:
                    name = _float_named(side)
                    if name is not None:
                        reason = f"float quantity {name!r}"
                if reason is not None:
                    yield self.finding(
                        context,
                        node,
                        "FLT001",
                        f"bare {'==' if isinstance(op, ast.Eq) else '!='} against "
                        f"{reason}; compare through the documented tolerance "
                        "constants, or suppress naming the bitwise contract",
                    )
                    break

    def _check_validator(
        self, context: LintContext, node: ast.FunctionDef
    ) -> Iterator[Finding]:
        if not (node.name.startswith("validate_") or node.name.startswith("clamp_")):
            return
        if not _takes_float(node):
            return
        if not _mentions_finiteness(node):
            yield self.finding(
                context,
                node,
                "FLT002",
                f"{node.name}() validates a float but never checks finiteness; "
                "NaN passes every range check — add a math.isfinite gate",
            )
