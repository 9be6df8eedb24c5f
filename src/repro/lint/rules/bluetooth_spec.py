"""Rule BT001: Bluetooth constant drift against the paper/spec table.

The rule statically evaluates every module-level assignment in
``repro.bluetooth.constants`` with a tiny constant-expression
interpreter (literals, arithmetic, and the repro.sim.clock conversion
helpers) and compares the results against :data:`repro.lint.spec.PAPER_SPEC`.
Nothing from the linted file is imported or executed.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

from repro.lint.registry import Violation, at_node, rule
from repro.lint.spec import PAPER_SPEC
from repro.sim.clock import ticks_from_milliseconds, ticks_from_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph.project import ProjectGraph

#: The module this rule pins down.
CONSTANTS_MODULE = "repro.bluetooth.constants"

Numeric = Union[int, float]

#: Conversion helpers the constants module may call; evaluated with the
#: real repro.sim.clock implementations so the tick authority stays
#: single-sourced.
_KNOWN_FUNCTIONS: dict[str, Callable[..., Numeric]] = {
    "ticks_from_seconds": ticks_from_seconds,
    "ticks_from_milliseconds": ticks_from_milliseconds,
    "round": round,
    "int": int,
}

_BINARY_OPS: dict[type, Callable[[Numeric, Numeric], Numeric]] = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a**b,
}


class _Unevaluable(Exception):
    """The expression is not a static constant we know how to fold."""


def _evaluate(node: ast.expr, env: dict[str, Numeric]) -> Numeric:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            raise _Unevaluable()
        return node.value
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise _Unevaluable()
    if isinstance(node, ast.BinOp):
        operator = _BINARY_OPS.get(type(node.op))
        if operator is None:
            raise _Unevaluable()
        return operator(_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        operand = _evaluate(node.operand, env)
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return +operand
        raise _Unevaluable()
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        function = _KNOWN_FUNCTIONS.get(node.func.id)
        if function is None or node.keywords:
            raise _Unevaluable()
        return function(*[_evaluate(argument, env) for argument in node.args])
    raise _Unevaluable()


def evaluate_constants(
    tree: ast.Module,
) -> tuple[dict[str, Numeric], dict[str, ast.stmt], set[str]]:
    """Fold every module-level constant assignment.

    Returns (values, assignment-node per name, unevaluable names).
    """
    values: dict[str, Numeric] = {}
    nodes: dict[str, ast.stmt] = {}
    unevaluable: set[str] = set()
    for statement in tree.body:
        target: Optional[ast.expr]
        value: Optional[ast.expr]
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target, value = statement.targets[0], statement.value
        elif isinstance(statement, ast.AnnAssign):
            target, value = statement.target, statement.value
        else:
            continue
        if not isinstance(target, ast.Name) or value is None:
            continue
        nodes[target.id] = statement
        try:
            values[target.id] = _evaluate(value, values)
        except _Unevaluable:
            unevaluable.add(target.id)
    return values, nodes, unevaluable


@rule(
    "BT001",
    name="bluetooth-constant-drift",
    summary="repro.bluetooth.constants diverges from the paper/spec table",
    rationale=(
        "The paper's Table 1 discovery times and the §5 schedule follow "
        "arithmetically from a handful of protocol constants (625 µs slots, "
        "10 ms train passes, 2.56 s dwells, the 3.84 s window, the 15.4 s "
        "cycle). An edit that drifts from those values still simulates "
        "*something*, just not Bluetooth 1.1 as the paper measured it — so "
        "drift must fail loudly with a citation, not surface as a subtly "
        "wrong reproduction."
    ),
)
def check_bt001(graph: "ProjectGraph") -> Iterator[Violation]:
    for ctx in graph.files:
        if ctx.module != CONSTANTS_MODULE:
            continue
        path = ctx.display_path
        values, nodes, unevaluable = evaluate_constants(ctx.tree)
        for entry in PAPER_SPEC:
            node = nodes.get(entry.name)
            if node is None:
                yield Violation(
                    path,
                    1,
                    0,
                    f"paper constant {entry.name} is missing (expected "
                    f"{entry.expected!r}: {entry.citation})",
                )
            elif entry.name in unevaluable:
                yield at_node(
                    path,
                    node,
                    f"paper constant {entry.name} could not be statically "
                    f"evaluated against its pinned value ({entry.citation})",
                )
            elif values[entry.name] != entry.expected:
                yield at_node(
                    path,
                    node,
                    f"paper constant {entry.name} = {values[entry.name]!r} "
                    f"diverges from the pinned {entry.expected!r} "
                    f"({entry.citation})",
                )
