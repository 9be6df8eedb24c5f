"""Determinism rule DET003: unordered iteration in event hot paths.

It guards the runner's contract alongside DET010 (``taint.py``): a run
is a pure function of its config digest and seed, so ``--jobs N``
equals serial byte for byte and a repeated run prints the same bytes.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.context import expression_key
from repro.lint.registry import Violation, at_node, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph.project import ProjectGraph

#: Event-dispatch / per-event hot paths where DET003 demands an explicit
#: ordering for every set/dict iteration.
HOT_PATH_MODULES = frozenset(
    {
        "repro.sim.kernel",
        "repro.sim.batch",
        "repro.radio.channel",
        "repro.lan.transport",
        "repro.bluetooth.inquiry",
        "repro.bluetooth.scan",
        "repro.bluetooth.swarm",
        "repro.bluetooth.piconet",
        "repro.core.tracker",
    }
)


def _iteration_targets(node: ast.AST) -> Iterator[ast.expr]:
    """The iterables of a for-statement or any comprehension clause."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter


def _unordered_kind(iterable: ast.expr, kinds: dict[str, str]) -> tuple[str, str]:
    """(kind, description) when ``iterable`` is an unordered container.

    Returns ("", "") for anything already ordered or unknown.  A
    ``sorted(...)`` wrapper is the sanctioned explicit ordering, and any
    other call/expression we cannot classify is given the benefit of the
    doubt (the rule aims for zero false negatives on *evident* set/dict
    iteration, not whole-program type inference).
    """
    if isinstance(iterable, (ast.Set, ast.SetComp)):
        return "set", "a set expression"
    if isinstance(iterable, ast.DictComp):
        return "dict", "a dict comprehension"
    if isinstance(iterable, ast.Call):
        func = iterable.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return "set", f"a {func.id}() value"
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "iter", "reversed")
            and len(iterable.args) == 1
        ):
            # Order-preserving wrappers are transparent: list(d.items())
            # iterates exactly as d.items() does.
            return _unordered_kind(iterable.args[0], kinds)
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys",
            "values",
            "items",
        ):
            key = expression_key(func.value)
            if key is not None and kinds.get(key) == "dict":
                return "dict", f"{key}.{func.attr}()"
        return "", ""
    key = expression_key(iterable)
    if key is not None and kinds.get(key) in ("set", "dict"):
        return kinds[key], key
    return "", ""


@rule(
    "DET003",
    name="unordered-iteration",
    summary="set/dict iteration without explicit ordering in a hot path",
    rationale=(
        "Event-dispatch hot paths feed the kernel's (time, seq) event order, "
        "so the visit order of a container becomes part of the result. Set "
        "iteration follows hash order (randomised per process for strings); "
        "dict order is insertion order, which silently changes when call "
        "paths are reordered. Iterate sorted(...) or an explicitly ordered "
        "container, or suppress with a justification that order cannot "
        "reach the results."
    ),
)
def check_det003(graph: "ProjectGraph") -> Iterator[Violation]:
    for ctx in graph.files:
        if ctx.module not in HOT_PATH_MODULES:
            continue
        kinds = ctx.container_kinds()
        for node in ast.walk(ctx.tree):
            for iterable in _iteration_targets(node):
                kind, description = _unordered_kind(iterable, kinds)
                if kind:
                    yield at_node(
                        ctx.display_path,
                        iterable,
                        f"iteration over {description} ({kind}) in a hot path "
                        "without an explicit ordering; wrap in sorted(...) or "
                        "justify with a suppression",
                    )
