"""PERF001: allocation audit of ``@hot_path`` functions and their callees.

docs/performance.md identifies the per-event functions that dominate a
run: the kernel drains, the inquiry hop schedule, radio coverage, LAN
delivery.  Those carry the :func:`repro.sim.hotpath.hot_path` marker (a
zero-cost identity decorator), and PERF001 audits the marked functions
**plus everything they transitively call** inside the project for
avoidable per-call allocation:

* list/set/dict comprehensions (a fresh container per call),
* f-strings (string building on the hot path),
* nested ``def``/``lambda`` (a closure object per call),
* ``**kwargs`` call expansion (a dict per call).

Generator expressions are not flagged (lazy, no up-front container),
and nothing under a ``raise`` statement is flagged — error paths are
cold by construction.  A finding that is genuinely the function's
purpose (e.g. the result list it returns) is suppressed in-file with a
``-- why`` justification, same as every other rule.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.lint.registry import Violation, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph.project import ProjectGraph

#: Final dotted component that marks a function as hot.  The marker is
#: consumed statically from the AST; this module never imports
#: repro.sim.hotpath.
HOT_PATH_MARKER = "hot_path"


def _is_marked(decorators: tuple[str, ...]) -> bool:
    return any(
        dotted == HOT_PATH_MARKER or dotted.endswith("." + HOT_PATH_MARKER)
        for dotted in decorators
    )


def _find_function(
    tree: ast.Module, line: int
) -> Optional[ast.stmt]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.lineno == line:
                return node
    return None


def _raise_descendants(function: ast.stmt) -> frozenset[int]:
    cold: set[int] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Raise):
            for sub in ast.walk(node):
                cold.add(id(sub))
    return frozenset(cold)


def _allocation_findings(function: ast.stmt) -> Iterator[tuple[ast.AST, str]]:
    cold = _raise_descendants(function)
    for node in ast.walk(function):
        if id(node) in cold or node is function:
            continue
        if isinstance(node, ast.ListComp):
            yield node, "list comprehension allocates a container per call"
        elif isinstance(node, ast.SetComp):
            yield node, "set comprehension allocates a container per call"
        elif isinstance(node, ast.DictComp):
            yield node, "dict comprehension allocates a container per call"
        elif isinstance(node, ast.JoinedStr):
            yield node, "f-string builds a string per call"
        elif isinstance(node, ast.Lambda):
            yield node, "lambda allocates a closure per call"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, f"nested def {node.name!r} allocates a closure per call"
        elif isinstance(node, ast.Call) and any(
            keyword.arg is None for keyword in node.keywords
        ):
            yield node, "**kwargs expansion allocates a dict per call"


@rule(
    "PERF001",
    name="hot-path-allocation",
    summary="avoidable per-call allocation in an @hot_path function or callee",
    rationale=(
        "The @hot_path functions run once per simulated event — millions of "
        "times per experiment — so a comprehension, f-string, closure or "
        "**kwargs dict there is a measured cost, not a style point (the "
        "tracing-overhead gate in CI exists for the same reason). The audit "
        "covers transitive project callees because hot loops rarely allocate "
        "directly; they call helpers that do. Cold paths (raise arguments) "
        "are exempt, and intentional allocations carry a -- why suppression."
    ),
)
def check_perf001(graph: "ProjectGraph") -> Iterator[Violation]:
    calls = graph.calls
    marked = sorted(
        name for name, node in calls.nodes.items() if _is_marked(node.decorators)
    )
    if not marked:
        return
    chains = calls.reachable_from(marked)
    for name in sorted(chains):
        node = calls.nodes.get(name)
        if node is None:
            continue
        context = graph.file_for_module(node.module)
        if context is None:
            continue
        function = _find_function(context.tree, node.line)
        if function is None:
            continue
        chain = chains[name]
        via = "" if len(chain) == 1 else (
            " (hot via " + " -> ".join(chain) + ")"
        )
        for found, what in _allocation_findings(function):
            yield Violation(
                path=node.path,
                line=getattr(found, "lineno", node.line),
                column=getattr(found, "col_offset", 0),
                message=f"{what} in hot path {name}{via}",
            )
