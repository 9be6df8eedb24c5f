"""The project-wide import graph.

Each edge records *where* the import happens (file, line) and *how*:

* ``typing_only`` — inside an ``if TYPE_CHECKING:`` block; such edges
  never exist at runtime, so the layering rule ignores them;
* ``deferred`` — inside a function body; a real runtime dependency
  (ARCH001 checks it), just one that materialises on first call.

Targets are resolved to dotted module names: relative imports against
the importing module's package, ``from pkg import name`` to ``pkg.name``
when that is a project module and to ``pkg`` otherwise (importing an
*object* from a module depends on the module).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import FileContext


@dataclass(frozen=True)
class ImportEdge:
    """One import statement's contribution to the graph."""

    source: str  #: importing module (dotted)
    target: str  #: imported module (dotted, resolved)
    line: int
    typing_only: bool = False
    deferred: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "target": self.target,
            "line": self.line,
            "typing_only": self.typing_only,
            "deferred": self.deferred,
        }


def _typing_guarded_statements(tree: ast.Module) -> frozenset[int]:
    """ids of every node inside an ``if TYPE_CHECKING:`` block."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = test.id if isinstance(test, ast.Name) else (
            test.attr if isinstance(test, ast.Attribute) else None
        )
        if name == "TYPE_CHECKING":
            for child in node.body:
                for sub in ast.walk(child):
                    guarded.add(id(sub))
    return frozenset(guarded)


def _function_statements(tree: ast.Module) -> frozenset[int]:
    """ids of every node inside a function or lambda body."""
    nested: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for sub in ast.walk(node):
                if sub is not node:
                    nested.add(id(sub))
    return frozenset(nested)


def resolve_relative(module: str, is_package: bool, level: int, target: Optional[str]) -> str:
    """Resolve a ``from . import x``-style module reference to dotted form.

    ``module`` is the importing module, ``is_package`` whether it is an
    ``__init__`` (whose relative level-1 base is itself, not its parent).
    """
    if level == 0:
        return target or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    # level 1 = the containing package; each extra level climbs one more.
    parts = parts[: len(parts) - (level - 1)] if level > 1 else parts
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


class ImportGraph:
    """Module → module import edges for one linted tree."""

    def __init__(self, modules: Iterable[str]) -> None:
        self.modules: frozenset[str] = frozenset(modules)
        self._edges: list[ImportEdge] = []

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, contexts: "Iterable[FileContext]") -> "ImportGraph":
        ordered = sorted(contexts, key=lambda c: c.module)
        graph = cls(context.module for context in ordered)
        for context in ordered:
            graph._scan_module(context)
        return graph

    def _scan_module(self, context: "FileContext") -> None:
        module = context.module
        is_package = context.path.name == "__init__.py"
        typing_ids = _typing_guarded_statements(context.tree)
        function_ids = _function_statements(context.tree)
        for node in ast.walk(context.tree):
            typing_only = id(node) in typing_ids
            deferred = id(node) in function_ids and not typing_only
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._add(module, alias.name, node.lineno, typing_only, deferred)
            elif isinstance(node, ast.ImportFrom):
                base = resolve_relative(module, is_package, node.level, node.module)
                if not base:
                    continue
                self._add(module, base, node.lineno, typing_only, deferred)
                # `from pkg import name` may pull in the *submodule*
                # pkg.name; record that finer edge when it is a module
                # we know about, since that is the real dependency.
                for alias in node.names:
                    candidate = f"{base}.{alias.name}"
                    if candidate in self.modules:
                        self._add(module, candidate, node.lineno, typing_only, deferred)

    def _add(
        self, source: str, target: str, line: int, typing_only: bool, deferred: bool
    ) -> None:
        edge = ImportEdge(source, target, line, typing_only, deferred)
        self._edges.append(edge)

    # -- queries ---------------------------------------------------------

    def __iter__(self) -> Iterator[ImportEdge]:
        return iter(self._edges)

    def project_edges(self, *, runtime_only: bool = False) -> list[ImportEdge]:
        """Edges whose target is another module of the linted tree.

        A dependency on package ``repro.x`` is attributed to its
        ``__init__`` module when only the package name is imported.
        """
        kept: list[ImportEdge] = []
        for edge in self._edges:
            if runtime_only and edge.typing_only:
                continue
            if edge.target in self.modules:
                kept.append(edge)
        return kept

    def runtime_module_graph(self) -> dict[str, set[str]]:
        """Adjacency of project modules via non-typing edges.

        Deferred (function-body) imports are excluded: they cannot
        participate in an import-time cycle, which is what this view
        feeds (ARCH001's cycle check).
        """
        adjacency: dict[str, set[str]] = {module: set() for module in self.modules}
        for edge in self._edges:
            if edge.typing_only or edge.deferred:
                continue
            if edge.target in self.modules and edge.target != edge.source:
                adjacency[edge.source].add(edge.target)
        return adjacency

    def cycles(self) -> list[tuple[str, ...]]:
        """Import-time cycles: every SCC of size > 1, members sorted.

        Iterative Tarjan over the runtime module graph — no recursion,
        so pathological trees cannot blow the stack.
        """
        adjacency = self.runtime_module_graph()
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[tuple[str, ...]] = []
        counter = 0
        for root in sorted(adjacency):
            if root in index:
                continue
            work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(adjacency[root])))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index:
                        index[successor] = low[successor] = counter
                        counter += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(sorted(adjacency[successor]))))
                        advanced = True
                        break
                    if successor in on_stack:
                        low[node] = min(low[node], index[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(tuple(sorted(component)))
        return sorted(components)

    # -- export ----------------------------------------------------------

    def to_json_dict(self) -> dict[str, object]:
        return {
            "modules": sorted(self.modules),
            "edges": [edge.to_dict() for edge in self.project_edges()],
        }

    def to_dot(self) -> str:
        """A Graphviz digraph of the project-internal edges."""
        lines = ["digraph imports {", "  rankdir=LR;"]
        for module in sorted(self.modules):
            lines.append(f'  "{module}";')
        seen: set[tuple[str, str, bool]] = set()
        for edge in self.project_edges():
            key = (edge.source, edge.target, edge.typing_only)
            if key in seen or edge.source == edge.target:
                continue
            seen.add(key)
            style = ' [style=dashed, label="typing"]' if edge.typing_only else ""
            lines.append(f'  "{edge.source}" -> "{edge.target}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"
