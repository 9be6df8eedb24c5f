"""The whole-tree context handed to every lint rule.

A :class:`ProjectGraph` is built once per engine run from
the already-parsed per-file contexts: no file is read or parsed twice,
and — like everything in :mod:`repro.lint` — nothing is ever imported
or executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.lint.graph.calls import CallGraph
from repro.lint.graph.imports import ImportGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import FileContext


@dataclass
class ProjectGraph:
    """Everything a rule may inspect about the linted tree."""

    root: Optional[Path]
    files: list["FileContext"] = field(default_factory=list)
    imports: ImportGraph = field(default_factory=lambda: ImportGraph(()))
    calls: CallGraph = field(default_factory=CallGraph)

    def file_for_module(self, module: str) -> Optional["FileContext"]:
        for context in self.files:
            if context.module == module:
                return context
        return None


def build_project_graph(
    contexts: "Iterable[FileContext]", root: Optional[Path] = None
) -> ProjectGraph:
    """Build the import and call graphs over the parsed file contexts."""
    ordered = sorted(contexts, key=lambda context: context.module)
    return ProjectGraph(
        root=root,
        files=ordered,
        imports=ImportGraph.build(ordered),
        calls=CallGraph.build(ordered),
    )
