"""The whole-tree context handed to project-scoped lint rules.

A :class:`ProjectGraph` is built once per ``--deep`` engine run from
the already-parsed per-file contexts: no file is read or parsed twice,
and — like everything in :mod:`repro.lint` — nothing is ever imported
or executed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.lint.graph.calls import CallGraph
from repro.lint.graph.imports import ImportGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import FileContext

#: Schema version of the ``--graph-out`` JSON dump.
GRAPH_JSON_VERSION = 1


@dataclass
class ProjectGraph:
    """Everything a project rule may inspect about the linted tree."""

    root: Optional[Path]
    files: list["FileContext"] = field(default_factory=list)
    imports: ImportGraph = field(default_factory=lambda: ImportGraph(()))
    calls: CallGraph = field(default_factory=CallGraph)

    def file_for_module(self, module: str) -> Optional["FileContext"]:
        for context in self.files:
            if context.module == module:
                return context
        return None

    # -- export ----------------------------------------------------------

    def to_json(self) -> str:
        """Both graphs as one versioned, deterministic JSON document."""
        payload = {
            "version": GRAPH_JSON_VERSION,
            "imports": self.imports.to_json_dict(),
            "calls": self.calls.to_json_dict(),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        """Both graphs as Graphviz digraphs, concatenated."""
        return self.imports.to_dot() + "\n" + self.calls.to_dot()


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
