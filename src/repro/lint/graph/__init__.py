"""Whole-program graphs that every lint rule reads.

Two graphs, both built purely from :mod:`ast` — the same
never-import-the-code safety contract as the rest of the engine:

* the **import graph** (:mod:`repro.lint.graph.imports`): module →
  module edges with enough provenance (line, ``typing_only``,
  ``deferred``) for the layering rule to separate runtime dependencies
  from annotations;
* the **call graph** (:mod:`repro.lint.graph.calls`): a
  name-resolution-based over/under-approximation — edges exist only
  where a callee is statically addressable (module-level names,
  imported names and their ``__init__`` re-exports, ``self.``/``cls.``
  methods), and every dynamically-dispatched call is conservatively
  skipped and counted, never guessed.

:mod:`repro.lint.graph.project` bundles both plus the per-file
contexts into the :class:`ProjectGraph` handed to every rule.
"""

from __future__ import annotations

from repro.lint.graph.calls import CallGraph, CallSite, FunctionNode, ResolutionStats
from repro.lint.graph.imports import ImportEdge, ImportGraph
from repro.lint.graph.project import ProjectGraph, build_project_graph

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionNode",
    "ImportEdge",
    "ImportGraph",
    "ProjectGraph",
    "ResolutionStats",
    "build_project_graph",
]
