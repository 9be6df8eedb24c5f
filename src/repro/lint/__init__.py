"""Determinism & protocol-invariant static analysis (``bips lint``).

An AST-based lint pass purpose-built for this reproduction: it enforces
the coding rules the byte-identical-replay guarantee rests on (seeded
RNG streams, simulated time, ordered iteration in hot paths) and pins
the Bluetooth protocol constants to the paper/spec values.  See
docs/static-analysis.md for the rule catalogue and suppression policy.

Public API::

    from repro.lint import REGISTRY, lint_paths, lint_source

    report = lint_paths(["src"])
    print(report.to_json())
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.engine import (
    INTERNAL_RULE_ID,
    PARSE_RULE_ID,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.graph import ProjectGraph, build_project_graph
from repro.lint.registry import (
    REGISTRY,
    RuleSpec,
    Violation,
    at_node,
    rule,
)
from repro.lint.spec import PAPER_SPEC, SpecEntry

# Importing the rules package runs every @rule decorator, so REGISTRY is
# fully populated the moment `repro.lint` is imported (`--list-rules`
# must not depend on an engine run having happened first).
from repro.lint import rules as _rules  # noqa: E402  (import-for-side-effect)

del _rules

__all__ = [
    "Diagnostic",
    "INTERNAL_RULE_ID",
    "LintReport",
    "PAPER_SPEC",
    "PARSE_RULE_ID",
    "ProjectGraph",
    "REGISTRY",
    "RuleSpec",
    "SpecEntry",
    "Violation",
    "at_node",
    "build_project_graph",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "rule",
]
