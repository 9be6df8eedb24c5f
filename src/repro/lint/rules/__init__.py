"""Rule modules; importing this package registers every rule.

Add a new rule by creating (or extending) a module here with a
``@rule(...)``-decorated check (a function from the project graph to
path-anchored ``Violation`` findings) and importing it below; see
docs/static-analysis.md for the full recipe.
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    architecture,
    bluetooth_spec,
    determinism,
    hot_path_perf,
    observability,
    runtime_state,
    taint,
)

__all__ = [
    "architecture",
    "bluetooth_spec",
    "determinism",
    "hot_path_perf",
    "observability",
    "runtime_state",
    "taint",
]
