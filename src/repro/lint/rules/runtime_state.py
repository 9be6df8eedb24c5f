"""Rule RUN001: mutable defaults and module-level mutable state.

The parallel runner executes trial payloads in worker processes that
import the library fresh; any module-level mutable container (or a
mutable default argument, which is one shared object per function) is
state that can silently diverge between the serial and ``--jobs N``
paths, or accumulate across trials within one worker.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import FileContext
from repro.lint.registry import Violation, at_node, rule

#: Packages importable from repro.runner worker processes.  repro.lint
#: and the CLI never run inside a worker, so they are out of scope.
WORKER_PACKAGES = (
    "repro.sim",
    "repro.bluetooth",
    "repro.core",
    "repro.mobility",
    "repro.radio",
    "repro.lan",
    "repro.experiments",
    "repro.faults",
    "repro.runner",
    "repro.analysis",
    "repro.building",
    "repro.obs",
)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}
)

#: Module-level names that are conventional and read-only in practice.
_EXEMPT_MODULE_NAMES = frozenset({"__all__"})


def _mutable_reason(value: ast.expr) -> Optional[str]:
    """Why ``value`` builds a mutable container, or None if it doesn't."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "a list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "a dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in _MUTABLE_CONSTRUCTORS:
            return f"a {value.func.id}()"
    return None


@rule(
    "RUN001",
    name="mutable-shared-state",
    summary="mutable default argument or module-level mutable state",
    rationale=(
        "Worker processes must be pure functions of (experiment, config "
        "digest, trial index). A mutable default argument is one object "
        "shared by every call; module-level lists/dicts/sets are state "
        "shared by every trial a worker runs. Both make results depend on "
        "execution history, which breaks the serial == --jobs N guarantee "
        "and the byte-identical repeat. Use None-defaults, frozen "
        "dataclasses, tuples, frozensets, or types.MappingProxyType."
    ),
)
def check_run001(ctx: FileContext) -> Iterator[Violation]:
    if not ctx.in_packages(*WORKER_PACKAGES):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                reason = _mutable_reason(default)
                if reason is not None:
                    yield at_node(
                        default,
                        f"mutable default argument ({reason}) in "
                        f"{node.name}(); default to None and create the "
                        "container inside the function",
                    )
    for statement in ctx.tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target, value = statement.targets[0], statement.value
        elif isinstance(statement, ast.AnnAssign):
            target, value = statement.target, statement.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        if target.id in _EXEMPT_MODULE_NAMES:
            continue
        reason = _mutable_reason(value)
        if reason is not None:
            yield at_node(
                statement,
                f"module-level mutable state: {target.id} is {reason}; "
                "use a tuple/frozenset/types.MappingProxyType or move it "
                "into the owning object",
            )
