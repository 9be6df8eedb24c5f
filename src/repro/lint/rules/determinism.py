"""Determinism rules DET001-DET003.

These guard the runner's contract: a run is a pure function of its
config digest and seed, so ``--jobs N`` equals serial byte for byte
and a repeated run prints the same bytes.  Each rule targets one
way that contract has historically been broken in simulators.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, expression_key
from repro.lint.registry import Violation, at_node, rule

#: Packages whose code runs inside the simulation; all randomness there
#: must flow through repro.sim.rng and all time through repro.sim.clock.
#: (repro.runner is deliberately absent: host-side wall timing of worker
#: batches is legitimate and never feeds simulation results.)
SIM_PACKAGES = (
    "repro.sim",
    "repro.bluetooth",
    "repro.core",
    "repro.mobility",
    "repro.radio",
    "repro.lan",
)

#: Modules exempt from DET001 because they *implement* the sanctioned
#: RNG wrapper.
RNG_WRAPPER_MODULES = frozenset({"repro.sim.rng"})

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

_WALL_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "sleep",
    }
)

_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted-name rendering of an attribute chain."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


@rule(
    "DET001",
    name="unseeded-rng",
    summary="global/unseeded RNG use in simulation code",
    rationale=(
        "All randomness must flow through repro.sim.rng.RandomStream, which "
        "derives named child streams from the experiment seed. A single "
        "random.random() or numpy.random call draws from process-global "
        "state, so results depend on import order and worker identity and "
        "the serial == --jobs N guarantee silently breaks."
    ),
)
def check_det001(ctx: FileContext) -> Iterator[Violation]:
    if not ctx.in_packages(*SIM_PACKAGES) or ctx.module in RNG_WRAPPER_MODULES:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                if root == "random" or alias.name.startswith("numpy.random"):
                    yield at_node(
                        node,
                        f"import of {alias.name!r} in simulation code; use a "
                        "seeded repro.sim.rng.RandomStream instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module.startswith("numpy.random") or (
                module == "numpy"
                and any(alias.name == "random" for alias in node.names)
            ):
                yield at_node(
                    node,
                    f"import from {module!r} in simulation code; use a seeded "
                    "repro.sim.rng.RandomStream instead",
                )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted.startswith("random.") and dotted.count(".") == 1:
                yield at_node(
                    node,
                    f"{dotted!r} touches the process-global RNG; draw from a "
                    "seeded repro.sim.rng.RandomStream",
                )
            elif dotted.startswith(("numpy.random.", "np.random.")):
                yield at_node(
                    node,
                    f"{dotted!r} uses numpy's global RNG; draw from a seeded "
                    "repro.sim.rng.RandomStream",
                )


@rule(
    "DET002",
    name="wall-clock",
    summary="wall-clock access in simulation code",
    rationale=(
        "Simulated time is integer ticks owned by repro.sim.clock.SimClock; "
        "time.time()/monotonic()/datetime.now() read the host clock, which "
        "differs per run and per worker, so any value derived from it "
        "breaks byte-identical replay."
    ),
)
def check_det002(ctx: FileContext) -> Iterator[Violation]:
    if not ctx.in_packages(*SIM_PACKAGES):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    yield at_node(
                        node,
                        "import of 'time' in simulation code; simulated time "
                        "comes from repro.sim.clock",
                    )
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "") == "time":
                names = ", ".join(alias.name for alias in node.names)
                yield at_node(
                    node,
                    f"import of {names} from 'time' in simulation code; "
                    "simulated time comes from repro.sim.clock",
                )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted.startswith("time.") and node.attr in _WALL_CLOCK_TIME_ATTRS:
                yield at_node(
                    node,
                    f"{dotted!r} reads the host clock; simulated time comes "
                    "from repro.sim.clock",
                )
            elif (
                node.attr in _WALL_CLOCK_DATETIME_ATTRS
                and _dotted(node.value).split(".")[-1] in ("datetime", "date")
            ):
                yield at_node(
                    node,
                    f"{dotted!r} reads the host calendar; simulated time "
                    "comes from repro.sim.clock",
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
def check_det003(ctx: FileContext) -> Iterator[Violation]:
    if ctx.module not in HOT_PATH_MODULES:
        return
    kinds = ctx.container_kinds()
    for node in ast.walk(ctx.tree):
        for iterable in _iteration_targets(node):
            kind, description = _unordered_kind(iterable, kinds)
            if kind:
                yield at_node(
                    iterable,
                    f"iteration over {description} ({kind}) in a hot path "
                    "without an explicit ordering; wrap in sorted(...) or "
                    "justify with a suppression",
                )

