"""DET010: interprocedural determinism taint over the call graph.

The file-local determinism rules (DET001/DET002) catch a wall-clock or
unseeded-RNG call *in the file that makes it*.  What they cannot see is
simulation code calling an innocent-looking helper that — two hops away,
possibly outside the sim packages — bottoms out in ``time.time()`` or
the process-global ``random`` state.  DET010 closes that hole: it marks
every function whose body contains a non-deterministic **sink**,
propagates reachability backwards over the project call graph, and
reports each simulation-package *entry point* of a tainted chain with
the full chain cited.

Only chains of length >= 2 are reported here: a direct sink in sim code
is DET001/DET002 territory and would otherwise be double-reported.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.graph.calls import EXTERNAL
from repro.lint.registry import ProjectViolation, project_rule
from repro.lint.rules.determinism import (
    RNG_WRAPPER_MODULES,
    SIM_PACKAGES,
    _WALL_CLOCK_DATETIME_ATTRS,
    _WALL_CLOCK_TIME_ATTRS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph.project import ProjectGraph

#: ``random`` module attributes that are *not* sinks: constructing a
#: ``random.Random(seed)`` is the sanctioned seeded path, and DET001
#: already flags any ``random.Random``/``SystemRandom`` written in
#: simulation code, seeded or not.
_RANDOM_NON_SINKS = frozenset({"Random", "SystemRandom"})


def _is_sink(callee: str) -> bool:
    """Whether an EXTERNAL callee dotted name is a non-determinism sink."""
    parts = callee.split(".")
    if parts[0] == "time" and len(parts) == 2:
        return parts[1] in _WALL_CLOCK_TIME_ATTRS
    if parts[0] == "datetime":
        return parts[-1] in _WALL_CLOCK_DATETIME_ATTRS
    if callee == "os.urandom":
        return True
    if parts[0] == "random" and len(parts) >= 2:
        return parts[1] not in _RANDOM_NON_SINKS
    if callee.startswith("numpy.random."):
        return True
    return False


def _in_packages(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


@project_rule(
    "DET010",
    name="interprocedural-determinism-taint",
    summary="simulation code reaches a wall-clock/unseeded-RNG sink via calls",
    rationale=(
        "DET001/DET002 only see the file containing the sink. A sim-package "
        "function calling a helper that transitively reaches time.time() or "
        "the global random state breaks the serial == --jobs N contract just "
        "as surely, from a file that lints clean. DET010 propagates sink "
        "reachability up the whole-program call graph and reports the sim "
        "entry point of each tainted chain, chain cited, so the fix site "
        "(reroute through repro.sim.clock / repro.sim.rng) is explicit."
    ),
)
def check_det010(graph: "ProjectGraph") -> Iterator[ProjectViolation]:
    calls = graph.calls
    # Pass 1: functions whose own body calls a sink.  The sanctioned
    # wrapper module is exempt — it exists to contain those calls.
    sink_of: dict[str, str] = {}
    for site in calls.sites:
        if site.kind != EXTERNAL or not _is_sink(site.callee):
            continue
        caller = calls.nodes.get(site.caller)
        if caller is None or caller.module in RNG_WRAPPER_MODULES:
            continue
        sink_of.setdefault(site.caller, site.callee)

    # Pass 2: reverse reachability — every function with a call chain
    # ending in a directly-sinking function.
    chains = calls.chains_to(sink_of)

    for name in sorted(chains):
        chain = chains[name]
        if len(chain) < 2:  # the direct sink itself: DET001/DET002's job
            continue
        node = calls.nodes.get(name)
        if node is None or not _in_packages(node.module, SIM_PACKAGES):
            continue
        if node.module in RNG_WRAPPER_MODULES:
            continue
        # Report only chain *entry points*: tainted sim functions that
        # no other tainted sim function calls (interior links would
        # re-report the same chain once per hop).
        has_tainted_sim_caller = False
        for site in calls.callers_of(name):
            caller = calls.nodes.get(site.caller)
            if (
                site.caller in chains
                and caller is not None
                and _in_packages(caller.module, SIM_PACKAGES)
            ):
                has_tainted_sim_caller = True
                break
        if has_tainted_sim_caller:
            continue
        sink = sink_of[chain[-1]]
        cited = " -> ".join(chain + (f"{sink}()",))
        yield ProjectViolation(
            path=node.path,
            line=node.line,
            column=0,
            message=(
                f"{name} reaches non-deterministic sink {sink}() through "
                f"{cited}; route time through repro.sim.clock and "
                "randomness through repro.sim.rng"
            ),
        )
