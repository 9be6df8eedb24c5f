"""DET010: simulation code must not reach a wall-clock or unseeded-RNG sink.

The determinism contract rests on simulated time coming from
``repro.sim.clock`` and randomness from ``repro.sim.rng``.  DET010 reads
the project graph for every way simulation-package code reaches a
non-deterministic **sink** around them:

* a *direct* sink — an import of ``random``, ``time`` or
  ``numpy.random``, or a sink call in the function or module body that
  makes it — is reported at the sink's own line;
* an *indirect* one — a call to a helper that, any number of calls away
  and possibly outside the sim packages, bottoms out in a sink — is
  reported at the simulation-package entry point of the tainted chain,
  with the full chain cited.

Sinks are matched on a call site's callee text whatever its resolution
kind: ``def f(random): random.random()`` is a dynamic call, but still a
draw from the process-global RNG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.graph.calls import PROJECT
from repro.lint.registry import Violation, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph.project import ProjectGraph

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

#: The sanctioned RNG wrapper: exempt as a sink site and as a chain link.
RNG_WRAPPER_MODULES = frozenset({"repro.sim.rng"})

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

#: ``random`` module attributes that are *not* sinks: constructing a
#: ``random.Random(seed)`` is the sanctioned seeded path, so a helper
#: building one taints nobody.  Simulation code still builds none
#: outside repro.sim.rng: there it is a direct finding.
_RANDOM_NON_SINKS = frozenset({"Random", "SystemRandom"})

_FIX = "route time through repro.sim.clock and randomness through repro.sim.rng"


def _is_sink(callee: str) -> bool:
    """Whether a call to dotted ``callee`` reads non-deterministic state."""
    parts = callee.split(".")
    if parts[0] == "time" and len(parts) == 2:
        return parts[1] in _WALL_CLOCK_TIME_ATTRS
    if len(parts) >= 2 and parts[-2] in ("datetime", "date"):
        return parts[-1] in _WALL_CLOCK_DATETIME_ATTRS
    if callee == "os.urandom":
        return True
    if parts[0] == "random" and len(parts) >= 2:
        return parts[1] not in _RANDOM_NON_SINKS
    return callee.startswith(("numpy.random.", "np.random."))


def _is_sink_module(target: str) -> bool:
    """Whether importing module ``target`` brings a sink into scope."""
    return (
        target == "time"
        or target.split(".", 1)[0] == "random"
        or target == "numpy.random"
        or target.startswith("numpy.random.")
    )


def _in_sim(module: str) -> bool:
    return module not in RNG_WRAPPER_MODULES and any(
        module == package or module.startswith(package + ".")
        for package in SIM_PACKAGES
    )


@rule(
    "DET010",
    name="determinism-taint",
    summary="simulation code reaches a wall-clock/unseeded-RNG sink",
    rationale=(
        "All randomness must flow through repro.sim.rng.RandomStream, which "
        "derives named child streams from the experiment seed, and all time "
        "through repro.sim.clock's integer ticks. A global-RNG draw or a "
        "host-clock read differs per run and per worker, so it breaks the "
        "serial == --jobs N contract and byte-identical replay, whether sim "
        "code makes it directly or through a helper that lints clean on its "
        "own. DET010 reports each direct sink at its line and each tainted "
        "call chain at its sim entry point, chain cited, so the fix site is "
        "explicit."
    ),
)
def check_det010(graph: "ProjectGraph") -> Iterator[Violation]:
    sim_paths = {
        context.module: context.display_path
        for context in graph.files
        if _in_sim(context.module)
    }
    for edge in graph.imports:
        path = sim_paths.get(edge.source)
        if path is not None and _is_sink_module(edge.target):
            yield Violation(
                path,
                edge.line,
                0,
                f"import of {edge.target!r} in simulation code; {_FIX}",
            )

    # Direct sinks in sim code, and the functions whose own body calls
    # a sink (outside the wrapper module, which exists to contain them).
    calls = graph.calls
    sim_files = frozenset(sim_paths.values())
    sink_of: dict[str, str] = {}
    for site in calls.sites:
        if site.kind == PROJECT:
            continue
        sink = _is_sink(site.callee)
        if site.path in sim_files and (sink or site.callee.startswith("random.")):
            yield Violation(
                site.path,
                site.line,
                0,
                f"{site.caller} calls {site.callee}() directly; {_FIX}",
            )
        caller = calls.nodes.get(site.caller)
        if sink and caller is not None and caller.module not in RNG_WRAPPER_MODULES:
            sink_of.setdefault(site.caller, site.callee)

    # Reverse reachability: every function with a call chain ending in a
    # directly-sinking function.  Chains of length 1 were reported at
    # their sink lines above.
    chains = calls.chains_to(sink_of)
    for name in sorted(chains):
        chain = chains[name]
        node = calls.nodes.get(name)
        if len(chain) < 2 or node is None or not _in_sim(node.module):
            continue
        # Report only chain *entry points*: tainted sim functions that
        # no other tainted sim function calls (interior links would
        # re-report the same chain once per hop).
        if any(
            site.caller in chains and site.path in sim_files
            for site in calls.callers_of(name)
        ):
            continue
        sink = sink_of[chain[-1]]
        cited = " -> ".join(chain + (f"{sink}()",))
        yield Violation(
            node.path,
            node.line,
            0,
            f"{name} reaches non-deterministic sink {sink}() through "
            f"{cited}; {_FIX}",
        )
