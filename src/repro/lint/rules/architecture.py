"""ARCH001: layering enforcement over the import graph.

The repo's architecture is a DAG of layers — the event kernel at the
bottom, the paper harnesses and CLI at the top::

    sim  <-  radio  <-  bluetooth  <-  lan  <-  core  <-  experiments

with ``obs``/``faults``/``lint`` as side layers that only look down at
``sim``.  ARCH001 turns that sentence into an enforced invariant: every
runtime project import must point at the importer's own layer or a
declared (transitive) dependency, and the runtime import graph must be
acyclic.  ``if TYPE_CHECKING:`` imports are exempt (they do not exist
at runtime); function-body imports count for layering (they are real
runtime dependencies) but not for the cycle check (they cannot deadlock
module initialisation).

Genuine, reviewed entanglements are listed in :data:`EDGE_EXCEPTIONS`
rather than silenced in-file, so the full exception inventory lives in
one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.lint.registry import Violation, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph.project import ProjectGraph

#: Direct allowed dependencies of each layer (transitive closure is
#: computed below): the architecture DAG, one line per layer.
LAYER_DEPS: dict[str, frozenset[str]] = {
    "sim": frozenset(),
    "analysis": frozenset(),
    "building": frozenset({"sim"}),
    "obs": frozenset({"sim"}),
    "lint": frozenset({"sim"}),
    "faults": frozenset({"sim", "obs"}),
    "mobility": frozenset({"sim", "building"}),
    "radio": frozenset({"sim", "obs"}),
    "bluetooth": frozenset({"radio"}),
    "lan": frozenset({"bluetooth", "faults"}),
    "core": frozenset({"lan", "mobility", "analysis"}),
    "api": frozenset({"core"}),
    "runner": frozenset({"api", "obs"}),
    "experiments": frozenset({"core", "runner", "faults"}),
    "bench": frozenset({"experiments"}),
    "cli": frozenset({"bench", "lint", "experiments"}),
}

#: Modules (and everything under them) whose layer is not their
#: package's.  Anything else under ``repro.X`` is in layer ``X`` when
#: ``X`` is a layer.  The ``repro`` package itself is the public api;
#: ``trace_cli`` is the observability *command line*: it orchestrates
#: experiments and the runner (deferred imports), which is cli-layer
#: behaviour living in the obs package for discoverability.
LAYER_OVERRIDES: dict[str, str] = {
    "repro": "api",
    "repro.__main__": "cli",
    "repro.obs.trace_cli": "cli",
}

#: Reviewed module-to-module edges that cross the DAG upwards.  The
#: radio package reuses two leaf bluetooth definitions (the FHS packet
#: dataclass and the RF channel count) rather than duplicating them;
#: both targets are constants/dataclass modules with no radio imports,
#: so no cycle can form.
EDGE_EXCEPTIONS: frozenset[tuple[str, str]] = frozenset(
    {
        ("repro.radio.channel", "repro.bluetooth.packets"),
        ("repro.radio.interference", "repro.bluetooth.constants"),
    }
)


def _transitive_deps(layers: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    closed: dict[str, frozenset[str]] = {}

    def close(layer: str, trail: tuple[str, ...] = ()) -> frozenset[str]:
        if layer in closed:
            return closed[layer]
        if layer in trail:
            raise ValueError(f"LAYER_DEPS itself has a cycle at {layer!r}")
        deps = set(layers[layer])
        for dep in layers[layer]:
            deps |= close(dep, trail + (layer,))
        closed[layer] = frozenset(deps)
        return closed[layer]

    for layer in layers:
        close(layer)
    return closed


ALLOWED: dict[str, frozenset[str]] = _transitive_deps(LAYER_DEPS)


def layer_of(module: str) -> Optional[str]:
    """The layer a dotted module belongs to, or None if unmapped."""
    probe = module
    while probe:
        if probe in LAYER_OVERRIDES:
            return LAYER_OVERRIDES[probe]
        parent, _, name = probe.rpartition(".")
        if parent == "repro" and name in LAYER_DEPS:
            return name
        probe = parent
    return None


@rule(
    "ARCH001",
    name="layering",
    summary="runtime import violates the layer DAG (or forms a cycle)",
    rationale=(
        "The kernel-up layering (sim <- radio <- bluetooth <- lan <- core <- "
        "experiments) is what keeps the simulator testable in isolation and "
        "the determinism rules' package boundaries meaningful. An upward "
        "import — sim reaching into core, bluetooth into experiments — "
        "couples the bottom of the stack to the top, and an import cycle "
        "makes initialisation order load-bearing. Both regress silently "
        "without a whole-program check; file-local lint cannot see them."
    ),
)
def check_arch001(graph: "ProjectGraph") -> Iterator[Violation]:
    for edge in graph.imports.runtime_project_edges():
        source_layer = layer_of(edge.source)
        target_layer = layer_of(edge.target)
        if source_layer is None or target_layer is None:
            continue  # scripts/tests outside the mapped tree
        if target_layer == source_layer or target_layer in ALLOWED[source_layer]:
            continue
        if (edge.source, edge.target) in EDGE_EXCEPTIONS:
            continue
        context = graph.file_for_module(edge.source)
        if context is None:
            continue
        yield Violation(
            path=context.display_path,
            line=edge.line,
            column=0,
            message=(
                f"layer {source_layer!r} ({edge.source}) must not import "
                f"layer {target_layer!r} ({edge.target}); allowed from "
                f"{source_layer!r}: "
                f"{', '.join(sorted(ALLOWED[source_layer])) or '(nothing)'}"
            ),
        )

    for cycle in graph.imports.cycles():
        anchor = graph.file_for_module(cycle[0])
        yield Violation(
            path=anchor.display_path if anchor is not None else "<project>",
            line=1,
            column=0,
            message=(
                "import-time cycle: " + " -> ".join(cycle + (cycle[0],))
            ),
        )
