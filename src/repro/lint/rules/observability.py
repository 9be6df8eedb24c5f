"""Rule OBS001: metric and span names must come from the catalogued namespace.

docs/observability.md is the operator-facing contract for every metric
series and every span name the pipeline emits; dashboards, trace
tooling, and the scoreboard all key on those names.  A registration
outside the catalogue is either a typo (it silently creates a parallel
series or splits a causal lane) or an undocumented name nobody will
find — both are lint failures.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import METRIC_CATALOGUE_PATH, FileContext
from repro.lint.registry import Violation, at_node, rule

#: Method names on a MetricsRegistry that register a series.
_REGISTRATION_METHODS = frozenset({"counter", "gauge", "histogram"})

#: Method names on a SpanTracer that open a named span. Kernel-layer
#: spans use dynamic event labels (a variable first argument), which
#: this rule deliberately leaves out of scope.
_SPAN_METHODS = frozenset({"begin", "instant"})

#: The linter itself registers nothing; keep it out of scope so fixture
#: snippets in its tests do not need a catalogue.
_EXCLUDED_PACKAGES = ("repro.lint",)


@rule(
    "OBS001",
    name="uncatalogued-metric",
    summary="metric or span registered outside the docs/observability.md catalogue",
    rationale=(
        "Every emitted series and span must appear in the "
        "docs/observability.md tables: the catalogue is what operators "
        "grep and what dashboards and trace viewers bind to. An "
        "uncatalogued name is invisible telemetry; a mistyped name "
        "splits one series (or causal lane) into two. Add the name to the catalogue table (with its kind "
        "and meaning) in the same change that registers it."
    ),
)
def check_obs001(ctx: FileContext) -> Iterator[Violation]:
    if ctx.in_packages(*_EXCLUDED_PACKAGES):
        return
    catalogue = ctx.project.metric_catalogue()
    if catalogue is None:
        return  # no catalogue to check against (e.g. detached snippet)
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.args
        ):
            continue
        attr = node.func.attr
        if attr in _REGISTRATION_METHODS:
            kind = "metric"
        elif attr in _SPAN_METHODS:
            kind = "span"
        else:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        name = first.value
        if "." not in name:
            continue  # not a namespaced name (e.g. collections use)
        if name not in catalogue:
            yield at_node(
                node,
                f"{kind} {name!r} is not catalogued in "
                f"{METRIC_CATALOGUE_PATH.as_posix()}; add it to the "
                f"{kind} tables or fix the name",
            )
