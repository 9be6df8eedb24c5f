"""The ``@hot_path`` marker for allocation-audited functions.

Profiling (docs/performance.md) showed a handful of per-event functions
dominate wall time: the kernel drains, the inquiry hop schedule, radio
coverage queries, and LAN delivery.  Decorating one with
:func:`hot_path` declares "allocation here is a measured cost": the
linter's whole-program PERF001 rule then audits the function *and
everything it transitively calls* for avoidable per-call allocation
(comprehensions, f-strings, closures, ``**kwargs`` expansion).

The decorator itself is a pure identity function — it returns the
function object unchanged, adds no wrapper frame, and therefore costs
exactly zero at call time (``bips bench`` guards this).  The marker is
consumed statically: the linter reads the decoration from the AST and
never imports this module.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable[..., object])


def hot_path(func: F) -> F:
    """Mark ``func`` for the PERF001 hot-path allocation audit.

    Identity decorator: no wrapper, no runtime overhead.
    """
    return func
