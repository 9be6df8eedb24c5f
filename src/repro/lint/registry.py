"""Rule registry: declaring, looking up, and enumerating lint rules.

A rule is a function from the linted tree's
:class:`~repro.lint.graph.ProjectGraph` (import graph, call graph and
every parsed file) to :class:`Violation` findings, each anchored to a
file and line.  Rules are registered with the :func:`rule` decorator
under stable ids (``DET010``, ``ARCH001``, ...) with enough metadata to
generate the ``--list-rules`` output and the docs/static-analysis.md
catalogue; every rule obeys the same ``--select`` filter and
suppression comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    import ast

    from repro.lint.graph.project import ProjectGraph


class Violation(NamedTuple):
    """One finding, before it is bound to a rule id.

    ``path`` must be the ``display_path`` of one of the linted files so
    line-level suppression comments in that file apply.
    """

    path: str
    line: int
    column: int
    message: str


def at_node(path: str, node: "ast.AST", message: str) -> Violation:
    """A violation anchored at an AST node's location in file ``path``."""
    return Violation(
        path, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message
    )


RuleCheck = Callable[["ProjectGraph"], Iterable[Violation]]


@dataclass(frozen=True)
class RuleSpec:
    """A registered rule plus its catalogue metadata."""

    id: str
    name: str
    summary: str
    rationale: str
    check: RuleCheck


class RuleRegistry:
    """The set of known rules, keyed by id."""

    def __init__(self) -> None:
        self._rules: dict[str, RuleSpec] = {}

    def add(self, spec: RuleSpec) -> None:
        if spec.id in self._rules:
            raise ValueError(f"duplicate lint rule id {spec.id!r}")
        self._rules[spec.id] = spec

    def get(self, rule_id: str) -> RuleSpec:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(
                f"unknown lint rule {rule_id!r}; known: {', '.join(self.ids())}"
            ) from None

    def ids(self) -> list[str]:
        return sorted(self._rules)

    def __iter__(self) -> Iterator[RuleSpec]:
        for rule_id in self.ids():
            yield self._rules[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def select(self, select: Optional[Iterable[str]] = None) -> list[RuleSpec]:
        """The enabled subset: the ``select`` ids, or every rule.

        Unknown ids raise :class:`KeyError` so a typo in CI fails loudly
        instead of silently disabling a gate.
        """
        chosen = list(select) if select is not None else self.ids()
        return [self.get(rule_id) for rule_id in chosen]


#: The process-wide registry that ``@rule`` populates on import of
#: :mod:`repro.lint.rules`.
REGISTRY = RuleRegistry()


def rule(
    rule_id: str, *, name: str, summary: str, rationale: str
) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator registering ``check`` under ``rule_id`` in :data:`REGISTRY`."""

    def decorate(check: RuleCheck) -> RuleCheck:
        REGISTRY.add(
            RuleSpec(
                id=rule_id,
                name=name,
                summary=summary,
                rationale=rationale,
                check=check,
            )
        )
        return check

    return decorate
