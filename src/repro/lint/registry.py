"""Rule registry: declaring, looking up, and enumerating lint rules.

Two rule kinds share the registry, distinguished by ``scope``:

* **file rules** (``scope="file"``, the :func:`rule` decorator) — a
  function from a :class:`~repro.lint.context.FileContext` to
  :class:`Violation` findings; run once per file;
* **project rules** (``scope="project"``, the :func:`project_rule`
  decorator) — a function from a whole-tree
  :class:`~repro.lint.graph.ProjectGraph` to
  :class:`ProjectViolation` findings (which carry their own anchor
  path); run once per engine pass, after the file rules.

Both are registered under stable ids (``DET001``, ``ARCH001``, ...)
with enough metadata to generate the ``--list-rules`` output and the
docs/static-analysis.md catalogue, and both obey the same
``--select`` filter and suppression comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    import ast

    from repro.lint.context import FileContext
    from repro.lint.graph.project import ProjectGraph


class Violation(NamedTuple):
    """One raw finding, before it is bound to a rule id and file path."""

    line: int
    column: int
    message: str


def at_node(node: "ast.AST", message: str) -> Violation:
    """A violation anchored at an AST node's location."""
    return Violation(
        getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message
    )


class ProjectViolation(NamedTuple):
    """One project-rule finding, anchored to an explicit file.

    ``path`` must be the ``display_path`` of one of the linted files so
    line-level suppression comments in that file apply.
    """

    path: str
    line: int
    column: int
    message: str


def at_node_in(path: str, node: "ast.AST", message: str) -> ProjectViolation:
    """A project violation anchored at an AST node in a named file."""
    return ProjectViolation(
        path, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message
    )


RuleCheck = Callable[["FileContext"], Iterable[Violation]]
ProjectRuleCheck = Callable[["ProjectGraph"], Iterable[ProjectViolation]]

#: RuleSpec.scope values.
FILE_SCOPE = "file"
PROJECT_SCOPE = "project"


@dataclass(frozen=True)
class RuleSpec:
    """A registered rule plus its catalogue metadata."""

    id: str
    name: str
    summary: str
    rationale: str
    check: Union[RuleCheck, ProjectRuleCheck]
    scope: str = field(default=FILE_SCOPE)


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


def project_rule(
    rule_id: str, *, name: str, summary: str, rationale: str
) -> Callable[[ProjectRuleCheck], ProjectRuleCheck]:
    """Decorator registering a whole-tree rule in :data:`REGISTRY`.

    Project rules run once per engine pass, over the graphs built from
    every file's parse.
    """

    def decorate(check: ProjectRuleCheck) -> ProjectRuleCheck:
        REGISTRY.add(
            RuleSpec(
                id=rule_id,
                name=name,
                summary=summary,
                rationale=rationale,
                check=check,
                scope=PROJECT_SCOPE,
            )
        )
        return check

    return decorate
