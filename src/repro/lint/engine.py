"""The lint engine: file discovery, rule execution, suppression.

Usage::

    from repro.lint import lint_paths

    report = lint_paths(["src"])
    print(report.render_text())
    raise SystemExit(report.exit_code)

The engine is purely static — it parses files with :mod:`ast` and never
imports or executes the code under analysis — so it is safe to run on
broken or hostile trees and its output depends only on file contents.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.lint.context import FileContext, ProjectContext, module_name_for_path
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.graph import ProjectGraph, build_project_graph
from repro.lint.registry import REGISTRY, RuleRegistry, RuleSpec
from repro.lint.suppressions import SuppressionIndex, scan_suppressions

#: Rule id attached to files that do not parse.
PARSE_RULE_ID = "PARSE"

#: Rule id attached when a rule itself crashes on a file (a linter bug
#: must surface as a diagnostic, not take down the CI job silently).
INTERNAL_RULE_ID = "INTERNAL"

_SKIP_DIRECTORIES = frozenset({"__pycache__", ".git", ".hg", ".venv", "venv"})


def iter_python_files(paths: Sequence[Union[str, Path]]) -> list[Path]:
    """Every ``.py`` file under ``paths``, deduplicated and sorted.

    Deduplication is by **resolved** path: overlapping inputs
    (``src src/repro``) and symlinked aliases of the same file count
    once, under the first spelling encountered, so no file is parsed —
    or reported — twice.
    """
    found: dict[Path, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRECTORIES for part in candidate.parts):
                    found.setdefault(candidate.resolve(), candidate)
        elif path.suffix == ".py":
            found.setdefault(path.resolve(), path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(found.values())


def _ensure_rules_registered() -> None:
    # Importing the rules package executes every @rule decorator.
    from repro.lint import rules  # noqa: F401  (import-for-side-effect)


#: One source to lint: (text, display path, concrete path, dotted module).
_Source = tuple[str, str, Path, str]


def _lint(
    sources: Iterable[_Source],
    *,
    project: ProjectContext,
    rules: Sequence[RuleSpec],
    graph_sink: Optional[list[ProjectGraph]] = None,
) -> LintReport:
    """Parse every source once, build the project graph, run every rule.

    A file that does not parse gets a PARSE diagnostic and stays out of
    the graph.  A rule that crashes becomes an INTERNAL diagnostic; a
    finding on a line (or in a file) whose suppression comment names
    the rule is counted as suppressed instead of reported.
    """
    report = LintReport()
    contexts: list[FileContext] = []
    suppressions: dict[str, SuppressionIndex] = {}
    for source, display, concrete, module in sources:
        report.files_checked += 1
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as error:
            report.extend(
                [
                    Diagnostic(
                        path=display,
                        line=error.lineno or 1,
                        column=(error.offset or 1) - 1,
                        rule=PARSE_RULE_ID,
                        message=f"syntax error: {error.msg}",
                    )
                ]
            )
            continue
        contexts.append(
            FileContext(
                path=concrete,
                display_path=display,
                module=module,
                source=source,
                tree=tree,
                project=project,
            )
        )
        suppressions[display] = scan_suppressions(source)

    graph = build_project_graph(contexts, root=project.root)
    if graph_sink is not None:
        graph_sink.append(graph)
    for spec in rules:
        try:
            violations = list(spec.check(graph))
        except Exception as error:  # noqa: BLE001 - must become a diagnostic
            report.extend(
                [
                    Diagnostic(
                        path="<project>",
                        line=1,
                        column=0,
                        rule=INTERNAL_RULE_ID,
                        message=(
                            f"rule {spec.id} crashed: "
                            f"{type(error).__name__}: {error}"
                        ),
                    )
                ]
            )
            continue
        for violation in violations:
            index = suppressions.get(violation.path)
            if index is not None and index.covers(violation.line, spec.id):
                report.suppressed += 1
                continue
            report.extend(
                [
                    Diagnostic(
                        path=violation.path,
                        line=violation.line,
                        column=violation.column,
                        rule=spec.id,
                        message=violation.message,
                    )
                ]
            )
    report.finalize()
    return report


def lint_source(
    source: str,
    *,
    path: Union[str, Path] = "<string>",
    module: Optional[str] = None,
    project: Optional[ProjectContext] = None,
    rules: Optional[Sequence[RuleSpec]] = None,
    registry: Optional[RuleRegistry] = None,
) -> tuple[list[Diagnostic], int]:
    """Lint one source text; returns (diagnostics, suppressed-count).

    Every rule runs over a one-file project graph.  ``module`` defaults
    to the package-aware inference from ``path``; tests pass it directly
    to place snippets in arbitrary packages.
    """
    _ensure_rules_registered()
    concrete = Path(path)
    if module is None:
        module = module_name_for_path(concrete) if concrete.exists() else concrete.stem
    if rules is None:
        rules = list(registry if registry is not None else REGISTRY)
    report = _lint(
        [(source, str(path), concrete, module)],
        project=project if project is not None else ProjectContext(root=None),
        rules=rules,
    )
    return report.diagnostics, report.suppressed


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    project_root: Optional[Union[str, Path]] = None,
    registry: Optional[RuleRegistry] = None,
    graph_sink: Optional[list[ProjectGraph]] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and return the report.

    One pass: every file is parsed once, the project graphs are built
    from those parses, and every selected rule runs over them.

    Args:
        paths: files and/or directories to scan.
        select: run only these rule ids (default: all registered).
        project_root: where project-level inputs (the metric catalogue)
            live; auto-discovered from the first path when omitted.
        registry: alternate rule registry (tests); default the global one.
        graph_sink: the built :class:`ProjectGraph` is appended here, so
            callers can inspect the graphs without a second build.
    """
    _ensure_rules_registered()
    files = iter_python_files(paths)
    active_registry = registry if registry is not None else REGISTRY
    specs = active_registry.select(select)
    if project_root is not None:
        project = ProjectContext(root=Path(project_root))
    elif files:
        project = ProjectContext.discover(files[0])
    else:
        project = ProjectContext(root=None)
    return _lint(
        (
            (
                file_path.read_text(encoding="utf-8"),
                str(file_path),
                file_path,
                module_name_for_path(file_path),
            )
            for file_path in files
        ),
        project=project,
        rules=specs,
        graph_sink=graph_sink,
    )
