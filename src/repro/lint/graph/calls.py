"""A name-resolution-based whole-program call graph.

The resolver only follows bindings it can prove statically:

* bare names → local defs in the same module, then imported names
  (following ``as`` aliases and ``__init__`` re-export chains);
* ``self.method()`` / ``cls.method()`` → methods of the enclosing
  class, including bases defined in the same module;
* ``Class.method()`` and ``alias.attr(...)`` chains rooted at an
  imported module or class;
* ``Class(...)`` → the class's ``__init__`` when it defines one.

Anything else — calls through instance attributes, subscripts,
call results, locals — is **conservatively skipped** and counted in
:class:`ResolutionStats`, never guessed.  The graph therefore
under-approximates edges through dynamic dispatch and slightly
over-approximates within a function (nested-function bodies are
attributed to their enclosing function: creating a closure that calls
``f`` counts as the outer function calling ``f``, which is the right
bias for taint and allocation analyses).  Calls in module and class
bodies, which run at import time, belong to the module's ``<module>``
node.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.lint.graph.imports import resolve_relative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import FileContext

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Resolution outcomes recorded per call site.
PROJECT = "project"  #: resolved to a function defined in the linted tree
EXTERNAL = "external"  #: resolved to an imported non-project module/object
BUILTIN = "builtin"  #: a Python builtin
DYNAMIC = "dynamic"  #: provably not statically addressable; skipped
UNKNOWN = "unknown"  #: statically addressable in form, but unresolvable

#: Qualname of the node holding a module's import-time (module- and
#: class-body) calls.
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class FunctionNode:
    """One function or method defined in the linted tree."""

    name: str  #: fully qualified, e.g. ``repro.sim.kernel.Kernel.step``
    module: str
    qualname: str  #: within the module, e.g. ``Kernel.step``
    path: str  #: display path of the defining file
    line: int
    decorators: tuple[str, ...] = ()  #: resolved dotted decorator names


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    caller: str  #: FunctionNode.name of the enclosing function
    callee: str  #: resolved target (node name, dotted external, or source text)
    kind: str  #: PROJECT / EXTERNAL / BUILTIN / DYNAMIC / UNKNOWN
    path: str
    line: int


@dataclass
class ResolutionStats:
    """How many call sites each resolution outcome covered."""

    counts: dict[str, int] = field(default_factory=dict)

    def note(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def addressable_resolution(self) -> float:
        """Of the statically-addressable call sites (everything except
        the provably-dynamic ones), the share actually resolved."""
        addressed = self.total - self.counts.get(DYNAMIC, 0)
        if not addressed:
            return 1.0
        return (addressed - self.counts.get(UNKNOWN, 0)) / addressed


@dataclass
class _ModuleIndex:
    """Per-module name bindings gathered in the first pass."""

    module: str
    path: str
    #: top-level function name -> node name
    functions: dict[str, str] = field(default_factory=dict)
    #: class name -> {method name -> node name}
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: class name -> base class names (same-module resolution only)
    bases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: imported alias -> ("module", dotted) or ("object", dotted)
    aliases: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: module-level variable -> class name it is an instance of (when the
    #: assignment is an evident ``name = ClassName(...)``), else ""
    variables: dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Call edges between :class:`FunctionNode`s of one linted tree."""

    def __init__(self) -> None:
        self.nodes: dict[str, FunctionNode] = {}
        self.sites: list[CallSite] = []
        self.stats = ResolutionStats()
        self._callees: dict[str, list[CallSite]] = {}
        self._callers: dict[str, list[CallSite]] = {}
        self._indexes: dict[str, _ModuleIndex] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, contexts: "Iterable[FileContext]") -> "CallGraph":
        graph = cls()
        ordered = sorted(contexts, key=lambda c: c.module)
        for context in ordered:
            graph._index_module(context)
        for context in ordered:
            graph._scan_calls(context)
        return graph

    def _index_module(self, context: "FileContext") -> None:
        module = context.module
        index = _ModuleIndex(module=module, path=context.display_path)
        is_package = context.path.name == "__init__.py"
        for statement in context.tree.body:
            self._index_statement(context, index, statement, is_package)
        self._indexes[module] = index

    def _index_statement(
        self,
        context: "FileContext",
        index: _ModuleIndex,
        statement: ast.stmt,
        is_package: bool,
    ) -> None:
        module = index.module
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node_name = f"{module}.{statement.name}"
            index.functions[statement.name] = node_name
            self._add_node(context, node_name, statement.name, statement)
        elif isinstance(statement, ast.ClassDef):
            methods: dict[str, str] = {}
            for item in statement.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{statement.name}.{item.name}"
                    node_name = f"{module}.{qual}"
                    methods[item.name] = node_name
                    self._add_node(context, node_name, qual, item)
            index.classes[statement.name] = methods
            index.bases[statement.name] = tuple(
                base.id for base in statement.bases if isinstance(base, ast.Name)
            )
        elif isinstance(statement, ast.Import):
            for alias in statement.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                index.aliases[bound] = ("module", target)
        elif isinstance(statement, ast.ImportFrom):
            base = resolve_relative(module, is_package, statement.level, statement.module)
            if not base:
                return
            for alias in statement.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                index.aliases[bound] = ("object", f"{base}.{alias.name}")
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (
                statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            )
            value = statement.value
            instance_of = ""
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
            ):
                instance_of = value.func.id
            for target in targets:
                if isinstance(target, ast.Name):
                    index.variables[target.id] = instance_of
        elif isinstance(statement, ast.If):
            # Index both arms: TYPE_CHECKING imports still bind names
            # the resolver should recognise (they resolve as external
            # or project objects exactly like runtime imports).
            for child in statement.body + statement.orelse:
                self._index_statement(context, index, child, is_package)
        elif isinstance(statement, (ast.Try,)):
            for child in statement.body + statement.orelse + statement.finalbody:
                self._index_statement(context, index, child, is_package)
            for handler in statement.handlers:
                for child in handler.body:
                    self._index_statement(context, index, child, is_package)

    def _add_node(
        self,
        context: "FileContext",
        node_name: str,
        qualname: str,
        statement: ast.stmt,
    ) -> None:
        assert isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        self.nodes[node_name] = FunctionNode(
            name=node_name,
            module=context.module,
            qualname=qualname,
            path=context.display_path,
            line=statement.lineno,
            decorators=tuple(
                dotted
                for dotted in (_dotted_text(d) for d in statement.decorator_list)
                if dotted
            ),
        )

    # -- object resolution ----------------------------------------------

    def _resolve_object(self, dotted: str, _depth: int = 0) -> tuple[str, str]:
        """Resolve a dotted reference to a (kind, name) pair.

        Follows ``__init__`` re-export chains: ``repro.faults.profile_names``
        resolves through ``from .profiles import profile_names`` in the
        package ``__init__`` to ``repro.faults.profiles.profile_names``.
        """
        if _depth > 8:  # re-export cycle; give up rather than loop
            return (UNKNOWN, dotted)
        parts = dotted.split(".")
        # Longest known project-module prefix.
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self._indexes:
                rest = parts[cut:]
                return self._resolve_in_module(module, rest, dotted, _depth)
        return (EXTERNAL, dotted)

    def _resolve_in_module(
        self, module: str, rest: list[str], dotted: str, depth: int
    ) -> tuple[str, str]:
        index = self._indexes[module]
        if not rest:
            return (EXTERNAL, dotted)  # calling a module: not a function
        head = rest[0]
        if head in index.functions and len(rest) == 1:
            return (PROJECT, index.functions[head])
        if head in index.classes:
            methods = self._class_methods(module, head)
            if len(rest) == 1:
                init = methods.get("__init__")
                # Class() invokes __init__ when one is defined; a
                # dataclass/namedtuple without one has no body to taint.
                return (PROJECT, init) if init else (EXTERNAL, dotted)
            if len(rest) == 2 and rest[1] in methods:
                return (PROJECT, methods[rest[1]])
            if len(rest) == 2 and rest[1].startswith("__") and rest[1].endswith("__"):
                return (BUILTIN, dotted)  # dunder inherited from object
            return (UNKNOWN, dotted)
        if head in index.aliases:
            kind, target = index.aliases[head]
            return self._resolve_object(".".join([target] + rest[1:]), depth + 1)
        if head in index.variables:
            instance_of = index.variables[head]
            if instance_of in index.classes and len(rest) == 2:
                target = self._class_methods(module, instance_of).get(rest[1])
                if target is not None:
                    return (PROJECT, target)
            return (DYNAMIC, dotted)  # module-level object; value untracked
        return (UNKNOWN, dotted)

    def _class_methods(self, module: str, class_name: str) -> dict[str, str]:
        """Methods of a class, including same-module single-level bases."""
        index = self._indexes[module]
        methods = dict(index.classes.get(class_name, {}))
        for base in index.bases.get(class_name, ()):
            for name, node in index.classes.get(base, {}).items():
                methods.setdefault(name, node)
        return methods

    # -- call-site scanning ----------------------------------------------

    def _scan_calls(self, context: "FileContext") -> None:
        module = context.module
        index = self._indexes[module]
        body = f"{module}.{MODULE_BODY}"
        self.nodes[body] = FunctionNode(
            name=body,
            module=module,
            qualname=MODULE_BODY,
            path=context.display_path,
            line=1,
        )
        for statement in context.tree.body:
            self._scan_container(context, index, statement, class_name=None)

    def _scan_container(
        self,
        context: "FileContext",
        index: _ModuleIndex,
        statement: ast.stmt,
        class_name: Optional[str],
    ) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{class_name}.{statement.name}" if class_name else statement.name
            self._scan_function(context, index, statement, f"{index.module}.{qual}", class_name)
        elif isinstance(statement, ast.ClassDef):
            for item in statement.body:
                self._scan_container(context, index, item, class_name=statement.name)
        elif isinstance(statement, (ast.If, ast.Try)):
            children = list(getattr(statement, "body", []))
            children += list(getattr(statement, "orelse", []))
            children += list(getattr(statement, "finalbody", []))
            for handler in getattr(statement, "handlers", []):
                children += list(handler.body)
            for child in children:
                self._scan_container(context, index, child, class_name)
        else:
            self._record_calls(
                context, index, statement, f"{index.module}.{MODULE_BODY}",
                None, frozenset(),
            )

    def _scan_function(
        self,
        context: "FileContext",
        index: _ModuleIndex,
        function: ast.stmt,
        node_name: str,
        class_name: Optional[str],
    ) -> None:
        assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        local_names = _local_bindings(function)
        # Function-body imports rebind names locally; fold them into the
        # resolver's view for this function only.
        local_aliases = dict(index.aliases)
        for sub in ast.walk(function):
            if isinstance(sub, ast.Import):
                for alias in sub.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    local_aliases[bound] = ("module", target)
            elif isinstance(sub, ast.ImportFrom):
                base = resolve_relative(
                    index.module, context.path.name == "__init__.py", sub.level, sub.module
                )
                if base:
                    for alias in sub.names:
                        if alias.name != "*":
                            local_aliases[alias.asname or alias.name] = (
                                "object",
                                f"{base}.{alias.name}",
                            )
        scoped = _ModuleIndex(
            module=index.module,
            path=index.path,
            functions=index.functions,
            classes=index.classes,
            bases=index.bases,
            aliases=local_aliases,
            variables=index.variables,
        )
        self._record_calls(context, scoped, function, node_name, class_name, local_names)

    def _record_calls(
        self,
        context: "FileContext",
        index: _ModuleIndex,
        body: ast.AST,
        node_name: str,
        class_name: Optional[str],
        local_names: frozenset[str],
    ) -> None:
        for sub in ast.walk(body):
            if isinstance(sub, ast.Call):
                kind, callee = self._resolve_call(
                    index, sub.func, class_name, local_names
                )
                site = CallSite(
                    caller=node_name,
                    callee=callee,
                    kind=kind,
                    path=context.display_path,
                    line=sub.lineno,
                )
                self.sites.append(site)
                self.stats.note(kind)
                if kind == PROJECT:
                    self._callees.setdefault(node_name, []).append(site)
                    self._callers.setdefault(callee, []).append(site)

    def _resolve_call(
        self,
        index: _ModuleIndex,
        func: ast.expr,
        class_name: Optional[str],
        local_names: frozenset[str],
    ) -> tuple[str, str]:
        module = index.module
        if isinstance(func, ast.Name):
            name = func.id
            if name in local_names:
                return (DYNAMIC, name)
            if name in index.functions:
                return (PROJECT, index.functions[name])
            if name in index.classes:
                methods = self._class_methods(module, name)
                init = methods.get("__init__")
                return (PROJECT, init) if init else (EXTERNAL, f"{module}.{name}")
            if name in index.aliases:
                kind, target = index.aliases[name]
                if kind == "module":
                    return (EXTERNAL, target)  # calling a module object
                return self._resolve_object(target)
            if name in index.variables:
                return (DYNAMIC, name)  # module-level object; value untracked
            if name in _BUILTIN_NAMES:
                return (BUILTIN, name)
            return (UNKNOWN, name)
        if isinstance(func, ast.Attribute):
            dotted = _dotted_text(func)
            if not dotted:
                return (DYNAMIC, f"<{type(func.value).__name__}>.{func.attr}")
            parts = dotted.split(".")
            root = parts[0]
            if root in ("self", "cls") and class_name is not None:
                if len(parts) == 2:
                    methods = self._class_methods(module, class_name)
                    target = methods.get(parts[1])
                    if target is not None:
                        return (PROJECT, target)
                    return (DYNAMIC, dotted)  # attribute, property, or base elsewhere
                return (DYNAMIC, dotted)  # self.obj.method(): receiver untyped
            if root in local_names:
                return (DYNAMIC, dotted)
            if root in index.classes:
                resolved = self._resolve_in_module(module, parts, dotted, 0)
                return resolved if resolved[0] == PROJECT else (UNKNOWN, dotted)
            if root in index.aliases:
                kind, target = index.aliases[root]
                return self._resolve_object(".".join([target] + parts[1:]))
            if root in index.variables:
                # A module-level singleton: resolve `REGISTRY.add(...)`
                # through its evident `REGISTRY = RuleRegistry()` class.
                instance_of = index.variables[root]
                if instance_of in index.classes and len(parts) == 2:
                    target = self._class_methods(module, instance_of).get(parts[1])
                    if target is not None:
                        return (PROJECT, target)
                return (DYNAMIC, dotted)
            if root in _BUILTIN_NAMES:
                return (BUILTIN, dotted)
            return (UNKNOWN, dotted)
        # Calls on call results, subscripts, lambdas: dynamic by form.
        return (DYNAMIC, f"<{type(func).__name__}>")

    # -- queries ---------------------------------------------------------

    def callees_of(self, node_name: str) -> tuple[CallSite, ...]:
        return tuple(self._callees.get(node_name, ()))

    def callers_of(self, node_name: str) -> tuple[CallSite, ...]:
        return tuple(self._callers.get(node_name, ()))

    def reachable_from(self, roots: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """BFS closure over project edges: node -> shortest call chain
        from the nearest root (chains start at the root, end at node)."""
        chains: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for root in sorted(set(roots)):
            if root not in chains:
                chains[root] = (root,)
                frontier.append(root)
        while frontier:
            next_frontier: list[str] = []
            for node in frontier:
                for site in self._callees.get(node, ()):
                    if site.callee not in chains:
                        chains[site.callee] = chains[node] + (site.callee,)
                        next_frontier.append(site.callee)
            frontier = next_frontier
        return chains

    def chains_to(self, targets: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """Reverse BFS: caller -> shortest chain from caller to a target."""
        chains: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for target in sorted(set(targets)):
            if target not in chains:
                chains[target] = (target,)
                frontier.append(target)
        while frontier:
            next_frontier: list[str] = []
            for node in frontier:
                for site in self._callers.get(node, ()):
                    if site.caller not in chains:
                        chains[site.caller] = (site.caller,) + chains[node]
                        next_frontier.append(site.caller)
            frontier = next_frontier
        return chains


def _dotted_text(node: ast.expr) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def _local_bindings(function: ast.stmt) -> frozenset[str]:
    """Parameter and locally-assigned names of ``function``.

    Locals shadow module scope; a call through one is treated as
    dynamic rather than resolved to a same-named module binding.
    Names bound by function-body imports are excluded — those are
    resolvable aliases, handled separately.
    """
    assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
    names: set[str] = set()
    imported: set[str] = set()
    for sub in ast.walk(function):
        # Parameters of the function itself and of any nested
        # function/lambda all shadow module scope for this analysis.
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = sub.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                names.add(arg.arg)
    for sub in ast.walk(function):
        if isinstance(sub, ast.Import):
            for alias in sub.names:
                imported.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(sub, ast.ImportFrom):
            for alias in sub.names:
                imported.add(alias.asname or alias.name)
        elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets
                if isinstance(sub, ast.Assign)
                else [sub.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(sub.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            for leaf in ast.walk(sub.optional_vars):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not function:
            names.add(sub.name)
        elif isinstance(sub, ast.comprehension):
            for leaf in ast.walk(sub.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    return frozenset(names - imported)
