"""The project import graph: edge flags, resolution, cycles."""

from __future__ import annotations

from repro.lint import lint_paths
from repro.lint.graph.imports import resolve_relative
from repro.lint.registry import RuleRegistry


def build_graph(root):
    """Build a ProjectGraph over ``root`` with no rules running."""
    sink = []
    lint_paths([root], registry=RuleRegistry(), graph_sink=sink)
    return sink[0]


def edges(graph, source, target):
    return [
        e
        for e in graph.imports
        if e.source == source and e.target == target
    ]


class TestResolveRelative:
    def test_absolute(self):
        assert resolve_relative("repro.sim.kernel", False, 0, "os.path") == "os.path"

    def test_level_one_module(self):
        assert (
            resolve_relative("repro.sim.kernel", False, 1, "clock")
            == "repro.sim.clock"
        )

    def test_level_one_package_init(self):
        assert resolve_relative("repro.sim", True, 1, "clock") == "repro.sim.clock"

    def test_level_two(self):
        assert (
            resolve_relative("repro.sim.kernel", False, 2, "obs.events")
            == "repro.obs.events"
        )

    def test_bare_from_dot_import(self):
        assert resolve_relative("repro.sim.kernel", False, 1, None) == "repro.sim"


class TestEdgeFlags:
    def test_plain_import_is_runtime(self, package_tree):
        package_tree("pkg/a.py", "from pkg import b\n")
        root = package_tree("pkg/b.py", "X = 1\n").parent.parent
        (edge,) = edges(build_graph(root), "pkg.a", "pkg.b")
        assert not edge.typing_only and not edge.deferred

    def test_type_checking_guard_sets_typing_only(self, package_tree):
        package_tree(
            "pkg/a.py",
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from pkg import b\n",
        )
        root = package_tree("pkg/b.py", "X = 1\n").parent.parent
        (edge,) = edges(build_graph(root), "pkg.a", "pkg.b")
        assert edge.typing_only

    def test_function_body_import_sets_deferred(self, package_tree):
        package_tree(
            "pkg/a.py",
            "def late():\n    from pkg import b\n    return b\n",
        )
        root = package_tree("pkg/b.py", "X = 1\n").parent.parent
        (edge,) = edges(build_graph(root), "pkg.a", "pkg.b")
        assert edge.deferred and not edge.typing_only

    def test_from_import_records_submodule_edge(self, package_tree):
        package_tree("pkg/sub/impl.py", "def f():\n    return 1\n")
        root = package_tree(
            "pkg/a.py", "from pkg.sub import impl\n"
        ).parent.parent
        graph = build_graph(root)
        assert edges(graph, "pkg.a", "pkg.sub.impl")
        assert edges(graph, "pkg.a", "pkg.sub")


class TestCycles:
    def test_runtime_cycle_detected(self, package_tree):
        package_tree("pkg/a.py", "from pkg import b\n")
        root = package_tree("pkg/b.py", "from pkg import a\n").parent.parent
        assert build_graph(root).imports.cycles() == [("pkg.a", "pkg.b")]

    def test_deferred_import_breaks_cycle(self, package_tree):
        package_tree("pkg/a.py", "from pkg import b\n")
        root = package_tree(
            "pkg/b.py", "def late():\n    from pkg import a\n    return a\n"
        ).parent.parent
        assert build_graph(root).imports.cycles() == []

    def test_typing_import_breaks_cycle(self, package_tree):
        package_tree("pkg/a.py", "from pkg import b\n")
        root = package_tree(
            "pkg/b.py",
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from pkg import a\n",
        ).parent.parent
        assert build_graph(root).imports.cycles() == []

    def test_three_module_cycle(self, package_tree):
        package_tree("pkg/a.py", "from pkg import b\n")
        package_tree("pkg/b.py", "from pkg import c\n")
        root = package_tree("pkg/c.py", "from pkg import a\n").parent.parent
        assert build_graph(root).imports.cycles() == [("pkg.a", "pkg.b", "pkg.c")]

