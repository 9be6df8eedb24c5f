"""The name-resolution call graph: method/alias/re-export resolution,
conservative dynamic skips, and the real-tree resolution floor."""

from __future__ import annotations

from repro.lint import lint_paths
from repro.lint.graph.calls import (
    BUILTIN,
    DYNAMIC,
    EXTERNAL,
    PROJECT,
    UNKNOWN,
)
from repro.lint.registry import RuleRegistry

from .conftest import SRC_ROOT


def build_graph(root):
    sink = []
    lint_paths([root], registry=RuleRegistry(), graph_sink=sink)
    return sink[0]


def sites_of(graph, caller):
    """Every call site in ``caller``, any resolution kind.

    (``callees_of`` deliberately indexes only project edges — the
    traversal queries never walk through external/builtin/dynamic
    sites — so tests inspect the full site list instead.)
    """
    return sites_of_graph(graph.calls, caller)


def sites_of_graph(calls, caller):
    return [s for s in calls.sites if s.caller == caller]


class TestResolution:
    def test_bare_name_same_module(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def helper():\n    return 1\n\n\ndef entry():\n    return helper()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == PROJECT and site.callee == "pkg.a.helper"

    def test_module_and_class_body_calls_belong_to_the_module(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def helper():\n    return 1\n\n\n"
            "VALUE = helper()\n\n\n"
            "class C:\n    field = helper()\n",
        ).parent.parent
        graph = build_graph(root)
        sites = sites_of(graph, "pkg.a.<module>")
        assert [(s.kind, s.callee, s.line) for s in sites] == [
            (PROJECT, "pkg.a.helper", 5),
            (PROJECT, "pkg.a.helper", 9),
        ]
        assert graph.calls.nodes["pkg.a.<module>"].module == "pkg.a"

    def test_self_method_resolves(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "class C:\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def entry(self):\n"
            "        return self.helper()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.C.entry")
        assert site.kind == PROJECT and site.callee == "pkg.a.C.helper"

    def test_inherited_method_resolves_through_base(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "class Base:\n"
            "    def helper(self):\n"
            "        return 1\n"
            "class C(Base):\n"
            "    def entry(self):\n"
            "        return self.helper()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.C.entry")
        assert site.kind == PROJECT and site.callee == "pkg.a.Base.helper"

    def test_aliased_import_resolves(self, package_tree):
        package_tree("pkg/b.py", "def target():\n    return 1\n")
        root = package_tree(
            "pkg/a.py",
            "from pkg.b import target as t\n\n\ndef entry():\n    return t()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == PROJECT and site.callee == "pkg.b.target"

    def test_module_alias_attribute_resolves(self, package_tree):
        package_tree("pkg/b.py", "def target():\n    return 1\n")
        root = package_tree(
            "pkg/a.py",
            "import pkg.b as bee\n\n\ndef entry():\n    return bee.target()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == PROJECT and site.callee == "pkg.b.target"

    def test_init_reexport_resolves(self, package_tree):
        package_tree("pkg/sub/impl.py", "def target():\n    return 1\n")
        package_tree("pkg/sub/__init__.py", "from pkg.sub.impl import target\n")
        root = package_tree(
            "pkg/a.py",
            "from pkg.sub import target\n\n\ndef entry():\n    return target()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == PROJECT and site.callee == "pkg.sub.impl.target"

    def test_class_call_resolves_to_init(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n\n\n"
            "def entry():\n    return C()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == PROJECT and site.callee == "pkg.a.C.__init__"

    def test_module_singleton_method_resolves(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "class Registry:\n"
            "    def add(self, item):\n"
            "        return item\n\n\n"
            "REGISTRY = Registry()\n\n\n"
            "def entry():\n    REGISTRY.add(1)\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == PROJECT and site.callee == "pkg.a.Registry.add"

    def test_stdlib_call_is_external(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "import time\n\n\ndef entry():\n    return time.time()\n",
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == EXTERNAL and site.callee == "time.time"

    def test_builtin_call(self, package_tree):
        root = package_tree(
            "pkg/a.py", "def entry(xs):\n    return len(xs)\n"
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == BUILTIN


class TestConservativeDynamicSkip:
    def test_parameter_call_is_dynamic(self, package_tree):
        root = package_tree(
            "pkg/a.py", "def entry(callback):\n    return callback()\n"
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == DYNAMIC

    def test_method_on_parameter_is_dynamic(self, package_tree):
        root = package_tree(
            "pkg/a.py", "def entry(obj):\n    return obj.run()\n"
        ).parent.parent
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == DYNAMIC

    def test_call_on_call_result_is_dynamic(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def make():\n    return int\n\n\ndef entry():\n    return make()()\n",
        ).parent.parent
        kinds = {s.kind for s in sites_of(build_graph(root), "pkg.a.entry")}
        assert DYNAMIC in kinds

    def test_dynamic_never_guessed_as_project(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def run():\n    return 1\n\n\n"
            "def entry(run):\n    return run()\n",
        ).parent.parent
        # The *parameter* shadows the module function: must not resolve.
        (site,) = sites_of(build_graph(root), "pkg.a.entry")
        assert site.kind == DYNAMIC


class TestNestedFunctions:
    def test_nested_call_attributed_to_enclosing(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def helper():\n    return 1\n\n\n"
            "def entry():\n"
            "    def inner():\n"
            "        return helper()\n"
            "    return inner\n",
        ).parent.parent
        callees = {
            s.callee
            for s in sites_of(build_graph(root), "pkg.a.entry")
            if s.kind == PROJECT
        }
        assert "pkg.a.helper" in callees


class TestNestedClasses:
    def test_nested_method_gets_its_qualified_node(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "import time\n\n\n"
            "class Outer:\n"
            "    class Inner:\n"
            "        def m(self):\n"
            "            return time.time()\n"
            "\n"
            "        def k(self):\n"
            "            return self.m()\n"
            "\n"
            "    def n(self):\n"
            "        return Outer.Inner.m(self)\n",
        ).parent.parent
        graph = build_graph(root).calls
        node = graph.nodes["pkg.a.Outer.Inner.m"]
        assert (node.qualname, node.line) == ("Outer.Inner.m", 6)
        assert [(s.kind, s.callee) for s in sites_of_graph(graph, "pkg.a.Outer.Inner.m")] == [
            (EXTERNAL, "time.time")
        ]
        for caller in ("pkg.a.Outer.Inner.k", "pkg.a.Outer.n"):
            (site,) = sites_of_graph(graph, caller)
            assert (site.kind, site.callee) == (PROJECT, "pkg.a.Outer.Inner.m")
        assert "pkg.a.Inner.m" not in graph.nodes
        assert not sites_of_graph(graph, "pkg.a.Inner.m")

    def test_same_named_inner_classes_do_not_collide(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def one():\n    return 1\n\n\n"
            "def two():\n    return 2\n\n\n"
            "class A:\n"
            "    class Inner:\n"
            "        def m(self):\n"
            "            return one()\n\n\n"
            "class B:\n"
            "    class Inner:\n"
            "        def m(self):\n"
            "            return two()\n",
        ).parent.parent
        graph = build_graph(root).calls
        assert {"pkg.a.A.Inner.m", "pkg.a.B.Inner.m"} <= set(graph.nodes)
        assert [s.callee for s in graph.callees_of("pkg.a.A.Inner.m")] == ["pkg.a.one"]
        assert [s.callee for s in graph.callees_of("pkg.a.B.Inner.m")] == ["pkg.a.two"]


class TestTraversal:
    def test_reachable_from_gives_shortest_chain(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def c():\n    return 1\n\n\n"
            "def b():\n    return c()\n\n\n"
            "def a():\n    return b()\n",
        ).parent.parent
        chains = build_graph(root).calls.reachable_from(["pkg.a.a"])
        assert chains["pkg.a.c"] == ("pkg.a.a", "pkg.a.b", "pkg.a.c")

    def test_chains_to_reverse_reachability(self, package_tree):
        root = package_tree(
            "pkg/a.py",
            "def c():\n    return 1\n\n\n"
            "def b():\n    return c()\n\n\n"
            "def a():\n    return b()\n",
        ).parent.parent
        chains = build_graph(root).calls.chains_to(["pkg.a.c"])
        assert chains["pkg.a.a"] == ("pkg.a.a", "pkg.a.b", "pkg.a.c")


class TestRealTree:
    def test_resolution_floor_on_repro_tree(self):
        """Satellite contract: >= 90% of statically addressable call
        sites in the real tree resolve to a concrete outcome."""
        graph = build_graph(SRC_ROOT)
        stats = graph.calls.stats
        assert stats.total > 2000  # the tree is not trivially empty
        assert stats.addressable_resolution >= 0.90
        # UNKNOWN should be rare in absolute terms too.
        assert stats.counts.get(UNKNOWN, 0) <= 0.02 * stats.total

    def test_known_kernel_chain_resolves(self):
        graph = build_graph(SRC_ROOT)
        callees = {
            s.callee
            for s in graph.calls.callees_of(
                "repro.sim.kernel.Kernel.run_until"
            )
        }
        assert any(c.startswith("repro.sim.") for c in callees)
        assert "repro.sim.kernel.Kernel._drain_heap" in callees
