"""PERF001: the @hot_path allocation audit."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import lint_paths
from repro.lint.rules.hot_path_perf import _is_marked

MARK = "from repro.sim.hotpath import hot_path\n"


def perf001(root):
    report = lint_paths([root], select=["PERF001"])
    return [d for d in report.diagnostics if d.rule == "PERF001"]


class TestMarkedFunctions:
    def test_list_comprehension_fires(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK + "@hot_path\ndef drain(xs):\n    return [x + 1 for x in xs]\n",
        ).parent.parent
        (finding,) = perf001(root)
        assert "list comprehension" in finding.message
        assert "repro.sim.fast.drain" in finding.message

    def test_fstring_fires(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK + "@hot_path\ndef drain(x):\n    return f'got {x}'\n",
        ).parent.parent
        (finding,) = perf001(root)
        assert "f-string" in finding.message

    def test_lambda_and_nested_def_fire(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK
            + "@hot_path\ndef drain(xs):\n"
            "    def inner():\n"
            "        return 1\n"
            "    return sorted(xs, key=lambda x: -x)\n",
        ).parent.parent
        messages = sorted(f.message for f in perf001(root))
        assert any("nested def" in m for m in messages)
        assert any("lambda" in m for m in messages)

    def test_kwargs_expansion_fires(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK
            + "def helper(**kw):\n    return kw\n\n\n"
            "@hot_path\ndef drain(opts):\n    return helper(**opts)\n",
        ).parent.parent
        (finding,) = perf001(root)
        assert "**kwargs" in finding.message

    def test_generator_expression_not_flagged(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK + "@hot_path\ndef drain(xs):\n    return sum(x for x in xs)\n",
        ).parent.parent
        assert perf001(root) == []

    def test_raise_path_fstring_exempt(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK
            + "@hot_path\ndef drain(x):\n"
            "    if x < 0:\n"
            "        raise ValueError(f'bad {x}')\n"
            "    return x\n",
        ).parent.parent
        assert perf001(root) == []

    def test_unmarked_function_not_audited(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            "def drain(xs):\n    return [x + 1 for x in xs]\n",
        ).parent.parent
        assert perf001(root) == []


class TestTransitiveCallees:
    def test_callee_of_marked_function_audited_with_chain(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK
            + "def helper(xs):\n    return [x for x in xs]\n\n\n"
            "@hot_path\ndef drain(xs):\n    return helper(xs)\n",
        ).parent.parent
        (finding,) = perf001(root)
        assert "repro.sim.fast.helper" in finding.message
        assert "hot via" in finding.message
        assert "repro.sim.fast.drain" in finding.message

    def test_unreached_sibling_not_audited(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK
            + "def cold(xs):\n    return [x for x in xs]\n\n\n"
            "@hot_path\ndef drain(xs):\n    return list(xs)\n",
        ).parent.parent
        assert perf001(root) == []


class TestSuppression:
    def test_justified_suppression_covers_finding(self, package_tree):
        root = package_tree(
            "repro/sim/fast.py",
            MARK
            + "@hot_path\ndef drain(xs):\n"
            "    return [x + 1 for x in xs]  "
            "# lint: disable=PERF001 -- the fresh list IS the return value\n",
        ).parent.parent
        report = lint_paths([root], select=["PERF001"])
        assert report.diagnostics == []
        assert report.suppressed == 1


def marked_functions(paths) -> set[str]:
    """Functions PERF001 audits as hot: their decorators, read from the
    AST by the lint pass's call graph, carry the ``hot_path`` marker."""
    graphs = []
    lint_paths(paths, select=["PERF001"], graph_sink=graphs)
    (graph,) = graphs
    return {name for name, node in graph.calls.nodes.items() if _is_marked(node.decorators)}


class TestHotPathDecorator:
    def test_identity_and_marker(self, package_tree):
        from repro.sim.hotpath import hot_path

        def probe():
            return 41

        assert hot_path(probe) is probe  # identity: zero call-time overhead
        root = package_tree(
            "repro/sim/fast.py",
            MARK + "@hot_path\ndef drain(xs):\n    return xs\n\n\ndef cold(xs):\n    return xs\n",
        ).parent.parent
        assert marked_functions([root]) == {"repro.sim.fast.drain"}

    def test_real_hot_loops_are_registered(self):
        src = Path(repro.__file__).parent
        modules = (
            "sim/kernel", "bluetooth/hopping", "lan/transport", "core/location_db",
            "core/registry", "core/server",
        )
        expected = {
            "repro.sim.kernel.Kernel._drain_heap",
            "repro.bluetooth.hopping.InquiryTransmitSchedule.next_tx_of_position",
            "repro.bluetooth.hopping.InquiryTransmitSchedule.first_tx_run",
            "repro.lan.transport.LANTransport._deliver",
            "repro.core.location_db.LocationDatabase.apply_presence",
            "repro.core.location_db.LocationDatabase.apply_absence",
            "repro.core.server.BIPSServer._apply_presence",
            "repro.core.registry.UserRegistry.check_query_allowed",
            "repro.core.server.BIPSServer.locate",
            "repro.core.server.BIPSServer.navigate",
            "repro.core.server.BIPSServer.locate_at_seconds",
        }
        assert expected <= marked_functions([src / f"{module}.py" for module in modules])
