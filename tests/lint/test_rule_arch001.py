"""ARCH001: layer DAG enforcement and import-cycle detection."""

from __future__ import annotations

from repro.lint import lint_paths
from repro.lint.rules.architecture import ALLOWED, LAYER_DEPS, layer_of


def arch001(root):
    report = lint_paths([root], select=["ARCH001"])
    return [d for d in report.diagnostics if d.rule == "ARCH001"]


class TestLayerModel:
    def test_closure_is_transitive(self):
        assert "sim" in ALLOWED["bluetooth"]  # via radio
        assert "radio" in ALLOWED["core"]  # via lan -> bluetooth -> radio
        assert "sim" in ALLOWED["cli"]

    def test_bottom_layers_depend_on_nothing(self):
        assert ALLOWED["sim"] == frozenset()
        assert ALLOWED["analysis"] == frozenset()

    def test_every_declared_dep_is_a_known_layer(self):
        for layer, deps in LAYER_DEPS.items():
            for dep in deps:
                assert dep in LAYER_DEPS, f"{layer} -> {dep}"

    def test_layer_of_maps_packages_and_overrides(self):
        assert layer_of("repro.sim.kernel") == "sim"
        assert layer_of("repro.obs.trace_cli") == "cli"
        assert layer_of("repro.obs.events") == "obs"
        assert layer_of("repro") == "api"
        assert layer_of("tests.something") is None
        for package in (
            "analysis", "bench", "bluetooth", "building", "core",
            "experiments", "faults", "lan", "lint", "mobility", "obs",
            "radio", "runner", "sim",
        ):
            assert layer_of(f"repro.{package}") == package
        assert layer_of("repro.cli") == "cli"
        assert layer_of("repro.__main__") == "cli"
        assert layer_of("bipsbench.layers") is None


class TestLayeringRule:
    def test_upward_import_fires(self, package_tree):
        package_tree("repro/core/server.py", "X = 1\n")
        root = package_tree(
            "repro/sim/clock.py", "from repro.core import server\n"
        ).parent.parent
        findings = arch001(root)
        assert findings and all("must not import" in f.message for f in findings)
        assert findings[0].path.endswith("clock.py")

    def test_downward_import_passes(self, package_tree):
        package_tree("repro/sim/clock.py", "X = 1\n")
        root = package_tree(
            "repro/bluetooth/device.py", "from repro.sim import clock\n"
        ).parent.parent
        assert arch001(root) == []

    def test_typing_only_upward_import_exempt(self, package_tree):
        package_tree("repro/core/server.py", "X = 1\n")
        root = package_tree(
            "repro/sim/clock.py",
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core import server\n",
        ).parent.parent
        assert arch001(root) == []

    def test_deferred_upward_import_still_fires(self, package_tree):
        package_tree("repro/core/server.py", "X = 1\n")
        root = package_tree(
            "repro/sim/clock.py",
            "def late():\n    from repro.core import server\n    return server\n",
        ).parent.parent
        findings = arch001(root)
        assert findings and "must not import" in findings[0].message

    def test_declared_edge_exception_passes(self, package_tree):
        # The declared exception is module-to-module, matching the real
        # tree's direct `from repro.bluetooth.packets import ...` form.
        package_tree("repro/bluetooth/packets.py", "class FHSPacket:\n    pass\n")
        root = package_tree(
            "repro/radio/channel.py",
            "from repro.bluetooth.packets import FHSPacket\n",
        ).parent.parent
        assert arch001(root) == []

    def test_undeclared_radio_to_bluetooth_edge_fires(self, package_tree):
        package_tree("repro/bluetooth/inquiry.py", "X = 1\n")
        root = package_tree(
            "repro/radio/channel.py", "from repro.bluetooth import inquiry\n"
        ).parent.parent
        findings = arch001(root)
        assert findings and "must not import" in findings[0].message


class TestCycleRule:
    def test_runtime_cycle_fires(self, package_tree):
        package_tree("repro/sim/a.py", "from repro.sim import b\n")
        root = package_tree(
            "repro/sim/b.py", "from repro.sim import a\n"
        ).parent.parent
        findings = arch001(root)
        assert any("import-time cycle" in f.message for f in findings)

    def test_deferred_cycle_does_not_fire(self, package_tree):
        package_tree("repro/sim/a.py", "from repro.sim import b\n")
        root = package_tree(
            "repro/sim/b.py",
            "def late():\n    from repro.sim import a\n    return a\n",
        ).parent.parent
        assert [f for f in arch001(root) if "cycle" in f.message] == []


class TestRealTree:
    def test_repro_tree_is_layer_clean(self):
        from .conftest import SRC_ROOT

        assert arch001(SRC_ROOT) == []
