"""DET010: direct and interprocedural determinism taint."""

from __future__ import annotations

from repro.lint import lint_paths


def det010(root, **kwargs):
    report = lint_paths([root], select=["DET010"], **kwargs)
    return [d for d in report.diagnostics if d.rule == "DET010"]


SINKING_HELPER = (
    "import time\n\n\ndef stamp():\n    return time.time()\n"
)


class TestTaintPropagation:
    def test_sim_entry_reaching_sink_via_helper_fires(self, package_tree):
        package_tree("repro/util/wallclock.py", SINKING_HELPER)
        root = package_tree(
            "repro/sim/engine.py",
            "from repro.util.wallclock import stamp\n\n\n"
            "def entry():\n    return stamp()\n",
        ).parent.parent
        (finding,) = det010(root)
        assert finding.path.endswith("engine.py")
        assert "repro.sim.engine.entry" in finding.message
        assert "time.time()" in finding.message
        assert "repro.util.wallclock.stamp" in finding.message  # chain cited

    def test_direct_sink_reported_once(self, package_tree):
        # A direct sink is reported at its own line and not again as a
        # call chain: the import and the call give one finding each.
        root = package_tree("repro/sim/engine.py", SINKING_HELPER).parent.parent
        findings = det010(root)
        assert [finding.line for finding in findings] == [1, 5]
        assert "time.time()" in findings[1].message

    def test_chain_through_a_nested_class_method(self, package_tree):
        root = package_tree(
            "repro/sim/engine.py",
            "import time\n\n\n"
            "class Outer:\n"
            "    class Inner:\n"
            "        def m(self):\n"
            "            return time.time()\n"
            "\n"
            "    def n(self):\n"
            "        return Outer.Inner.m(self)\n",
        ).parent.parent
        findings = det010(root)
        assert [finding.line for finding in findings] == [1, 7, 9]
        assert "repro.sim.engine.Outer.Inner.m calls time.time()" in findings[1].message
        assert (
            "repro.sim.engine.Outer.n -> repro.sim.engine.Outer.Inner.m -> time.time()"
            in findings[2].message
        )

    def test_non_sim_entry_not_reported(self, package_tree):
        package_tree("repro/util/wallclock.py", SINKING_HELPER)
        root = package_tree(
            "repro/analysis/timing.py",
            "from repro.util.wallclock import stamp\n\n\n"
            "def entry():\n    return stamp()\n",
        ).parent.parent
        assert det010(root) == []

    def test_only_entry_point_reported_not_interior_links(self, package_tree):
        package_tree("repro/util/wallclock.py", SINKING_HELPER)
        package_tree(
            "repro/sim/middle.py",
            "from repro.util.wallclock import stamp\n\n\n"
            "def relay():\n    return stamp()\n",
        )
        root = package_tree(
            "repro/sim/engine.py",
            "from repro.sim.middle import relay\n\n\n"
            "def entry():\n    return relay()\n",
        ).parent.parent
        findings = det010(root)
        assert len(findings) == 1
        assert "repro.sim.engine.entry" in findings[0].message

    def test_rng_wrapper_module_exempt(self, package_tree):
        # repro.sim.rng is the sanctioned home of random.* calls; code
        # calling it must not be tainted.
        package_tree(
            "repro/sim/rng.py",
            "import random\n\n\ndef draw():\n    return random.random()\n",
        )
        root = package_tree(
            "repro/sim/engine.py",
            "from repro.sim.rng import draw\n\n\n"
            "def entry():\n    return draw()\n",
        ).parent.parent
        assert det010(root) == []

    def test_seeded_random_constructor_not_a_sink(self, package_tree):
        package_tree(
            "repro/util/streams.py",
            "import random\n\n\ndef make(seed):\n    return random.Random(seed)\n",
        )
        root = package_tree(
            "repro/sim/engine.py",
            "from repro.util.streams import make\n\n\n"
            "def entry():\n    return make(7)\n",
        ).parent.parent
        assert det010(root) == []

    def test_os_urandom_is_a_sink(self, package_tree):
        package_tree(
            "repro/util/entropy.py",
            "import os\n\n\ndef token():\n    return os.urandom(8)\n",
        )
        root = package_tree(
            "repro/sim/engine.py",
            "from repro.util.entropy import token\n\n\n"
            "def entry():\n    return token()\n",
        ).parent.parent
        (finding,) = det010(root)
        assert "os.urandom()" in finding.message


class TestSuppression:
    def test_line_suppression_at_entry_point(self, package_tree):
        package_tree("repro/util/wallclock.py", SINKING_HELPER)
        root = package_tree(
            "repro/sim/engine.py",
            "from repro.util.wallclock import stamp\n\n\n"
            "def entry():  # lint: disable=DET010 -- host-side profiling, result never enters sim state\n"
            "    return stamp()\n",
        ).parent.parent
        assert det010(root) == []

    def test_line_suppression_at_direct_sink(self, package_tree):
        root = package_tree(
            "repro/sim/engine.py",
            "def stamp(time):\n"
            "    return time.time()  # lint: disable=DET010 -- host-side profiling, result never enters sim state\n",
        ).parent.parent
        report = lint_paths([root], select=["DET010"])
        assert report.diagnostics == []
        assert report.suppressed == 1
