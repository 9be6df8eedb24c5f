"""Fixture-driven tests for the determinism rules DET010 and DET003.

The direct-sink cases below were written for the retired file rules
DET001 (unseeded RNG) and DET002 (wall clock); the classes keep those
names, and DET010 now reports every one of them.
"""

from __future__ import annotations

from .conftest import lint_snippet, rules_hit


class TestDET001UnseededRNG:
    def test_import_random_flagged_in_sim_code(self):
        assert "DET010" in rules_hit("import random\n", module="repro.sim.bad")

    def test_from_random_import_flagged(self):
        assert "DET010" in rules_hit(
            "from random import randint\n", module="repro.bluetooth.bad"
        )

    def test_numpy_random_attribute_flagged(self):
        source = "import numpy as np\n\n\ndef f():\n    return np.random.rand()\n"
        assert "DET010" in rules_hit(source, module="repro.radio.bad")

    def test_module_attribute_access_flagged(self):
        source = "def f(random):\n    return random.random()\n"
        assert "DET010" in rules_hit(source, module="repro.core.bad")

    def test_random_instance_built_in_sim_code_flagged(self):
        source = "def f(random):\n    return random.Random(7)\n"
        assert "DET010" in rules_hit(source, module="repro.bluetooth.bad")

    def test_module_level_draw_flagged(self):
        source = "import numpy as np\n\nNOISE = np.random.rand()\n"
        (finding,) = lint_snippet(source, module="repro.sim.bad")
        assert (finding.rule, finding.line) == ("DET010", 3)

    def test_outside_sim_packages_is_fine(self):
        assert "DET010" not in rules_hit("import random\n", module="repro.cli")

    def test_rng_wrapper_module_is_exempt(self):
        assert "DET010" not in rules_hit("import random\n", module="repro.sim.rng")

    def test_seeded_randomstream_is_fine(self):
        source = (
            "from repro.sim.rng import RandomStream\n\n\n"
            "def f(seed):\n    return RandomStream(seed, 'x').random()\n"
        )
        assert "DET010" not in rules_hit(source, module="repro.sim.good")


class TestDET002WallClock:
    def test_import_time_flagged(self):
        assert "DET010" in rules_hit("import time\n", module="repro.sim.bad")

    def test_time_time_call_flagged(self):
        source = "def f(time):\n    return time.monotonic()\n"
        assert "DET010" in rules_hit(source, module="repro.lan.bad")

    def test_datetime_now_flagged(self):
        source = (
            "from datetime import datetime\n\n\n"
            "def stamp():\n    return datetime.now()\n"
        )
        assert "DET010" in rules_hit(source, module="repro.core.bad")

    def test_runner_package_may_time_batches(self):
        # Host-side wall timing of worker batches is deliberately legal.
        assert "DET010" not in rules_hit(
            "import time\n", module="repro.runner.executor"
        )


class TestDET003UnorderedIteration:
    HOT = "repro.radio.channel"

    def test_set_literal_iteration_flagged(self):
        source = "for x in {1, 2, 3}:\n    print(x)\n"
        assert "DET003" in rules_hit(source, module=self.HOT)

    def test_inferred_set_name_flagged(self):
        source = (
            "listeners = set()\n\n\n"
            "def fan_out():\n    return [x for x in listeners]\n"
        )
        assert "DET003" in rules_hit(source, module=self.HOT)

    def test_dict_items_on_inferred_dict_flagged(self):
        source = (
            "table: dict[str, int] = {}\n\n\n"
            "def walk():\n    for k, v in table.items():\n        print(k, v)\n"
        )
        assert "DET003" in rules_hit(source, module=self.HOT)

    def test_self_attribute_from_class_annotation_flagged(self):
        source = (
            "class Medium:\n"
            "    members: set = None\n\n"
            "    def walk(self):\n"
            "        for m in self.members:\n"
            "            print(m)\n"
        )
        assert "DET003" in rules_hit(source, module=self.HOT)

    def test_list_wrapper_is_transparent(self):
        source = (
            "table = {}\n\n\n"
            "def walk():\n    for k in list(table.keys()):\n        print(k)\n"
        )
        assert "DET003" in rules_hit(source, module=self.HOT)

    def test_sorted_is_the_sanctioned_ordering(self):
        source = (
            "listeners = set()\n\n\n"
            "def fan_out():\n    return [x for x in sorted(listeners)]\n"
        )
        assert "DET003" not in rules_hit(source, module=self.HOT)

    def test_cold_path_modules_are_out_of_scope(self):
        source = "for x in {1, 2, 3}:\n    print(x)\n"
        assert "DET003" not in rules_hit(source, module="repro.analysis.stats")

