"""Suppression-comment parsing and engine-level suppression behaviour."""

from __future__ import annotations

from repro.lint import lint_source
from repro.lint.suppressions import scan_suppressions

from .conftest import lint_snippet


class TestDirectiveParsing:
    def test_line_level_single_rule(self):
        index = scan_suppressions("x = 1  # lint: disable=DET003\n")
        assert index.covers(1, "DET003")
        assert not index.covers(1, "DET010")
        assert not index.covers(2, "DET003")

    def test_multiple_rules_one_comment(self):
        index = scan_suppressions("x = 1  # lint: disable=DET003, DET010\n")
        assert index.covers(1, "DET003")
        assert index.covers(1, "DET010")

    def test_file_level_covers_every_line(self):
        index = scan_suppressions("# lint: disable-file=OBS001\nx = 1\n")
        assert index.covers(1, "OBS001")
        assert index.covers(999, "OBS001")
        assert not index.covers(1, "DET010")

    def test_justification_after_dashes_is_tolerated(self):
        index = scan_suppressions(
            "x = 1  # lint: disable=DET003 -- commutative sum\n"
        )
        assert index.covers(1, "DET003")

    def test_directive_inside_string_literal_is_not_a_suppression(self):
        index = scan_suppressions('x = "# lint: disable=DET003"\n')
        assert not index.covers(1, "DET003")

    def test_plain_comments_are_ignored(self):
        index = scan_suppressions("# just a note about lint in general\nx = 1\n")
        assert not index.covers(1, "DET003")
        assert index.file_level == frozenset()


class TestEngineSuppression:
    SOURCE = "import random  # lint: disable=DET010 -- test fixture\n"

    def test_suppressed_finding_is_dropped_and_counted(self):
        diagnostics, suppressed = lint_source(self.SOURCE, module="repro.sim.bad")
        assert [d for d in diagnostics if d.rule == "DET010"] == []
        assert suppressed == 1

    def test_suppression_is_rule_specific(self):
        source = "import random  # lint: disable=DET003 -- wrong rule id\n"
        diagnostics = lint_snippet(source, module="repro.sim.bad")
        assert [d.rule for d in diagnostics] == ["DET010"]

    def test_file_level_suppression(self):
        source = (
            "# lint: disable-file=DET010 -- fixture exercising the RNG rule\n"
            "import random\n"
            "value = random.random()\n"
        )
        diagnostics, suppressed = lint_source(source, module="repro.sim.bad")
        assert diagnostics == []
        assert suppressed == 2
