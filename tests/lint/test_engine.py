"""Engine mechanics: discovery, parse errors, crashes, rule selection."""

from __future__ import annotations

import json

import pytest

from repro.lint import REGISTRY, lint_paths, lint_source
from repro.lint.diagnostics import JSON_VERSION, Diagnostic, LintReport
from repro.lint.engine import INTERNAL_RULE_ID, PARSE_RULE_ID, iter_python_files
from repro.lint.registry import RuleRegistry, RuleSpec


class TestFileDiscovery:
    def test_recurses_and_sorts(self, package_tree):
        b = package_tree("repro/b.py", "x = 1\n")
        a = package_tree("repro/a.py", "x = 1\n")
        assert iter_python_files([a.parent]) == sorted(
            [a, b, a.parent / "__init__.py"]
        )

    def test_skips_pycache(self, tmp_path):
        cached = tmp_path / "__pycache__" / "mod.py"
        cached.parent.mkdir()
        cached.write_text("x = 1\n")
        assert iter_python_files([tmp_path]) == []

    def test_rejects_non_python_path(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello\n")
        with pytest.raises(FileNotFoundError):
            iter_python_files([target])

    def test_overlapping_inputs_dedupe(self, package_tree):
        a = package_tree("repro/sim/a.py", "x = 1\n")
        root = a.parent.parent.parent
        files = iter_python_files([root, a.parent, a])
        assert files.count(a) == 1
        assert len(files) == len(set(p.resolve() for p in files))

    def test_symlinked_alias_counts_once(self, package_tree):
        a = package_tree("repro/a.py", "x = 1\n")
        alias = a.parent / "alias.py"
        alias.symlink_to(a)
        files = iter_python_files([a.parent])
        resolved = [p.resolve() for p in files]
        assert resolved.count(a.resolve()) == 1

    def test_symlinked_directory_not_double_linted(self, package_tree):
        a = package_tree("repro/a.py", "import random\n")
        root = a.parent.parent
        mirror = root.parent / "mirror"
        mirror.symlink_to(root)
        files = iter_python_files([root, mirror])
        assert len([p for p in files if p.resolve() == a.resolve()]) == 1


class TestParseAndCrashHandling:
    def test_syntax_error_becomes_parse_diagnostic(self):
        diagnostics, _ = lint_source("def broken(:\n", module="repro.sim.bad")
        assert len(diagnostics) == 1
        assert diagnostics[0].rule == PARSE_RULE_ID
        assert "syntax error" in diagnostics[0].message

    def test_crashing_rule_becomes_internal_diagnostic(self):
        def explode(graph):
            raise RuntimeError("boom")

        registry = RuleRegistry()
        registry.add(
            RuleSpec(
                id="TST001",
                name="explode",
                summary="always crashes",
                rationale="test",
                check=explode,
            )
        )
        diagnostics, _ = lint_source(
            "x = 1\n", module="repro.sim.bad", registry=registry
        )
        assert [d.rule for d in diagnostics] == [INTERNAL_RULE_ID]
        assert "TST001" in diagnostics[0].message
        assert "boom" in diagnostics[0].message


class TestRuleSelection:
    def test_select_runs_only_named_rules(self):
        source = "import random\nCACHE = {}\n"
        diagnostics, _ = lint_source(
            source,
            module="repro.sim.bad",
            rules=REGISTRY.select(select=["DET010"]),
        )
        assert {d.rule for d in diagnostics} == {"DET010"}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.select(select=["NOPE999"])

    def test_registry_rejects_duplicate_ids(self):
        registry = RuleRegistry()
        spec = RuleSpec(
            id="TST001", name="x", summary="s", rationale="r", check=lambda graph: []
        )
        registry.add(spec)
        with pytest.raises(ValueError):
            registry.add(spec)


class TestLintPaths:
    def test_clean_tree_reports_zero_exit(self, package_tree):
        path = package_tree("repro/sim/fine.py", "TICKS = 3200\n")
        report = lint_paths([path])
        assert report.exit_code == 0
        assert report.files_checked == 1
        assert report.diagnostics == []

    def test_dirty_tree_reports_findings(self, package_tree):
        path = package_tree("repro/sim/bad.py", "import random\n")
        report = lint_paths([path])
        assert report.exit_code == 1
        assert report.by_rule() == {"DET010": 1}

    def test_diagnostics_are_sorted_across_files(self, package_tree):
        second = package_tree("repro/sim/zz.py", "import random\n")
        first = package_tree("repro/sim/aa.py", "import time\n")
        report = lint_paths([first, second])
        assert [d.path for d in report.diagnostics] == [str(first), str(second)]


class TestReportRendering:
    def _report(self) -> LintReport:
        report = LintReport(files_checked=2, suppressed=1)
        report.extend(
            [
                Diagnostic("b.py", 3, 0, "DET010", "msg b"),
                Diagnostic("a.py", 1, 4, "DET010", "msg a"),
            ]
        )
        report.finalize()
        return report

    def test_text_rendering_is_compiler_style(self):
        text = self._report().render_text()
        lines = text.splitlines()
        assert lines[0] == "a.py:1:4: DET010 msg a"
        assert lines[1] == "b.py:3:0: DET010 msg b"
        assert "2 problem(s) in 2 file(s)" in lines[2]
        assert "1 suppressed" in lines[2]

    def test_json_schema(self):
        payload = json.loads(self._report().to_json())
        assert payload["version"] == JSON_VERSION
        assert payload["files_checked"] == 2
        assert payload["summary"] == {
            "total": 2,
            "suppressed": 1,
            "by_rule": {"DET010": 2},
        }
        assert payload["diagnostics"][0] == {
            "rule": "DET010",
            "path": "a.py",
            "line": 1,
            "column": 4,
            "message": "msg a",
        }

    def test_clean_report_renders_summary_only(self):
        report = LintReport(files_checked=5)
        assert report.exit_code == 0
        assert report.render_text() == "5 file(s) clean; 0 suppressed"
