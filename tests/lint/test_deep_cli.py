"""`bips lint`: project-scoped rules from the CLI and the whole-tree run.

Every run builds the project graphs and runs the project rules
(DET010, ARCH001, PERF001) after the file rules; there is no separate
whole-program mode.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SINKING_CHAIN = {
    "repro/util/wallclock.py": (
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    ),
    "repro/sim/engine.py": (
        "from repro.util.wallclock import stamp\n\n\n"
        "def entry():\n    return stamp()\n"
    ),
}


@pytest.fixture
def tainted_tree(package_tree):
    for relative, source in SINKING_CHAIN.items():
        target = package_tree(relative, source)
    return target.parent.parent


@pytest.fixture
def clean_tree(package_tree):
    return package_tree(
        "repro/sim/clock.py", "def seconds():\n    return 0\n"
    ).parent.parent


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeepFlag:
    def test_deep_finds_project_violation(self, tainted_tree, capsys):
        code, out, _ = run(
            ["lint", str(tainted_tree), "--select", "DET010"], capsys
        )
        assert code == 1
        assert "DET010" in out

    def test_select_applies_to_project_rules(self, tainted_tree, capsys):
        code, _, _ = run(
            ["lint", str(tainted_tree), "--select", "PERF001"], capsys
        )
        assert code == 0

    def test_json_format_still_versioned(self, tainted_tree, capsys):
        code, out, _ = run(
            [
                "lint", str(tainted_tree),
                "--select", "DET010", "--format", "json",
            ],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["by_rule"].get("DET010") == 1


class TestRepoTree:
    def test_deep_lint_clean_on_repo_src(self, capsys, monkeypatch):
        from .conftest import REPO_ROOT

        monkeypatch.chdir(REPO_ROOT)
        code, out, _ = run(["lint", "src"], capsys)
        assert code == 0, out
