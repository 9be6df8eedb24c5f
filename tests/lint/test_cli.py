"""The `bips lint` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint import REGISTRY

from .conftest import REPO_ROOT, SRC_ROOT


class TestExitCodes:
    def test_clean_file_exits_zero(self, package_tree, capsys):
        path = package_tree("repro/sim/fine.py", "TICKS = 3200\n")
        assert main(["lint", str(path)]) == 0
        assert "1 file(s) clean" in capsys.readouterr().out

    def test_findings_exit_one(self, package_tree, capsys):
        path = package_tree("repro/sim/bad.py", "import random\n")
        assert main(["lint", str(path)]) == 1
        assert "DET010" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, package_tree, capsys):
        path = package_tree("repro/sim/fine.py", "TICKS = 3200\n")
        assert main(["lint", str(path), "--select", "NOPE999"]) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.txt")]) == 2
        assert "bips lint:" in capsys.readouterr().err


class TestOutputFormats:
    def test_json_report_is_parseable(self, package_tree, capsys):
        path = package_tree("repro/sim/bad.py", "import random\nimport time\n")
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["by_rule"] == {"DET010": 2}

    def test_select_narrows_the_run(self, package_tree, capsys):
        path = package_tree("repro/sim/bad.py", "import random\nCACHE = {}\n")
        assert main(["lint", str(path), "--select", "DET010", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"DET010": 1}

    def test_list_rules_prints_the_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in REGISTRY.ids():
            assert rule_id in out

    def test_list_rules_in_a_fresh_process(self):
        # Registration must happen on import of repro.lint itself, not
        # as a side effect of a prior engine run in the same process.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC_ROOT)},
        )
        assert result.returncode == 0
        for rule_id in REGISTRY.ids():
            assert rule_id in result.stdout


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


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTaintedTree:
    """A sim entry point reaching time.time() through a helper."""

    def test_finds_the_tainted_chain(self, tainted_tree, capsys):
        code, out, _ = run(
            ["lint", str(tainted_tree), "--select", "DET010"], capsys
        )
        assert code == 1
        assert "DET010" in out

    def test_select_skips_unselected_rules(self, tainted_tree, capsys):
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
    def test_lint_clean_on_repo_src(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out, _ = run(["lint", "src"], capsys)
        assert code == 0, out
