"""The `bips lint` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

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
        assert "DET001" in capsys.readouterr().out

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
        assert payload["summary"]["by_rule"] == {"DET001": 1, "DET002": 1}

    def test_select_narrows_the_run(self, package_tree, capsys):
        path = package_tree("repro/sim/bad.py", "import random\nimport time\n")
        assert main(["lint", str(path), "--select", "DET002", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"DET002": 1}

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
