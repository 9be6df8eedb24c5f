"""Tests for tracking-report latency distributions and the package surface."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.simulation import TrackingReport, UserTrackingReport


def make_user(userid: str, latencies: tuple[float, ...]) -> UserTrackingReport:
    return UserTrackingReport(
        userid=userid,
        accuracy=0.9,
        transitions=len(latencies),
        detected_transitions=len(latencies),
        mean_detection_latency_seconds=(
            sum(latencies) / len(latencies) if latencies else None
        ),
        detection_latencies_seconds=latencies,
    )


class TestLatencyDistribution:
    def test_all_latencies_pooled(self):
        report = TrackingReport(
            users=(make_user("a", (1.0, 3.0)), make_user("b", (2.0,))),
            horizon_seconds=100.0,
        )
        assert sorted(report.all_detection_latencies_seconds) == [1.0, 2.0, 3.0]

    def test_empty_report_defaults(self):
        report = TrackingReport(users=(), horizon_seconds=10.0)
        assert report.mean_accuracy == 1.0
        assert report.mean_detection_latency_seconds is None


#: The packages whose ``__init__`` holds only its docstring, with the names
#: each may still bind: the runner's cache key reads ``repro.__version__``,
#: and ``bipsbench/workloads.py`` imports six harness names through
#: ``repro.experiments``.
PACKAGE_INIT_NAMES = {
    "repro": {"__version__"},
    "repro.analysis": set(),
    "repro.bluetooth": set(),
    "repro.building": set(),
    "repro.core": set(),
    "repro.experiments": {
        "Figure2Config",
        "Section5Config",
        "Table1Config",
        "run_figure2",
        "run_section5",
        "run_table1",
    },
    "repro.faults": set(),
    "repro.lan": set(),
    "repro.mobility": set(),
    "repro.obs": set(),
    "repro.radio": set(),
    "repro.runner": set(),
    "repro.sim": set(),
}


def bound_names(tree: ast.Module) -> set[str]:
    """Every name a module binds at its top level."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
    return names


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package", sorted(PACKAGE_INIT_NAMES))
    def test_init_binds_only_its_kept_names(self, package):
        init = Path(repro.__file__).parent.joinpath(*package.split(".")[1:], "__init__.py")
        tree = ast.parse(init.read_text())
        assert ast.get_docstring(tree), f"{package} lost its docstring"
        assert bound_names(tree) == PACKAGE_INIT_NAMES[package]

    def test_kernel_import_loads_no_service_layer(self):
        src = str(Path(repro.__file__).parent.parent)
        probe = (
            "import sys\n"
            "import repro.sim.kernel\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        loaded = done.stdout.split()
        assert "repro.sim.kernel" in loaded
        service = ("repro.core", "repro.bluetooth", "repro.lan", "repro.experiments")
        assert [m for m in loaded if m.startswith(service)] == []
