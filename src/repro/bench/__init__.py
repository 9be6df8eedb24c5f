"""Tracked performance benchmarks (the ``bips bench`` subcommand).

Pure-stdlib timing harness + a pinned two-case suite (the kernel's
event queue and one dense piconet), with a committed baseline and a CI
regression gate.  Layout:

* :mod:`repro.bench.harness` — timing, calibration, statistics;
* :mod:`repro.bench.suite` — the pinned workloads;
* :mod:`repro.bench.report` — ``BENCH_<rev>.json`` emit/compare/render;
* :mod:`repro.bench.cli` — argparse wiring for ``bips bench``.

This package is host-facing tooling, not simulation code: it may read
wall clocks (outside the DET002 scope) and its numbers are explicitly
machine-dependent — only normalized scores travel between machines.
"""

from .harness import BenchCase, CaseResult, run_suite
from .report import (
    DEFAULT_THRESHOLD,
    Comparison,
    build_report,
    compare_to_baseline,
    has_regression,
    render_text,
)
from .suite import SUITE

__all__ = [
    "BenchCase",
    "CaseResult",
    "run_suite",
    "DEFAULT_THRESHOLD",
    "Comparison",
    "build_report",
    "compare_to_baseline",
    "has_regression",
    "render_text",
    "SUITE",
]
