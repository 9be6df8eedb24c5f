"""Argparse wiring for ``bips bench``.

Kept beside the harness so the main CLI only grows two hooks
(:func:`add_bench_parser`, :func:`run_bench`); exit codes follow the
``bips lint`` convention — 0 clean, 1 findings (here: regression),
2 usage/environment errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import run_suite
from .report import (
    DEFAULT_THRESHOLD,
    build_report,
    compare_to_baseline,
    git_revision,
    has_regression,
    load_json,
    render_text,
    write_json,
)
from .suite import SUITE

DEFAULT_BASELINE = "benchmarks/baseline.json"
DEFAULT_BASELINE_TEXT = "results/bench_baseline.txt"
DEFAULT_OUT_DIR = "results/bench"


def add_bench_parser(subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    """Register the ``bench`` subcommand on the main CLI."""
    bench = subparsers.add_parser(
        "bench",
        help="timed hot-path suite with a tracked baseline "
        "(see docs/performance.md)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=5,
        metavar="K",
        help="timed repetitions per case (median/p90 reported)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help="regression gate: fail when a normalized score drops by "
        "more than this fraction (default 0.20)",
    )
    bench.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help=f"baseline document to compare against (default {DEFAULT_BASELINE})",
    )
    bench.add_argument(
        "--out-dir",
        default=DEFAULT_OUT_DIR,
        metavar="DIR",
        help=f"where BENCH_<git-rev>.json is written (default: {DEFAULT_OUT_DIR})",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline (and its text rendering under "
        f"{DEFAULT_BASELINE_TEXT}) from this run instead of comparing",
    )


def run_bench(args: argparse.Namespace) -> int:
    """The ``bips bench`` subcommand; returns the process exit code."""
    if args.repeats < 1:
        print("bips bench: --repeats must be >= 1", file=sys.stderr)
        return 2
    cases = list(SUITE)
    results, calibration_rate = run_suite(
        cases,
        args.repeats,
        progress=lambda name: print(f"bench: {name} ...", file=sys.stderr),
    )
    report = build_report(
        results,
        cases,
        calibration_rate,
        repeats=args.repeats,
        git_rev=git_revision(),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{report['git_rev']}.json"
    write_json(out_path, report)
    print(f"wrote {out_path}", file=sys.stderr)

    if args.update_baseline:
        baseline_path = Path(args.baseline)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        write_json(baseline_path, report)
        text_path = Path(DEFAULT_BASELINE_TEXT)
        text_path.parent.mkdir(parents=True, exist_ok=True)
        text_path.write_text(render_text(report))
        print(f"baseline updated: {baseline_path} (+ {text_path})", file=sys.stderr)
        print(render_text(report), end="")
        return 0

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(
            f"bips bench: no baseline at {baseline_path}; "
            "run with --update-baseline to record one",
            file=sys.stderr,
        )
        print(render_text(report), end="")
        return 0
    try:
        baseline = load_json(baseline_path)
        comparisons = compare_to_baseline(report, baseline, args.threshold)
    except ValueError as error:
        print(f"bips bench: {error}", file=sys.stderr)
        return 2
    print(render_text(report, comparisons), end="")
    if has_regression(comparisons):
        worst = min(
            (c for c in comparisons if c.status == "regression"),
            key=lambda c: c.ratio,
        )
        print(
            f"bips bench: REGRESSION — {worst.name} at {worst.ratio:.2f}x "
            f"of baseline ({worst.detail})",
            file=sys.stderr,
        )
        return 1
    return 0
