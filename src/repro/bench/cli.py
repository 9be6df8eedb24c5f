"""Argparse wiring for ``bips bench``.

Kept beside the harness so the main CLI only grows two hooks
(:func:`add_bench_parser`, :func:`run_bench`); exit codes follow the
``bips lint`` convention — 0 clean, 1 findings (here: regression),
2 usage/environment errors (an unknown revision among them).
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

from .harness import Pair, SideRunner, run_pairs, run_suite
from .report import (
    DEFAULT_THRESHOLD,
    build_report,
    compare,
    git_revision,
    has_regression,
    render_text,
    write_json,
)

DEFAULT_OUT_DIR = "results/bench"

#: The working tree's ``src``: the head side of every pair.
HEAD_SRC = Path(__file__).resolve().parents[2]


def add_bench_parser(subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    """Register the ``bench`` subcommand on the main CLI."""
    bench = subparsers.add_parser(
        "bench",
        help="timed hot-path suite, judged against a paired git revision "
        "(see docs/performance.md)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=5,
        metavar="K",
        help="timed repetitions per case and side (median/p90 reported)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help="regression gate: fail when a case's median head/parent time "
        "ratio exceeds 1 + FRACTION (default 0.20)",
    )
    bench.add_argument(
        "--against",
        metavar="REV",
        help="git revision to time in alternating pairs with the working "
        "tree (default: time the working tree alone)",
    )
    bench.add_argument(
        "--out-dir",
        default=DEFAULT_OUT_DIR,
        metavar="DIR",
        help=f"where BENCH_<git-rev>.json is written (default: {DEFAULT_OUT_DIR})",
    )


def checkout_src(rev: str, dest: Path) -> str:
    """Extract revision ``rev``'s ``src`` into ``dest``; return its commit.

    Raises :class:`RuntimeError` when the repository holding the working
    tree does not know ``rev`` (or git cannot run there), or when the
    commit has no ``src``.
    """
    root = HEAD_SRC.parent
    try:
        resolved = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
            cwd=root,
            capture_output=True,
            text=True,
            check=False,
        )
        if resolved.returncode != 0:
            raise RuntimeError(f"unknown revision {rev!r}")
        commit = resolved.stdout.strip()
        archive = subprocess.run(
            ["git", "archive", "--format=tar", commit, "src"],
            cwd=root,
            capture_output=True,
            check=False,
        )
    except OSError as error:
        raise RuntimeError(f"cannot run git: {error}") from error
    if archive.returncode != 0:
        raise RuntimeError(f"no src at {rev}: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_bench(args: argparse.Namespace, side: SideRunner = run_suite) -> int:
    """The ``bips bench`` subcommand; returns the process exit code."""
    if args.repeats < 1:
        print("bips bench: --repeats must be >= 1", file=sys.stderr)
        return 2
    if not 0 < args.threshold < 1:
        print("bips bench: --threshold must be in (0, 1)", file=sys.stderr)
        return 2

    def progress(step: str) -> None:
        print(f"bench: {step} ...", file=sys.stderr)

    against: Optional[str] = None
    try:
        if args.against is None:
            progress("head")
            pairs = [Pair(side(HEAD_SRC, args.repeats), None, True)]
        else:
            with tempfile.TemporaryDirectory(prefix="bips-bench-") as tmp:
                against = checkout_src(args.against, Path(tmp))
                pairs = run_pairs(
                    HEAD_SRC, Path(tmp) / "src", args.repeats, side, progress
                )
    except RuntimeError as error:
        print(f"bips bench: {error}", file=sys.stderr)
        return 2
    report = build_report(
        pairs, args.repeats, git_rev=git_revision(HEAD_SRC.parent), against=against
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{report['git_rev']}.json"
    write_json(out_path, report)
    print(f"wrote {out_path}", file=sys.stderr)

    comparisons = compare(report, args.threshold)
    print(render_text(report, comparisons), end="")
    if has_regression(comparisons):
        worst = max(
            (c for c in comparisons if c.status == "regression"),
            key=lambda c: c.ratio,
        )
        print(
            f"bips bench: REGRESSION — {worst.name} at {worst.ratio:.3f}x "
            f"of {against} ({worst.detail})",
            file=sys.stderr,
        )
        return 1
    return 0
