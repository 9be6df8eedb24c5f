"""Bench reports: the paired verdict, ``BENCH_<rev>.json`` and its text.

A paired run (:func:`repro.bench.harness.run_pairs`) times the suite
in the working tree (head) and in a checkout of the revision it is
judged against (parent), side by side on one host.  Per pair and case
the verdict reads head time over parent time; a case regresses when
the median of those ratios exceeds ``1 + threshold``.  Host speed and
slow drift cancel in each pair's ratio, so no stored baseline and no
calibration are needed, and the report's ``normalized`` field is the
median of parent time over head time.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .harness import Pair, median, summarise

SCHEMA_VERSION = 2

#: Default regression gate: a case more than 20 % slower than the
#: paired parent fails.
DEFAULT_THRESHOLD = 0.20


def git_revision(repo_root: Optional[Path] = None) -> str:
    """``git describe --always --dirty`` of the tree, or ``unknown``.

    A tree with uncommitted changes is named ``<rev>-dirty``, so a
    report measured before its commit is not filed under the parent.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=str(repo_root) if repo_root else None,
            check=False,
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def build_report(
    pairs: list[Pair], repeats: int, git_rev: str, against: Optional[str]
) -> dict:
    """Assemble the versioned JSON document for a bench run.

    Each case reports the head's timing over all its repeats and, when
    the parent ran the case too, every pair's medians and their ratio.
    """
    benchmarks: dict[str, dict] = {}
    for name, case in pairs[0].head.items():
        head = summarise(
            name,
            case.unit,
            case.units,
            [s for pair in pairs for s in pair.head[name].samples_s],
        )
        timed = [
            (pair.head[name].median_s, pair.parent[name].median_s, pair.head_first)
            for pair in pairs
            if pair.parent is not None and name in pair.parent
        ]
        benchmarks[name] = {
            "unit": head.unit,
            "units": head.units,
            "median_s": head.median_s,
            "p90_s": head.p90_s,
            "rate_per_s": head.rate_per_s,
            "samples_s": head.samples_s,
            "pairs": [
                {"head_s": h, "parent_s": p, "ratio": h / p, "head_first": head_first}
                for h, p, head_first in timed
            ],
            "ratio": median(sorted(h / p for h, p, _ in timed)) if timed else None,
            "normalized": median(sorted(p / h for h, p, _ in timed)) if timed else None,
        }
    return {
        "schema": SCHEMA_VERSION,
        "git_rev": git_rev,
        "against": against,
        "pairs": sum(pair.parent is not None for pair in pairs),
        "repeats": repeats,
        "python": platform.python_version(),
        "benchmarks": benchmarks,
    }


@dataclass(frozen=True)
class Comparison:
    """Verdict on one case of a paired run."""

    name: str
    #: ``ok`` | ``regression`` | ``improved``
    status: str
    #: median over pairs of head time / parent time.
    ratio: float
    detail: str = ""


def compare(report: dict, threshold: float = DEFAULT_THRESHOLD) -> list[Comparison]:
    """Judge every case the parent ran too, by its median pair ratio."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1): {threshold}")
    comparisons = []
    for name in sorted(report["benchmarks"]):
        ratio = report["benchmarks"][name]["ratio"]
        if ratio is None:
            continue
        if ratio > 1.0 + threshold:
            status = "regression"
            detail = f"{(ratio - 1.0) * 100:.1f}% slower than the parent"
        elif ratio < 1.0 - threshold:
            status = "improved"
            detail = f"{(1.0 - ratio) * 100:.1f}% faster than the parent"
        else:
            status = "ok"
            detail = f"within {threshold * 100:.0f}% of the parent"
        comparisons.append(Comparison(name, status, ratio, detail))
    return comparisons


def has_regression(comparisons: list[Comparison]) -> bool:
    """Whether any compared case regressed."""
    return any(c.status == "regression" for c in comparisons)


def render_text(report: dict, comparisons: Optional[list[Comparison]] = None) -> str:
    """Human-readable rendering of a bench document."""
    against = report["against"]
    lines = [
        f"bips bench — repeats={report['repeats']} "
        f"rev={report['git_rev']} python={report['python']}",
        f"against {against} in {report['pairs']} pairs" if against else "head only",
        "",
        f"{'benchmark':<24} {'median':>10} {'p90':>10} {'rate':>16}"
        + (f" {'head/parent':>12}" if against else ""),
    ]
    by_name = {c.name: c for c in comparisons} if comparisons else {}
    for name in sorted(report["benchmarks"]):
        entry = report["benchmarks"][name]
        rate = f"{entry['rate_per_s']:,.0f} {entry['unit']}/s"
        line = (
            f"{name:<24} {entry['median_s'] * 1000:>8.1f}ms "
            f"{entry['p90_s'] * 1000:>8.1f}ms {rate:>16}"
        )
        if entry["ratio"] is not None:
            line += f" {entry['ratio']:>11.3f}x"
        verdict = by_name.get(name)
        if verdict is not None:
            line += f"  [{verdict.status}]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_json(path: Path, document: dict) -> None:
    """Write a bench document with stable key order."""
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
