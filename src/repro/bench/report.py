"""Benchmark result persistence, baseline comparison and rendering.

The emitted artefact is ``BENCH_<git-rev>.json``; the committed
reference is ``benchmarks/baseline.json`` (same schema).  Comparison
is on the **normalized** score (case rate / calibration rate) so a
baseline recorded on one machine is meaningful on another — see
:mod:`repro.bench.harness` for the calibration contract.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .harness import BenchCase, CaseResult

SCHEMA_VERSION = 1

#: Default regression gate: >20 % drop in normalized score fails.
DEFAULT_THRESHOLD = 0.20


def git_revision(repo_root: Optional[Path] = None) -> str:
    """Short git revision of the working tree, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
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


def case_digest(case: BenchCase) -> str:
    """Digest of one case's workload parameters."""
    blob = json.dumps(
        {"name": case.name, "unit": case.unit, "params": list(case.params)},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def build_report(
    results: list[CaseResult],
    cases: list[BenchCase],
    calibration_rate: float,
    repeats: int,
    git_rev: str,
) -> dict:
    """Assemble the versioned JSON document for a bench run."""
    digests = {case.name: case_digest(case) for case in cases}
    benchmarks = {}
    for result in results:
        benchmarks[result.name] = {
            "unit": result.unit,
            "config_digest": digests.get(result.name, ""),
            "units": result.units,
            "median_s": result.median_s,
            "p90_s": result.p90_s,
            "rate_per_s": result.rate_per_s,
            "normalized": result.normalized,
            "samples_s": result.samples_s,
        }
    return {
        "schema": SCHEMA_VERSION,
        "git_rev": git_rev,
        "repeats": repeats,
        "python": platform.python_version(),
        "calibration_rate_per_s": calibration_rate,
        "benchmarks": benchmarks,
    }


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing one case against the baseline."""

    name: str
    #: ``ok`` | ``regression`` | ``improved`` | ``new`` | ``incomparable``
    status: str
    #: current normalized / baseline normalized (0 when undefined).
    ratio: float
    detail: str = ""


def compare_to_baseline(
    report: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[Comparison]:
    """Compare a run against a baseline document, case by case.

    A case regresses when its normalized score drops by more than
    ``threshold`` relative to the baseline.  Cases absent from the
    baseline are ``new``; cases whose workload digest changed are
    ``incomparable`` (the baseline needs refreshing, not the code).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1): {threshold}")
    comparisons = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name in sorted(report.get("benchmarks", {})):
        entry = report["benchmarks"][name]
        base = base_benchmarks.get(name)
        if base is None:
            comparisons.append(Comparison(name, "new", 0.0, "no baseline entry"))
            continue
        if base.get("config_digest") != entry.get("config_digest"):
            comparisons.append(
                Comparison(
                    name,
                    "incomparable",
                    0.0,
                    "workload changed; refresh the baseline",
                )
            )
            continue
        base_score = float(base.get("normalized", 0.0))
        score = float(entry.get("normalized", 0.0))
        if base_score <= 0:
            comparisons.append(Comparison(name, "new", 0.0, "baseline score empty"))
            continue
        ratio = score / base_score
        if ratio < 1.0 - threshold:
            status = "regression"
            detail = f"{(1.0 - ratio) * 100:.1f}% below baseline"
        elif ratio > 1.0 + threshold:
            status = "improved"
            detail = f"{(ratio - 1.0) * 100:.1f}% above baseline"
        else:
            status = "ok"
            detail = f"within {threshold * 100:.0f}% of baseline"
        comparisons.append(Comparison(name, status, ratio, detail))
    return comparisons


def has_regression(comparisons: list[Comparison]) -> bool:
    """Whether any compared case regressed."""
    return any(c.status == "regression" for c in comparisons)


def render_text(report: dict, comparisons: Optional[list[Comparison]] = None) -> str:
    """Human-readable rendering of a bench document."""
    lines = [
        f"bips bench — repeats={report['repeats']} "
        f"rev={report['git_rev']} python={report['python']}",
        f"calibration: {report['calibration_rate_per_s']:,.0f} iterations/s",
        "",
        f"{'benchmark':<24} {'median':>10} {'p90':>10} "
        f"{'rate':>16} {'score':>8}",
    ]
    by_name = {c.name: c for c in comparisons} if comparisons else {}
    for name in sorted(report["benchmarks"]):
        entry = report["benchmarks"][name]
        rate = f"{entry['rate_per_s']:,.0f} {entry['unit']}/s"
        line = (
            f"{name:<24} {entry['median_s'] * 1000:>8.1f}ms "
            f"{entry['p90_s'] * 1000:>8.1f}ms {rate:>16} "
            f"{entry['normalized']:>8.3f}"
        )
        verdict = by_name.get(name)
        if verdict is not None:
            line += f"  [{verdict.status}"
            if verdict.ratio:
                line += f" {verdict.ratio:.2f}x"
            line += "]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_json(path: Path, document: dict) -> None:
    """Write a bench document with stable key order."""
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_json(path: Path) -> dict:
    """Load a bench document."""
    loaded = json.loads(path.read_text())
    if not isinstance(loaded, dict):
        raise ValueError(f"{path} is not a bench document")
    return loaded
