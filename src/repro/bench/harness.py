"""Pure-stdlib timing harness for the pinned benchmark suite.

Design points (see docs/performance.md):

* A benchmark *case* is a factory returning a zero-argument workload;
  the workload returns the number of units it processed (events,
  simulated ticks).  Building the workload is outside the
  timed region, so setup cost never pollutes the measurement.
* The suite is timed in one tree at a time, a *side*: :func:`run_suite`
  runs :data:`SIDE_SCRIPT` in a fresh interpreter whose ``PYTHONPATH``
  is that tree's ``src``.  The script reads only two names from the
  tree, ``repro.bench.suite.SUITE`` and
  ``repro.bench.harness.time_workload``, so a checkout of any revision
  that has them can be timed against the working tree.
* Each case runs ``repeats`` times on a fresh workload; the side keeps
  the median and p90 of the per-repeat wall time and the unit rate
  derived from the median (median is robust to one noisy repeat, p90
  documents spread).  Absolute times are host artefacts: only a
  ratio between two sides timed on one host, in alternating order,
  says anything about the code (see :mod:`repro.bench.report`).
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

#: A benchmark workload: runs once, returns units processed.
Workload = Callable[[], int]

#: Builds a fresh workload (fresh kernel, fresh schedule, ...) per repeat.
WorkloadFactory = Callable[[], Workload]

#: Monotonic clock in seconds; ``time.perf_counter`` unless a test
#: injects synthetic timings.
Timer = Callable[[], float]


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark: a name, a workload factory, its unit."""

    name: str
    factory: WorkloadFactory
    unit: str


@dataclass
class CaseResult:
    """Timing outcome of one case on one side."""

    name: str
    unit: str
    units: int
    repeats: int
    median_s: float
    p90_s: float
    rate_per_s: float
    samples_s: list[float] = field(default_factory=list)


#: Times the suite in one tree: (its ``src`` directory, repeats) to the
#: result of each case, by name.  :func:`run_suite` unless a test feeds
#: synthetic timings.
SideRunner = Callable[[Path, int], dict[str, CaseResult]]


def percentile(sorted_samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(0, math.ceil(fraction * len(sorted_samples)) - 1)
    return sorted_samples[min(rank, len(sorted_samples) - 1)]


def median(sorted_samples: list[float]) -> float:
    """Median of an already-sorted sample list."""
    if not sorted_samples:
        raise ValueError("no samples")
    mid = len(sorted_samples) // 2
    if len(sorted_samples) % 2:
        return sorted_samples[mid]
    return 0.5 * (sorted_samples[mid - 1] + sorted_samples[mid])


def time_workload(
    workload: Workload, timer: Timer = time.perf_counter
) -> tuple[float, int]:
    """Run ``workload`` once; return (elapsed seconds, units).

    The cyclic collector is drained, then paused, around the timed
    region: collection pauses land on whichever repeat happens to
    cross a GC threshold, which shows up as 30-50 % run-to-run noise
    on the allocation-heavy workloads.  Refcounting still
    reclaims everything the workloads free; only cycle detection
    waits until after the measurement.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = timer()
        units = workload()
        elapsed = timer() - started
    finally:
        if was_enabled:
            gc.enable()
    return elapsed, units


def summarise(name: str, unit: str, units: int, samples_s: list[float]) -> CaseResult:
    """One case's result from its per-repeat wall times."""
    samples = sorted(samples_s)
    median_s = median(samples)
    return CaseResult(
        name=name,
        unit=unit,
        units=units,
        repeats=len(samples),
        median_s=median_s,
        p90_s=percentile(samples, 0.9),
        rate_per_s=units / median_s if median_s > 0 else 0.0,
        samples_s=samples,
    )


#: What a side runs, with the tree under test first on ``sys.path``:
#: every case ``repeats`` times (``argv[1]``), each on a fresh workload,
#: printed as ``{name: [unit, [[seconds, units], ...]]}``.  It must keep
#: to names every revision it is paired against has.
SIDE_SCRIPT = """\
import json
import sys

from repro.bench.harness import time_workload
from repro.bench.suite import SUITE

repeats = int(sys.argv[1])
print(json.dumps({
    case.name: [case.unit, [time_workload(case.factory()) for _ in range(repeats)]]
    for case in SUITE
}))
"""


def run_suite(src: Path, repeats: int) -> dict[str, CaseResult]:
    """Time the suite of the tree at ``src`` in a fresh interpreter.

    The child runs in ``src`` with ``PYTHONPATH`` set to it alone, so
    neither this process's tree nor the caller's working directory can
    shadow the code under test.  Raises :class:`RuntimeError` when the
    child fails (a tree without the suite, a crashed workload).
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive: {repeats}")
    child = subprocess.run(
        [sys.executable, "-c", SIDE_SCRIPT, str(repeats)],
        cwd=src,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"timing {src} failed:\n{child.stderr.strip()}")
    results: dict[str, CaseResult] = {}
    printed = child.stdout.splitlines()[-1]
    for name, (unit, runs) in json.loads(printed).items():
        results[name] = summarise(
            name, unit, runs[-1][1], [elapsed for elapsed, _ in runs]
        )
    return results


#: Pairs of sides per paired run.  Fixed, not a flag: at least ten
#: alternating pairs is the rule every perf claim here is settled by
#: (docs/performance.md).
PAIRS = 10


@dataclass(frozen=True)
class Pair:
    """One pair of sides timed back to back: the working tree (head)
    and the revision it is judged against (parent, ``None`` when the
    head is timed alone)."""

    head: dict[str, CaseResult]
    parent: Optional[dict[str, CaseResult]]
    head_first: bool


def run_pairs(
    head_src: Path,
    parent_src: Path,
    repeats: int,
    side: SideRunner,
    progress: Callable[[str], None],
) -> list[Pair]:
    """Time :data:`PAIRS` pairs, alternating which side runs first.

    Running second can be systematically faster (a warmed file cache)
    or slower (a throttled core); alternating puts that bias on each
    side equally often, so it cancels in the median ratio.
    """
    trees = {"head": head_src, "parent": parent_src}
    pairs: list[Pair] = []
    for index in range(PAIRS):
        head_first = index % 2 == 0
        timed: dict[str, dict[str, CaseResult]] = {}
        for name in ("head", "parent") if head_first else ("parent", "head"):
            progress(f"pair {index + 1}/{PAIRS}: {name}")
            timed[name] = side(trees[name], repeats)
        pairs.append(Pair(timed["head"], timed["parent"], head_first))
    return pairs
