"""Pure-stdlib timing harness for the pinned benchmark suite.

Design points (see docs/performance.md):

* A benchmark *case* is a factory returning a zero-argument workload;
  the workload returns the number of units it processed (events,
  simulated ticks).  Building the workload is outside the
  timed region, so setup cost never pollutes the measurement.
* Each case runs ``repeats`` times; the report keeps the median and
  p90 of the per-repeat wall time and the unit rate derived from the
  median (median is robust to one noisy repeat, p90 documents spread).
* Every run also times a fixed pure-Python **calibration** workload
  and records each case's rate *relative* to it.  Absolute rates are
  machine-speed artefacts; the normalized score cancels the host out,
  which is what makes a committed ``benchmarks/baseline.json``
  comparable across laptops and CI runners.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
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
    """One pinned benchmark: a name, a workload factory, parameters.

    ``params`` feed the config digest: change a workload's shape and
    the digest changes, which voids baseline comparisons for the case
    instead of silently comparing different experiments.
    """

    name: str
    factory: WorkloadFactory
    unit: str
    params: tuple[tuple[str, object], ...] = ()


@dataclass
class CaseResult:
    """Timing outcome of one case."""

    name: str
    unit: str
    units: int
    repeats: int
    median_s: float
    p90_s: float
    rate_per_s: float
    #: ``rate_per_s / calibration rate`` — the machine-neutral score.
    normalized: float
    samples_s: list[float] = field(default_factory=list)


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


#: Iterations of the calibration loop (fixed: part of the contract).
CALIBRATION_ITERATIONS = 400_000


def calibration_workload() -> int:
    """The fixed pure-Python workload every run is normalized against.

    Deliberately boring: integer arithmetic, attribute-free, no
    allocation-heavy tricks — a proxy for "how fast does this host run
    plain CPython bytecode", which is the denominator that makes bench
    scores portable.
    """
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i ^ (i >> 3)
    # Consume the result so the loop cannot be argued away.
    return CALIBRATION_ITERATIONS + (total & 1)


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


def measure_case(
    case: BenchCase,
    repeats: int,
    calibration_rate: float,
    timer: Timer = time.perf_counter,
) -> CaseResult:
    """Run one case ``repeats`` times and summarise."""
    if repeats <= 0:
        raise ValueError(f"repeats must be positive: {repeats}")
    samples: list[float] = []
    units = 0
    for _ in range(repeats):
        workload = case.factory()
        elapsed, units = time_workload(workload, timer)
        samples.append(elapsed)
    samples.sort()
    median_s = median(samples)
    rate = units / median_s if median_s > 0 else 0.0
    return CaseResult(
        name=case.name,
        unit=case.unit,
        units=units,
        repeats=repeats,
        median_s=median_s,
        p90_s=percentile(samples, 0.9),
        rate_per_s=rate,
        normalized=rate / calibration_rate if calibration_rate > 0 else 0.0,
        samples_s=samples,
    )


def measure_calibration(
    repeats: int, timer: Timer = time.perf_counter
) -> tuple[float, float]:
    """Time the calibration workload; return (median seconds, rate)."""
    samples: list[float] = []
    units = 0
    for _ in range(max(3, repeats)):
        elapsed, units = time_workload(calibration_workload, timer)
        samples.append(elapsed)
    samples.sort()
    median_s = median(samples)
    return median_s, (units / median_s if median_s > 0 else 0.0)


def run_suite(
    cases: list[BenchCase],
    repeats: int,
    progress: Optional[Callable[[str], None]] = None,
    timer: Timer = time.perf_counter,
) -> tuple[list[CaseResult], float]:
    """Measure every case; returns (results, calibration rate)."""
    _, calibration_rate = measure_calibration(repeats, timer)
    results = []
    for case in cases:
        if progress is not None:
            progress(case.name)
        results.append(measure_case(case, repeats, calibration_rate, timer))
    return results, calibration_rate
