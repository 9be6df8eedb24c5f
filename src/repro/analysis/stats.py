"""Summary statistics for experiment results.

Self-contained (no scipy needed at runtime) so the core experiment path
has no heavyweight imports; the benchmarks may still use numpy/scipy for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class Summary:
    """Mean/std/extremes/CI of one sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci95_half_width: float


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of ``values``.

    Raises:
        ValueError: on an empty sample.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    count = len(values)
    mean = sum(values) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in values) / (count - 1)
    else:
        variance = 0.0
    std = math.sqrt(variance)
    half_width = 1.96 * std / math.sqrt(count) if count > 1 else 0.0
    return Summary(
        count=count,
        mean=mean,
        std=std,
        minimum=min(values),
        maximum=max(values),
        ci95_half_width=half_width,
    )


def proportion_ci95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95 % confidence interval for a proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    z = 1.96
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


def relative_error(measured: float, reference: float) -> float:
    """|measured − reference| / |reference| (reference must be nonzero)."""
    if reference == 0:
        raise ValueError("reference value is zero")
    return abs(measured - reference) / abs(reference)


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical CDF over event times, with right-censored samples.

    ``times`` are the event times of the non-censored samples;
    ``total`` counts all samples including those that never saw the
    event (censored), so ``value(t)`` is a true probability.
    """

    times: tuple[float, ...]
    total: int

    def __post_init__(self) -> None:
        if self.total < len(self.times):
            raise ValueError(
                f"total {self.total} smaller than event count {len(self.times)}"
            )
        if any(self.times[i] > self.times[i + 1] for i in range(len(self.times) - 1)):
            raise ValueError("times must be sorted")

    @classmethod
    def from_samples(
        cls, samples: Sequence[Optional[float]]
    ) -> "EmpiricalCDF":
        """Build from samples where None means "event never happened"."""
        times = tuple(sorted(s for s in samples if s is not None))
        return cls(times=times, total=len(samples))

    def value(self, t: float) -> float:
        """P(event time <= t)."""
        if self.total == 0:
            return 0.0
        # binary search for rightmost time <= t
        lo, hi = 0, len(self.times)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.times[mid] <= t:
                lo = mid + 1
            else:
                hi = mid
        return lo / self.total

    def sample_curve(self, grid: Sequence[float]) -> list[float]:
        """CDF values on a time grid."""
        return [self.value(t) for t in grid]

    @property
    def completion_fraction(self) -> float:
        """Fraction of samples that ever saw the event."""
        if self.total == 0:
            return 0.0
        return len(self.times) / self.total
