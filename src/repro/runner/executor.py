"""The experiment runner: serial or multi-process trial maps.

``ExperimentRunner.map_trials`` is the one entry point the experiment
harnesses use for their Monte-Carlo loops.  Determinism contract:

* trial ``i`` always runs with the seed
  ``trial_seed(experiment, seeding_digest(experiment, config), i)``
  (see ``runner.seeding``);
* results come back in trial-index order regardless of which worker
  finished first;
* payloads are normalised through JSON before they are returned, so a
  trial computed in a worker process and one computed in-process leave
  the runner as the same plain JSON values.

Together these make ``--jobs N`` byte-identical to the serial path for
every ``N``, which the test suite asserts.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from typing import Any, Callable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry

from .seeding import seeding_digest, trial_seeds

#: A trial function: ``fn(config, trial_index, seed) -> JSON payload``.
#: Must be a module-level callable so worker processes can import it.
TrialFn = Callable[[Any, int, int], Any]


def _invoke(task: tuple[Any, ...]) -> tuple[Any, float]:
    """Worker entry point: run one trial, timing it."""
    fn, config, index, seed = task
    started = time.perf_counter()
    payload = fn(config, index, seed)
    return payload, time.perf_counter() - started


def _normalize(payloads: Sequence[Any]) -> list[Any]:
    """Round-trip through JSON: payloads leave the runner as plain JSON values.

    Tuples become lists and mapping keys become strings, whether a trial
    ran in-process or in a worker, so every execution path returns the
    same values.
    """
    return json.loads(json.dumps(list(payloads)))


class ExperimentRunner:
    """Fans independent experiment trials out over worker processes.

    ``jobs=1`` (the default) runs everything in-process — the serial
    fallback every harness gets when no runner is passed.  Every call
    computes its trials; nothing is kept between calls.
    """

    def __init__(
        self,
        jobs: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        *,
        cache: None = None,
    ) -> None:
        """``cache`` accepts only ``None``.

        The runner keeps no results, but the benchmark harness in
        ``bipsbench/workloads.py`` builds its runner with ``cache=None``
        and that harness is frozen with the benchmark, so the keyword
        stays.  Anything else is refused rather than silently ignored.
        """
        if cache is not None:
            raise TypeError(f"ExperimentRunner keeps no result cache: {cache!r}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.metrics = metrics
        if metrics is not None:
            metrics.gauge("runner.jobs").set(jobs)

    # -- the single entry point --------------------------------------------

    def map_trials(
        self, experiment: str, config: Any, fn: TrialFn, count: int
    ) -> list[Any]:
        """Run ``fn(config, i, seed_i)`` for ``i in range(count)``.

        Returns the payload list in trial-index order.
        """
        if count < 0:
            raise ValueError(f"trial count must be non-negative: {count}")
        started = time.perf_counter()
        digest = seeding_digest(experiment, config)
        tasks = [
            (fn, config, index, seed)
            for index, seed in enumerate(trial_seeds(experiment, digest, count))
        ]
        if self.jobs > 1 and count > 1:
            outcomes = self._map_parallel(tasks)
            mode = "parallel"
        else:
            outcomes = [_invoke(task) for task in tasks]
            mode = "serial"
        payloads = _normalize([payload for payload, _ in outcomes])
        busy = sum(duration for _, duration in outcomes)
        self._observe_batch(
            experiment, count, time.perf_counter() - started, busy, mode=mode
        )
        return payloads

    # -- internals ----------------------------------------------------------

    def _map_parallel(self, tasks: list[tuple[Any, ...]]) -> list[tuple[Any, float]]:
        context = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(tasks))
        chunksize = max(1, len(tasks) // (workers * 4))
        with context.Pool(processes=workers) as pool:
            # Pool.map preserves task order, so trial order — and hence
            # the assembled result — is independent of scheduling.
            return pool.map(_invoke, tasks, chunksize=chunksize)

    def _observe_batch(
        self, experiment: str, count: int, wall: float, busy: float, *, mode: str
    ) -> None:
        if self.metrics is None:
            return
        self.metrics.counter("runner.batches", mode=mode).inc()
        if count:
            self.metrics.counter(
                "runner.trials_dispatched", experiment=experiment
            ).inc(count)
        # Host wall-clock: useful operationally, excluded from the
        # determinism contract (see docs/observability.md).
        self.metrics.gauge("runner.wall_seconds", experiment=experiment).inc(wall)
        self.metrics.gauge("runner.busy_seconds", experiment=experiment).inc(busy)
        if wall > 0:
            self.metrics.gauge("runner.utilization").set(
                min(1.0, busy / (wall * self.jobs))
            )

