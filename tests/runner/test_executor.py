"""Tests for the experiment runner itself (cheap synthetic trials).

The trial function here is deliberately trivial — the real experiment
equivalence is covered by ``test_parallel_equivalence.py``; these tests
pin the runner mechanics: ordering, seeding, and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runner.executor import ExperimentRunner
from repro.runner.seeding import seeding_digest, trial_seeds


@dataclass(frozen=True)
class EchoConfig:
    label: str = "echo"
    scale: int = 2


def echo_trial(config: EchoConfig, index: int, seed: int) -> dict:
    """Module-level so worker processes can import it."""
    return {"index": index, "seed": seed, "scaled": index * config.scale}


class TestSerialMapping:
    def test_results_in_index_order(self):
        payloads = ExperimentRunner().map_trials("echo", EchoConfig(), echo_trial, 5)
        assert [p["index"] for p in payloads] == [0, 1, 2, 3, 4]

    def test_trials_get_derived_seeds(self):
        config = EchoConfig()
        payloads = ExperimentRunner().map_trials("echo", config, echo_trial, 4)
        expected = trial_seeds("echo", seeding_digest("echo", config), 4)
        assert [p["seed"] for p in payloads] == expected

    def test_zero_trials(self):
        assert ExperimentRunner().map_trials("echo", EchoConfig(), echo_trial, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner().map_trials("echo", EchoConfig(), echo_trial, -1)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_cache_keyword_accepts_only_none(self):
        plain = ExperimentRunner().map_trials("echo", EchoConfig(), echo_trial, 2)
        keyed = ExperimentRunner(cache=None).map_trials(
            "echo", EchoConfig(), echo_trial, 2
        )
        assert keyed == plain
        with pytest.raises(TypeError):
            ExperimentRunner(cache="results/cache")

    def test_payloads_json_normalised(self):
        # Tuples in payloads come back as lists, as from a worker process.
        def tuple_trial(config, index, seed):
            return {"pair": (index, seed)}

        payloads = ExperimentRunner().map_trials("echo", EchoConfig(), tuple_trial, 2)
        assert isinstance(payloads[0]["pair"], list)


class TestParallelMapping:
    def test_matches_serial_bytes(self):
        config = EchoConfig(scale=3)
        serial = ExperimentRunner().map_trials("echo", config, echo_trial, 8)
        parallel = ExperimentRunner(jobs=2).map_trials("echo", config, echo_trial, 8)
        assert serial == parallel

    def test_worker_count_does_not_change_results(self):
        config = EchoConfig(scale=5)
        two = ExperimentRunner(jobs=2).map_trials("echo", config, echo_trial, 6)
        three = ExperimentRunner(jobs=3).map_trials("echo", config, echo_trial, 6)
        assert two == three


class TestMetrics:
    def test_dispatch_and_batch_counters(self):
        registry = MetricsRegistry()
        runner = ExperimentRunner(metrics=registry)
        runner.map_trials("echo", EchoConfig(), echo_trial, 5)
        assert registry.counter("runner.trials_dispatched", experiment="echo").value == 5
        assert registry.counter("runner.batches", mode="serial").value == 1
        assert registry.gauge("runner.jobs").value == 1

    def test_wall_clock_gauges_recorded(self):
        registry = MetricsRegistry()
        ExperimentRunner(metrics=registry).map_trials(
            "echo", EchoConfig(), echo_trial, 3
        )
        assert registry.gauge("runner.wall_seconds", experiment="echo").value >= 0.0
        assert registry.gauge("runner.busy_seconds", experiment="echo").value >= 0.0

    def test_runs_without_registry(self):
        assert ExperimentRunner().map_trials("echo", EchoConfig(), echo_trial, 1)
