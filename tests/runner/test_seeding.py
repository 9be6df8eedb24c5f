"""Tests for config digests and per-trial seed derivation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import pytest

from repro.experiments.table1 import Table1Config
from repro.runner.seeding import (
    code_version,
    config_digest,
    seeding_digest,
    trial_seed,
    trial_seeds,
)


class Color(Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class ToyConfig:
    trials: int = 10
    rate: float = 1.5
    color: Color = Color.RED
    windows: tuple = (1.0, 2.0)


class TestConfigDigest:
    def test_stable_across_calls(self):
        assert config_digest("toy", ToyConfig()) == config_digest("toy", ToyConfig())

    def test_differs_per_experiment(self):
        assert config_digest("a", ToyConfig()) != config_digest("b", ToyConfig())

    def test_differs_per_field_value(self):
        assert config_digest("toy", ToyConfig(trials=10)) != config_digest(
            "toy", ToyConfig(trials=11)
        )

    def test_float_fields_not_collapsed(self):
        # 1.5 vs 1.5000000001 must hash differently (repr round-trip).
        assert config_digest("toy", ToyConfig(rate=1.5)) != config_digest(
            "toy", ToyConfig(rate=1.5000000001)
        )

    def test_enum_fields_hash_by_name(self):
        assert config_digest("toy", ToyConfig(color=Color.RED)) != config_digest(
            "toy", ToyConfig(color=Color.BLUE)
        )

    def test_real_experiment_config(self):
        base = Table1Config(trials=30, seed=777)
        assert config_digest("table1", base) == config_digest(
            "table1", Table1Config(trials=30, seed=777)
        )
        assert config_digest("table1", base) != config_digest(
            "table1", Table1Config(trials=30, seed=778)
        )

    def test_folds_in_code_version(self):
        assert isinstance(code_version(), str) and code_version()

    def test_unhashable_field_raises(self):
        @dataclass(frozen=True)
        class Bad:
            thing: object = object()

        with pytest.raises(TypeError):
            config_digest("bad", Bad())


class TestSeedingDigest:
    def test_equals_cache_digest_without_declarations(self):
        assert seeding_digest("toy", ToyConfig()) == config_digest("toy", ToyConfig())

    def test_fault_fields_split_the_cache_but_not_the_seeds(self):
        clean = Table1Config(trials=30, seed=777)
        faulted = Table1Config(trials=30, seed=777, faults="chaos", fault_seed=9)
        # Distinct cache cells (a faulted run must never be served the
        # clean run's cached bytes)...
        assert config_digest("table1", clean) != config_digest("table1", faulted)
        # ...but identical trial streams: the fault plan draws from its
        # own seed, so faults degrade the same trials the clean run has.
        assert seeding_digest("table1", clean) == seeding_digest("table1", faulted)

    def test_non_fault_fields_still_shift_the_seeds(self):
        assert seeding_digest("table1", Table1Config(seed=1)) != seeding_digest(
            "table1", Table1Config(seed=2)
        )

    def test_a_version_bump_moves_no_seed(self, monkeypatch):
        import repro
        from repro.experiments import Figure2Config, Section5Config

        configs = [
            ("toy", ToyConfig()),
            ("table1", Table1Config(trials=30, seed=777, faults="chaos")),
            ("figure2", Figure2Config()),
            ("section5", Section5Config()),
        ]
        seeds = [seeding_digest(name, config) for name, config in configs]
        caches = [config_digest(name, config) for name, config in configs]
        monkeypatch.setattr(repro, "__version__", "2.0.0")
        assert [seeding_digest(name, config) for name, config in configs] == seeds
        # The patch took: the cache identity still follows the version.
        moved = [config_digest(name, config) for name, config in configs]
        assert all(new != old for new, old in zip(moved, caches))


class TestTrialSeeds:
    def test_distinct_per_index(self):
        digest = config_digest("toy", ToyConfig())
        seeds = trial_seeds("toy", digest, 50)
        assert len(set(seeds)) == 50

    def test_stable_per_index(self):
        digest = config_digest("toy", ToyConfig())
        assert trial_seed("toy", digest, 7) == trial_seed("toy", digest, 7)

    def test_distinct_per_digest(self):
        d1 = config_digest("toy", ToyConfig(trials=1))
        d2 = config_digest("toy", ToyConfig(trials=2))
        assert trial_seed("toy", d1, 0) != trial_seed("toy", d2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trial_seed("toy", "digest", -1)

    def test_empty_seed_list(self):
        assert trial_seeds("toy", "digest", 0) == []
