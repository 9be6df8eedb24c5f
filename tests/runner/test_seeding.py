"""Tests for config digests and per-trial seed derivation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import pytest

from repro.experiments.duty_cycle import Section5Config
from repro.experiments.figure2 import Figure2Config
from repro.experiments.table1 import Table1Config
from repro.runner.seeding import seeding_digest, trial_seed, trial_seeds


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
        assert seeding_digest("toy", ToyConfig()) == seeding_digest("toy", ToyConfig())

    def test_differs_per_experiment(self):
        assert seeding_digest("a", ToyConfig()) != seeding_digest("b", ToyConfig())

    def test_differs_per_field_value(self):
        assert seeding_digest("toy", ToyConfig(trials=10)) != seeding_digest(
            "toy", ToyConfig(trials=11)
        )

    def test_float_fields_not_collapsed(self):
        # 1.5 vs 1.5000000001 must hash differently (repr round-trip).
        assert seeding_digest("toy", ToyConfig(rate=1.5)) != seeding_digest(
            "toy", ToyConfig(rate=1.5000000001)
        )

    def test_enum_fields_hash_by_name(self):
        assert seeding_digest("toy", ToyConfig(color=Color.RED)) != seeding_digest(
            "toy", ToyConfig(color=Color.BLUE)
        )

    def test_real_experiment_config(self):
        base = Table1Config(trials=30, seed=777)
        assert seeding_digest("table1", base) == seeding_digest(
            "table1", Table1Config(trials=30, seed=777)
        )
        assert seeding_digest("table1", base) != seeding_digest(
            "table1", Table1Config(trials=30, seed=778)
        )

    def test_unhashable_field_raises(self):
        @dataclass(frozen=True)
        class Bad:
            thing: object = object()

        with pytest.raises(TypeError):
            seeding_digest("bad", Bad())


class TestSeedingDigest:
    def test_fault_and_trace_fields_do_not_shift_the_seeds(self):
        # The fault plan draws from its own seed and the tracer only
        # observes, so a chaos or traced run draws the clean run's trials.
        clean = Table1Config(trials=30, seed=777)
        faulted = Table1Config(
            trials=30, seed=777, faults="chaos", fault_seed=9, trace=True
        )
        assert seeding_digest("table1", clean) == seeding_digest("table1", faulted)

    def test_non_fault_fields_still_shift_the_seeds(self):
        assert seeding_digest("table1", Table1Config(seed=1)) != seeding_digest(
            "table1", Table1Config(seed=2)
        )

    def test_a_version_bump_moves_no_seed(self, monkeypatch):
        import repro

        configs = [
            ("toy", ToyConfig()),
            ("table1", Table1Config(trials=30, seed=777, faults="chaos")),
            ("figure2", Figure2Config()),
            ("section5", Section5Config()),
        ]
        seeds = [seeding_digest(name, config) for name, config in configs]
        monkeypatch.setattr(repro, "__version__", "2.0.0")
        assert [seeding_digest(name, config) for name, config in configs] == seeds


class TestSeedPins:
    """Literal seeding digests of the committed paper configs.

    Every committed artefact was seeded under these bytes.  A change to
    the canonical form, the salt or a config's digest declarations that
    moves any of them reshuffles the trial streams behind the results.
    """

    @pytest.mark.parametrize(
        "experiment, config, digest",
        [
            (
                "table1",
                Table1Config(),
                "14535b40cd7cc7edb587c15875f9d71b234c7627488c2e4c8b71748ef8d88fd6",
            ),
            (
                "table1",
                Table1Config(
                    faults="chaos", fault_seed=9, trace=True, trace_sample=0.5
                ),
                "14535b40cd7cc7edb587c15875f9d71b234c7627488c2e4c8b71748ef8d88fd6",
            ),
            (
                "figure2",
                Figure2Config(),
                "7d4368c5654e37a0173825e0e3bc818bbd3095fed2bbe89ec06356ab5a6b6059",
            ),
            (
                "section5",
                Section5Config(),
                "23414e46a9f56d2369ef8c6dd1450fcdf582be963e5a38ed2313b8bf93885f62",
            ),
            (
                # One sweep_inquiry_window cell at its default arguments.
                "section5",
                Section5Config(
                    slave_count=20,
                    replications=40,
                    seed=77005,
                    inquiry_window_seconds=3.84,
                ),
                "1ff17c2f0224bbed77f9bf14eebfe3751d11d6bf44fc783876c84a0ef24c0ae3",
            ),
        ],
        ids=["table1", "table1-chaos-traced", "figure2", "section5", "sweep-window"],
    )
    def test_committed_configs_keep_their_seeds(self, experiment, config, digest):
        assert seeding_digest(experiment, config) == digest


class TestTrialSeeds:
    def test_distinct_per_index(self):
        digest = seeding_digest("toy", ToyConfig())
        seeds = trial_seeds("toy", digest, 50)
        assert len(set(seeds)) == 50

    def test_stable_per_index(self):
        digest = seeding_digest("toy", ToyConfig())
        assert trial_seed("toy", digest, 7) == trial_seed("toy", digest, 7)

    def test_distinct_per_digest(self):
        d1 = seeding_digest("toy", ToyConfig(trials=1))
        d2 = seeding_digest("toy", ToyConfig(trials=2))
        assert trial_seed("toy", d1, 0) != trial_seed("toy", d2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trial_seed("toy", "digest", -1)

    def test_empty_seed_list(self):
        assert trial_seeds("toy", "digest", 0) == []
