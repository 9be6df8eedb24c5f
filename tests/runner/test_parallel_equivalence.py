"""Serial == parallel byte-equality for the real experiment harnesses.

The acceptance contract of the runner: ``--jobs N`` must reproduce the
serial results byte for byte at the same seed, and a warm cache must
serve a repeated run without dispatching a single trial.  Sample sizes
are tiny — identity, not statistics, is being asserted.
"""

from __future__ import annotations

import pytest

from repro.bluetooth.scan import PhaseMode
from repro.experiments.duty_cycle import Section5Config, run_section5
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.sweep import sweep_inquiry_window, sweep_table1_phase_mode
from repro.experiments.table1 import Table1Config, run_table1
from repro.obs.metrics import MetricsRegistry
from repro.runner import ExperimentRunner, ResultCache


def parallel_runner(jobs: int = 2, **kwargs) -> ExperimentRunner:
    return ExperimentRunner(jobs=jobs, **kwargs)


class TestSerialParallelEquality:
    def test_table1_bytes_equal(self):
        config = Table1Config(trials=10, seed=777)
        serial = run_table1(config)
        parallel = run_table1(config, runner=parallel_runner())
        assert serial.to_csv() == parallel.to_csv()

    def test_table1_metrics_equal(self):
        # The experiment-layer metrics are computed from returned
        # payloads, so they cannot depend on where trials ran.
        config = Table1Config(trials=8, seed=41)
        serial_registry = MetricsRegistry()
        run_table1(config, metrics=serial_registry)
        parallel_registry = MetricsRegistry()
        run_table1(config, metrics=parallel_registry, runner=parallel_runner())
        serial_lines = [
            line
            for line in serial_registry.to_jsonl().splitlines()
            if "table1." in line
        ]
        parallel_lines = [
            line
            for line in parallel_registry.to_jsonl().splitlines()
            if "table1." in line
        ]
        assert serial_lines == parallel_lines

    def test_figure2_bytes_equal(self):
        config = Figure2Config(slave_counts=(2, 6), replications=3, seed=901)
        serial = run_figure2(config)
        parallel = run_figure2(config, runner=parallel_runner())
        assert serial.to_csv() == parallel.to_csv()
        for count in config.slave_counts:
            assert (
                serial.curve_for(count).collisions
                == parallel.curve_for(count).collisions
            )

    def test_section5_equal(self):
        config = Section5Config(replications=4, seed=902, slave_count=5)
        serial = run_section5(config)
        parallel = run_section5(config, runner=parallel_runner())
        assert serial.discovered == parallel.discovered
        assert serial.total_slaves == parallel.total_slaves

    def test_sweep_bytes_equal(self):
        serial = sweep_inquiry_window(
            windows_seconds=(2.56, 3.84), slave_count=5, replications=3
        )
        parallel = sweep_inquiry_window(
            windows_seconds=(2.56, 3.84),
            slave_count=5,
            replications=3,
            runner=parallel_runner(),
        )
        assert serial.render() == parallel.render()


class TestCacheSemantics:
    def test_warm_cache_skips_all_trials(self, tmp_path):
        windows = (2.56, 3.84, 5.12)
        cold = sweep_inquiry_window(
            windows_seconds=windows,
            slave_count=4,
            replications=3,
            runner=ExperimentRunner(cache=ResultCache(tmp_path)),
        )
        registry = MetricsRegistry()
        warm = sweep_inquiry_window(
            windows_seconds=windows,
            slave_count=4,
            replications=3,
            runner=ExperimentRunner(cache=ResultCache(tmp_path), metrics=registry),
        )
        assert cold.render() == warm.render()
        # Cache-hit counter equals cell count; nothing was recomputed.
        hits = registry.counter("runner.cache_hits", experiment="section5").value
        assert hits == len(windows)
        assert ("runner.trials_dispatched") not in {
            record["name"] for record in registry.snapshot()
        }

    def test_cached_and_fresh_results_identical(self, tmp_path):
        config = Table1Config(trials=6, seed=555)
        fresh = run_table1(config)
        cached_runner = ExperimentRunner(cache=ResultCache(tmp_path))
        cold = run_table1(config, runner=cached_runner)
        warm = run_table1(config, runner=cached_runner)
        assert fresh.to_csv() == cold.to_csv() == warm.to_csv()

    def test_seed_change_misses_cache(self, tmp_path):
        registry = MetricsRegistry()
        runner = ExperimentRunner(cache=ResultCache(tmp_path), metrics=registry)
        run_table1(Table1Config(trials=4, seed=1), runner=runner)
        run_table1(Table1Config(trials=4, seed=2), runner=runner)
        assert registry.counter("runner.cache_hits", experiment="table1").value == 0
        assert (
            registry.counter("runner.cache_misses", experiment="table1").value == 2
        )


class TestSweepSeedIndependence:
    def test_variants_do_not_replay_one_stream(self):
        """Ablation variants at the same seed must draw independently.

        Before config-digest seeding, both phase modes replayed the
        same stream: the per-trial coin flips (start train, clock
        offset) were byte-identical across variants, silently
        correlating the columns being compared.
        """
        trials = 40
        fixed = run_table1(
            Table1Config(trials=trials, seed=77001, phase_mode=PhaseMode.FIXED)
        )
        sequence = run_table1(
            Table1Config(trials=trials, seed=77001, phase_mode=PhaseMode.SEQUENCE)
        )
        fixed_trains = [t.same_train for t in fixed.trials]
        sequence_trains = [t.same_train for t in sequence.trials]
        # 40 independent coin flips colliding has probability 2^-40.
        assert fixed_trains != sequence_trains

    def test_window_cells_draw_distinct_streams(self):
        """Each window cell's replications must be independent draws."""
        sweep = sweep_inquiry_window(
            windows_seconds=(2.56, 2.561), slave_count=8, replications=6
        )
        # Two near-identical windows sharing one stream would produce
        # exactly equal fractions; independent streams almost never do.
        # (Checked loosely: the *configs* differ, so the digests do.)
        from repro.experiments.duty_cycle import EXPERIMENT as S5
        from repro.runner.seeding import config_digest

        a = config_digest(S5, Section5Config(inquiry_window_seconds=2.56))
        b = config_digest(S5, Section5Config(inquiry_window_seconds=2.561))
        assert a != b
        assert len(sweep.rows) == 2

    def test_phase_sweep_runs_with_parallel_runner(self):
        serial = sweep_table1_phase_mode(trials=6, seed=11)
        parallel = sweep_table1_phase_mode(trials=6, seed=11, runner=parallel_runner())
        assert serial.render() == parallel.render()
