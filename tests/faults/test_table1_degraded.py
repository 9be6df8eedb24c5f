"""Radio outages degrade table1's rows — they never go missing.

The discovery-time harness has no LAN or workstation process, so the
crash axis of a fault profile maps to the master's radio going deaf
for seed-derived windows.  The regression being pinned: a trial whose
master was deaf discovers late (or not at all) and still renders —
the experiment completes with degraded rows, not absent ones.
"""

from __future__ import annotations

from repro.experiments.table1 import Table1Config, run_table1
from repro.obs.metrics import MetricsRegistry
from repro.runner.executor import ExperimentRunner

TRIALS = 30
CLEAN = Table1Config(trials=TRIALS, seed=321)
FAULTED = Table1Config(trials=TRIALS, seed=321, faults="chaos", fault_seed=7)


class TestDegradedOutput:
    def test_every_trial_row_survives_the_outages(self):
        result = run_table1(FAULTED)
        assert len(result.trials) == TRIALS
        csv = result.to_csv()
        assert len(csv.splitlines()) == TRIALS + 1  # header + one row each
        # The three-row table renders even with outage-stretched tails.
        rendered = result.render()
        for row_label in ("Same", "Different", "Mixed"):
            assert row_label in rendered

    def test_outages_actually_degrade_discovery(self):
        clean = run_table1(CLEAN)
        faulted = run_table1(FAULTED)
        # Same seed, same trials; only the outage windows differ — so
        # discovery can only get slower, never faster.
        slowed = 0
        for before, after in zip(clean.trials, faulted.trials):
            assert before.same_train == after.same_train
            if after.discovery_seconds is None:
                slowed += 1
                continue
            assert after.discovery_seconds >= before.discovery_seconds
            if after.discovery_seconds > before.discovery_seconds:
                slowed += 1
        assert slowed > 0, "chaos profile never touched a trial"
        assert faulted.mixed_summary.mean > clean.mixed_summary.mean

    def test_default_fault_fields_leave_results_untouched(self):
        # faults="none"/fault_seed=0 are omitted from the config digest
        # at their defaults, so the pre-fault trial seeds — and bytes —
        # are preserved exactly.
        explicit = Table1Config(trials=TRIALS, seed=321, faults="none", fault_seed=0)
        assert run_table1(CLEAN).to_csv() == run_table1(explicit).to_csv()

    def test_faulted_run_is_parallel_safe(self):
        serial = run_table1(FAULTED)
        parallel = run_table1(FAULTED, runner=ExperimentRunner(jobs=2))
        assert serial.to_csv() == parallel.to_csv()

    def test_metrics_flag_the_fault_run(self):
        registry = MetricsRegistry()
        run_table1(FAULTED, metrics=registry)
        assert registry.gauge("faults.active").value == 1
        clean_registry = MetricsRegistry()
        run_table1(CLEAN, metrics=clean_registry)
        assert clean_registry.gauge("faults.active").value == 0
