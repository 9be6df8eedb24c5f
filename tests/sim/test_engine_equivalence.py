"""The batched swarm engine: byte-identical observable behaviour.

The swarm is the only scan engine.  It replaced a per-object engine
whose Figure 2 payload is pinned below, so the swarm must still
reproduce that payload, and an experiment must give the same bytes
whether run serial or parallel.
"""

from __future__ import annotations

import hashlib

from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.table1 import Table1Config, run_table1
from repro.runner.executor import ExperimentRunner

TABLE1 = Table1Config(trials=8, seed=1313)
FIGURE2 = Figure2Config(slave_counts=(3,), replications=2, seed=1414)

#: SHA-256 of ``run_figure2(FIGURE2).to_csv()`` as produced by the retired
#: per-object engine.
OBJECT_ENGINE_FIGURE2_DIGEST = (
    "b2f32ce21c6dcfc6e234e5ea0fb8309c4adbb32389740fb4cb53f8152c24f335"
)


class TestExperimentEquivalence:
    """Whole experiments on the batched engine."""

    def test_batched_serial_vs_jobs_identical(self):
        serial_csv = run_table1(TABLE1, runner=ExperimentRunner()).to_csv()
        parallel_csv = run_table1(TABLE1, runner=ExperimentRunner(jobs=2)).to_csv()
        assert serial_csv == parallel_csv

    def test_batched_matches_object_engine_figure2(self):
        batched_csv = run_figure2(FIGURE2).to_csv()
        digest = hashlib.sha256(batched_csv.encode("utf-8")).hexdigest()
        assert digest == OBJECT_ENGINE_FIGURE2_DIGEST
