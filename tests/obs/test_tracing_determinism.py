"""The tracing determinism contract.

Enabling tracing must change **no** simulated result; the collected
spans themselves must be byte-identical across runs and across
``--jobs N``; and the config digests that key the result cache must not
move when trace flags are flipped.
"""

from __future__ import annotations

import pytest

from repro.building.layouts import two_room_testbed
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.experiments.table1 import EXPERIMENT, Table1Config, trial_payload
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer, merge_worker_spans
from repro.runner import build_runner
from repro.runner.seeding import config_digest, seeding_digest

TRIALS = 6


def _run_small_sim(spans=None, metrics=None, faults=None):
    sim = BIPSSimulation(
        plan=two_room_testbed(),
        config=BIPSConfig(seed=1234),
        metrics=metrics,
        faults=faults,
        spans=spans,
    )
    sim.add_user("u-0", "Walker")
    sim.login("u-0")
    sim.walk("u-0", start_room="room-a", hops=2, start_at_seconds=5.0)
    sim.run(until_seconds=150.0)
    sim.server.locate("u-0", "Walker")
    return sim


class TestTracingChangesNothing:
    @pytest.mark.parametrize(
        "profile, instant",
        [
            ("none", None),
            ("flaky-workstations", "core.workstation_failed"),
            ("brownout", "core.server_brownout"),
        ],
        ids=["clean", "flaky-workstations", "brownout"],
    )
    def test_metrics_jsonl_identical_with_tracing_on(self, profile, instant):
        untraced = MetricsRegistry()
        _run_small_sim(metrics=untraced, faults=FaultPlan.named(profile)).finalize_metrics()
        traced = MetricsRegistry()
        spans = SpanTracer(seed=1234)
        _run_small_sim(
            spans=spans, metrics=traced, faults=FaultPlan.named(profile)
        ).finalize_metrics()
        if instant is not None:
            # The fault instants are recorded, and they move no metric.
            assert any(span.name == instant for span in spans.spans)
        assert untraced.to_jsonl() == traced.to_jsonl()

    def test_table1_payloads_identical_modulo_spans_key(self):
        runner = build_runner(jobs=1, use_cache=False)
        plain = runner.map_trials(
            EXPERIMENT, Table1Config(trials=TRIALS), trial_payload, TRIALS
        )
        traced = runner.map_trials(
            EXPERIMENT,
            Table1Config(trials=TRIALS, trace=True),
            trial_payload,
            TRIALS,
        )
        assert [
            {key: value for key, value in payload.items() if key != "spans"}
            for payload in traced
        ] == plain
        assert all(payload["spans"] for payload in traced)

    def test_trace_flags_keep_trial_seeds_but_move_the_cache_cell(self):
        plain = Table1Config(trials=TRIALS)
        traced = Table1Config(trials=TRIALS, trace=True, trace_sample=0.5)
        # Same seeding digest => a traced run replays the untraced trials.
        assert seeding_digest(EXPERIMENT, plain) == seeding_digest(
            EXPERIMENT, traced
        )
        # ...but its payloads carry spans, so it must cache separately.
        assert config_digest(EXPERIMENT, plain) != config_digest(EXPERIMENT, traced)


class TestSpanStreamDeterminism:
    def _records(self):
        spans = SpanTracer(seed=1234, sample=1.0)
        _run_small_sim(spans=spans)
        return spans.records()

    def test_two_identical_runs_produce_identical_spans(self):
        assert self._records() == self._records()

    def test_sampled_runs_are_deterministic_too(self):
        def sampled():
            spans = SpanTracer(seed=99, sample=0.25)
            _run_small_sim(spans=spans)
            return spans.records()

        first, second = sampled(), sampled()
        assert first == second
        assert 0 < len(first) < len(self._records())


class TestParallelMerge:
    def test_jobs_2_merge_is_byte_identical_to_serial(self):
        config = Table1Config(trials=TRIALS, trace=True)

        def merged(jobs):
            runner = build_runner(jobs=jobs, use_cache=False)
            payloads = runner.map_trials(EXPERIMENT, config, trial_payload, TRIALS)
            return merge_worker_spans([payload["spans"] for payload in payloads])

        serial = merged(1)
        parallel = merged(2)
        assert serial == parallel
        assert {record["pid"] for record in serial} == set(range(TRIALS))
