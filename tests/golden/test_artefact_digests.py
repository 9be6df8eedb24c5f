"""Golden artefacts: pinned payload digests and the paper's tolerances.

Every paper artefact is regenerated at a small fixed config and its
canonical text is hashed (SHA-256) against ``digests.json``.  A changed
digest means the simulation's observable behaviour changed: a pure
refactor or speed-up must leave every digest alone, while a deliberate
model fix re-records them (``--update``) *and* must still pass the
paper-tolerance checks below, which run on the very same pinned runs.

The ``enrolment.*`` payloads pin a full-feature run (the
``examples/multi_floor_ops.py`` scenario: enrolment, interference and
soft-state refresh, with a workstation crash and recovery), the only
pinned run that pages and joins users to piconets.

``figure2.contention`` and ``section5.windows`` pin what the CSV and
the §5 totals sum away: Figure 2's FHS collision and receiver-blocked
counts per population size, and each §5 window's discovered count.

The ``trace.*`` payloads pin the span stream of ``bips trace --format
jsonl`` (a traced e2e run and traced Table 1 trials), so a traced run is
held to the same byte-for-byte contract as an untraced one.

The ``example.*`` payloads pin the stdout of each script in
``examples/``, run as a user runs it.  The examples are the only runs
that reach the pager, the LAN query path and the tracking reports.

The e2e metrics JSONL drops ``sim.*`` records: they are kernel-internal
telemetry (event counts, queue depths, batch counters) that describe how
the simulation executed, not what it simulated.

Re-record after a reviewed behaviour change::

    PYTHONPATH=src python tests/golden/test_artefact_digests.py --update
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.stats import relative_error
from repro.building.layouts import multi_floor_department
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.experiments.duty_cycle import EXPERIMENT as SECTION5_EXPERIMENT
from repro.experiments.duty_cycle import PAPER_REFERENCE as SECTION5_REFERENCE
from repro.experiments.duty_cycle import Section5Config, run_section5, window_payload
from repro.experiments.e2e import E2EConfig, run_e2e
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.table1 import PAPER_REFERENCE as TABLE1_REFERENCE
from repro.experiments.table1 import EXPERIMENT as TABLE1_EXPERIMENT
from repro.experiments.table1 import Table1Config, run_table1, trial_payload
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer, merge_worker_spans
from repro.runner.executor import ExperimentRunner

DIGESTS = Path(__file__).with_name("digests.json")
REPO = Path(__file__).resolve().parents[2]

TABLE1 = Table1Config(trials=300)
FIGURE2 = Figure2Config(slave_counts=(2, 10, 20), replications=10)
SECTION5 = Section5Config(replications=20)
E2E = E2EConfig(user_count=8, duration_seconds=600.0)
FAULT_PROFILES = ("chaos", "lossy-lan")
TRACE_E2E = E2EConfig(user_count=4, duration_seconds=120.0)
TRACE_TABLE1 = Table1Config(trials=20, trace=True)

#: Relative-error bounds against the paper (those of the end-to-end
#: benchmark: the same-train row is the noisy one).
TABLE1_TOLERANCE = {"same": 0.45, "different": 0.25, "mixed": 0.30}
SECTION5_FOUND_TOLERANCE = 0.15
SECTION5_LOAD_TOLERANCE = 0.05
FIGURE2_EVER_MIN = 0.95


@lru_cache(maxsize=None)
def _table1(faults: str = "none"):
    return run_table1(replace(TABLE1, faults=faults))


@lru_cache(maxsize=None)
def _figure2():
    return run_figure2(FIGURE2)


@lru_cache(maxsize=None)
def _section5():
    return run_section5(SECTION5)


@lru_cache(maxsize=None)
def _e2e(faults: str = "none") -> tuple[str, str]:
    """(rendered report, metrics JSONL without ``sim.*`` records)."""
    registry = MetricsRegistry()
    result = run_e2e(replace(E2E, faults=faults), metrics=registry)
    return result.render(), _metrics_jsonl(registry)


def _metrics_jsonl(registry: MetricsRegistry) -> str:
    return "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in registry.snapshot()
        if not record["name"].startswith("sim.")
    )


def _spans_jsonl(records: list[dict]) -> str:
    """Span records as ``bips trace --format jsonl`` writes them."""
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records
    )


def _traced_e2e(faults: str) -> str:
    config = replace(TRACE_E2E, faults=faults)
    spans = SpanTracer(seed=config.seed)
    run_e2e(config, spans=spans)
    return _spans_jsonl(spans.records())


def _traced_table1(faults: str) -> str:
    config = replace(TRACE_TABLE1, faults=faults)
    runner = ExperimentRunner()
    payloads = runner.map_trials(TABLE1_EXPERIMENT, config, trial_payload, config.trials)
    return _spans_jsonl(merge_worker_spans([payload["spans"] for payload in payloads]))


@lru_cache(maxsize=None)
def _enrolment() -> tuple[str, str, str]:
    """(tracking report, snapshots after each phase, metrics JSONL)."""
    sim = BIPSSimulation(
        plan=multi_floor_department(2),
        config=BIPSConfig(
            seed=1234,
            enroll_users=True,
            model_interference=True,
            refresh_interval_cycles=4,
        ),
    )
    for userid, name in (("u-ga", "Giulia"), ("u-ma", "Marco"), ("u-te", "Teresa")):
        sim.add_user(userid, name)
        sim.login(userid)
    sim.follow_route("u-ga", ["f1/office-1"])
    sim.follow_route("u-ma", ["f0/lab-2"])
    sim.follow_route(
        "u-te",
        ["f0/library", "f0/corridor-w", "f1/corridor-w", "f1/corridor-e", "f1/seminar"],
    )
    snapshots = []
    sim.run(until_seconds=240.0)
    snapshots.append(repr(sim.system_snapshot()))
    sim.fail_workstation("f1/corridor-w")
    sim.run(until_seconds=360.0)
    snapshots.append(repr(sim.system_snapshot()))
    sim.recover_workstation("f1/corridor-w")
    sim.run(until_seconds=480.0)
    snapshots.append(repr(sim.system_snapshot()))
    sim.finalize_metrics()
    return (
        sim.tracking_report().describe(),
        "\n".join(snapshots),
        _metrics_jsonl(sim.metrics),
    )


def _figure2_contention() -> str:
    """Per population size, the FHS collisions and receiver-blocked
    responses summed over the replications."""
    return "".join(
        f"n={curve.slave_count} collisions={curve.collisions} "
        f"blocked={curve.blocked_responses}\n"
        for curve in _figure2().curves
    )


def _section5_windows() -> str:
    """The slaves each replication's window discovered, in order."""
    runner = ExperimentRunner()
    payloads = runner.map_trials(
        SECTION5_EXPERIMENT, SECTION5, window_payload, SECTION5.replications
    )
    return " ".join(str(payload["found"]) for payload in payloads) + "\n"


def _section5_text() -> str:
    result = _section5()
    return (
        f"discovered={result.discovered} total={result.total_slaves} "
        f"crossing={result.crossing_seconds!r} load={result.tracking_load!r}"
    )


def _example(name: str) -> str:
    """The stdout of ``examples/<name>.py``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    script = REPO / "examples" / f"{name}.py"
    return subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, check=True
    ).stdout


#: Every pinned payload: name -> canonical text (runs are cached).
PAYLOADS: dict[str, Callable[[], str]] = {
    "table1.csv": lambda: _table1().to_csv(),
    "figure2.csv": lambda: _figure2().to_csv(),
    "figure2.contention": _figure2_contention,
    "section5": _section5_text,
    "section5.windows": _section5_windows,
    "e2e.report": lambda: _e2e()[0],
    "e2e.metrics.jsonl": lambda: _e2e()[1],
    "enrolment.report": lambda: _enrolment()[0],
    "enrolment.snapshots": lambda: _enrolment()[1],
    "enrolment.metrics.jsonl": lambda: _enrolment()[2],
    "trace.e2e.spans.jsonl": lambda: _traced_e2e("none"),
    "trace.e2e.chaos.spans.jsonl": lambda: _traced_e2e("chaos"),
    "trace.table1.chaos.spans.jsonl": lambda: _traced_table1("chaos"),
}
for _example_path in sorted((REPO / "examples").glob("*.py")):
    PAYLOADS[f"example.{_example_path.stem}"] = lambda n=_example_path.stem: _example(n)
for _profile in FAULT_PROFILES:
    PAYLOADS[f"table1.{_profile}.csv"] = lambda p=_profile: _table1(p).to_csv()
    PAYLOADS[f"e2e.{_profile}.report"] = lambda p=_profile: _e2e(p)[0]
    PAYLOADS[f"e2e.{_profile}.metrics.jsonl"] = lambda p=_profile: _e2e(p)[1]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_covers_every_payload():
    assert sorted(_pinned()) == sorted(PAYLOADS)


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_payload_digest_is_pinned(name):
    assert _digest(PAYLOADS[name]()) == _pinned()[name], (
        f"{name} changed; if the behaviour change is intended, re-record "
        f"with --update and review the paper-tolerance checks"
    )


def test_e2e_metrics_exclude_kernel_telemetry():
    assert '"sim.' not in _e2e()[1]
    assert '"bt.scan.responses_sent"' in _e2e()[1]


class TestPaperTolerances:
    """The paper's headline numbers, on the same pinned runs."""

    @pytest.mark.parametrize("row", ["same", "different", "mixed"])
    def test_table1_row_within_tolerance(self, row):
        summary = getattr(_table1(), f"{row}_summary")
        error = relative_error(summary.mean, TABLE1_REFERENCE[row])
        assert error <= TABLE1_TOLERANCE[row], (row, summary.mean, error)

    def test_table1_same_train_is_faster(self):
        result = _table1()
        assert result.same_summary.mean < result.different_summary.mean
        assert result.undiscovered == 0

    def test_figure2_twenty_slaves_found(self):
        ever = _figure2().curve_for(20).cdf.completion_fraction
        assert ever >= FIGURE2_EVER_MIN

    def test_section5_found_fraction(self):
        measured = _section5().discovered_fraction
        reference = SECTION5_REFERENCE["discovered_fraction"]
        assert relative_error(measured, reference) <= SECTION5_FOUND_TOLERANCE

    def test_section5_tracking_load(self):
        measured = _section5().tracking_load
        reference = SECTION5_REFERENCE["tracking_load"]
        assert relative_error(measured, reference) <= SECTION5_LOAD_TOLERANCE


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_artefact_digests.py --update")
    digests = {name: _digest(PAYLOADS[name]()) for name in sorted(PAYLOADS)}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
