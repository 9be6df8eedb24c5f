"""The pinned ``bips bench`` suite: its cases, their work, their shape.

Each factory runs once for real; the assertions are on unit counts
and configuration, never on timing.
"""

from __future__ import annotations

import repro.bench.suite as suite
from repro.bluetooth.scan import ResponseMode


def test_suite_is_exactly_the_two_gated_cases():
    assert tuple(case.name for case in suite.SUITE) == (
        "kernel_events",
        "swarm_piconet_100",
    )


def test_each_factory_reports_its_unit_count():
    expected = {
        # The other chains' already-posted events still fire after
        # the target is reached.
        "kernel_events": suite.KERNEL_EVENTS + suite.KERNEL_CHAINS - 1,
        "swarm_piconet_100": suite.SWARM_PICONET_HORIZON_TICKS,
    }
    for case in suite.SUITE:
        assert case.factory()() == expected[case.name], case.name


def test_swarm_case_answers_with_continuous_responses(monkeypatch):
    configs = []
    swarm_class = suite.InquiryScanSwarm

    def recording_swarm(*args, config, **kwargs):
        configs.append(config)
        return swarm_class(*args, config=config, **kwargs)

    monkeypatch.setattr(suite, "InquiryScanSwarm", recording_swarm)
    suite.swarm_piconet_100_factory()
    assert [config.response_mode for config in configs] == [ResponseMode.CONTINUOUS]
