"""The pinned ``bips bench`` suite: its cases, their work, their shape.

Each factory runs once for real; the assertions are on unit counts
and configuration, never on timing.
"""

from __future__ import annotations

import repro.bench.suite as suite
from repro.bluetooth.scan import ResponseMode


def test_suite_is_exactly_the_gated_cases():
    assert tuple(case.name for case in suite.SUITE) == (
        "kernel_events",
        "swarm_piconet_100",
        "swarm_handover",
        "location_reads",
    )


def test_each_factory_reports_its_unit_count():
    expected = {
        # The other chains' already-posted events still fire after
        # the target is reached.
        "kernel_events": suite.KERNEL_EVENTS + suite.KERNEL_CHAINS - 1,
        "swarm_piconet_100": suite.SWARM_PICONET_HORIZON_TICKS,
        "swarm_handover": suite.HANDOVER_HORIZON_TICKS,
        "location_reads": suite.LOCATION_READS,
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


def test_handover_case_drains_overlapping_handheld_swarms_from_one_wake(monkeypatch):
    swarms = []
    swarm_class = suite.InquiryScanSwarm

    def recording_swarm(*args, **kwargs):
        swarm = swarm_class(*args, **kwargs)
        swarms.append(swarm)
        return swarm

    monkeypatch.setattr(suite, "InquiryScanSwarm", recording_swarm)
    suite.swarm_handover_factory()()
    assert len(swarms) == suite.HANDOVER_PICONETS > 1
    assert len({swarm._drain for swarm in swarms}) == 1
    assert {swarm.config.response_mode for swarm in swarms} == {ResponseMode.BACKOFF_EACH}
    # Every window overlaps the next piconet's.
    window = suite.HANDOVER_POLICY.inquiry_window_ticks
    assert 0 < suite.HANDOVER_STAGGER_TICKS < window
    # Every piconet answered, from fewer kernel events than swarms: the
    # drain handed over between them instead of waking once per swarm.
    assert all(swarm.scan_totals()[2] > 0 for swarm in swarms)
    assert swarms[0].kernel.events_fired < len(swarms)


def test_reads_case_answers_a_fixed_mix_from_a_populated_server(monkeypatch):
    servers = []
    server_class = suite.BIPSServer

    def recording_server(*args, **kwargs):
        server = server_class(*args, **kwargs)
        servers.append(server)
        return server

    monkeypatch.setattr(suite, "BIPSServer", recording_server)
    run = suite.location_reads_factory()
    (server,) = servers
    assert server.location_db.tracked_count == suite.READS_USERS
    assert run() == suite.LOCATION_READS
    # ``locate_at_seconds`` is not a served query: the other 80 %.
    served = server.queries_served
    assert served["location"] + served["path"] < suite.LOCATION_READS
    assert 0.55 < served["location"] / suite.LOCATION_READS < 0.65
    assert 0.15 < served["path"] / suite.LOCATION_READS < 0.25
