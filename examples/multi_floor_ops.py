#!/usr/bin/env python3
"""Operations drill on a multi-storey deployment.

A two-floor department with stairwell connectivity, users on both
floors, everything enabled (enrolment, interference, soft-state
refresh) — then a workstation crash and recovery, watched through the
admin telemetry:

    python examples/multi_floor_ops.py
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.building.layouts import multi_floor_department
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation


def print_health(sim: BIPSSimulation, rooms_of_interest: list[str]) -> None:
    """Admin-console view for a few rooms."""
    snapshots = {snap.room_id: snap for snap in sim.system_snapshot()}
    rows = []
    for room_id in rooms_of_interest:
        snap = snapshots[room_id]
        rows.append(
            [
                room_id,
                "DOWN" if snap.failed else "up",
                snap.present_count,
                snap.piconet_active,
                snap.windows_evaluated,
                snap.updates_sent,
            ]
        )
    print(
        render_table(
            ["room", "status", "present", "connected", "windows", "deltas"],
            rows,
            title=f"workstation health @ t={sim.kernel.now_seconds:.0f}s",
        )
    )


def main() -> None:
    sim = BIPSSimulation(
        plan=multi_floor_department(2),
        config=BIPSConfig(
            seed=1234,
            enroll_users=True,
            model_interference=True,
            refresh_interval_cycles=4,
        ),
    )

    sim.add_user("u-ga", "Giulia")
    sim.add_user("u-ma", "Marco")
    sim.add_user("u-te", "Teresa")
    for userid in ("u-ga", "u-ma", "u-te"):
        sim.login(userid)

    # Giulia works upstairs, Marco downstairs, Teresa moves between.
    sim.follow_route("u-ga", ["f1/office-1"])
    sim.follow_route("u-ma", ["f0/lab-2"])
    sim.follow_route(
        "u-te",
        ["f0/library", "f0/corridor-w", "f1/corridor-w", "f1/corridor-e", "f1/seminar"],
    )

    watch = ["f0/lab-2", "f0/corridor-w", "f1/corridor-w", "f1/office-1", "f1/seminar"]

    sim.run(until_seconds=240.0)
    print_health(sim, watch)

    # Cross-floor navigation: Marco asks how to reach Giulia.
    path = sim.server.navigate("u-ma", "Giulia")
    print(f"\nMarco -> Giulia: {path.describe() if path else 'unknown'}")

    # Ops drill: the upstairs corridor workstation dies for two minutes.
    print("\n*** f1/corridor-w workstation crashes ***")
    sim.fail_workstation("f1/corridor-w")
    sim.run(until_seconds=360.0)
    print_health(sim, watch)

    print("\n*** recovered ***")
    sim.recover_workstation("f1/corridor-w")
    sim.run(until_seconds=480.0)
    print_health(sim, watch)

    print()
    print(sim.tracking_report().describe())
    if sim.band is not None:
        checks = sim.band.stats.checks
        corrupted = sim.band.stats.corrupted
        rate = corrupted / checks * 100 if checks else 0.0
        print(
            f"\ninterference: {corrupted}/{checks} responses corrupted "
            f"({rate:.2f}%, model: 1/79 per active neighbouring piconet)"
        )


if __name__ == "__main__":
    main()
