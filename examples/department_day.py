#!/usr/bin/env python3
"""A busy hour in the department: BIPS under realistic load.

Twelve users — students, staff, a professor — walk random routes through
the academic-department floor plan for a simulated hour while every
workstation runs the §5 duty cycle.  The script then reports what a
facilities operator would look at: per-room occupancy, tracking
accuracy against ground truth, detection latency, and LAN load.

    python examples/department_day.py [--users N] [--minutes M]
"""

from __future__ import annotations

import argparse

from repro.analysis.tables import render_table
from repro.building.render import render_occupancy
from repro.core.config import BIPSConfig
from repro.core.reports import OccupancyReport
from repro.core.simulation import BIPSSimulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=12)
    parser.add_argument("--minutes", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    sim = BIPSSimulation(config=BIPSConfig(seed=args.seed))
    rooms = sim.plan.room_ids()
    rng = sim.rng.child("example")

    roles = ["student", "staff", "professor"]
    for index in range(args.users):
        userid = f"u-{index:02d}"
        username = f"{roles[index % len(roles)].title()}-{index:02d}"
        sim.add_user(userid, username)
        sim.login(userid)
        sim.walk(
            userid,
            start_room=rng.choice(rooms),
            hops=max(3, int(args.minutes / 8)),
            start_at_seconds=rng.uniform(0.0, 120.0),
        )

    duration = args.minutes * 60.0
    print(f"simulating {args.minutes:.0f} minutes with {args.users} users ...")
    sim.run(until_seconds=duration)

    # Occupancy as the central server currently believes it — first the
    # floor map, then the table.
    analytics = OccupancyReport(sim.server.location_db, sim.server.registry, sim.plan)
    occupancy = {room.room_id: room for room in analytics.occupancy()}
    print()
    print(render_occupancy(sim.plan, lambda room_id: occupancy[room_id].count))
    print()
    print(
        render_table(
            ["room", "occupants", "who"],
            [
                [sim.plan.rooms[room_id].label, occupancy[room_id].count,
                 ", ".join(occupancy[room_id].usernames)]
                for room_id in rooms
            ],
            title="Current occupancy (location database view)",
            align_right=[False, True, False],
        )
    )

    # Movement analytics from the database history.
    devices = [sim.user(f"u-{i:02d}").device.address for i in range(args.users)]
    busiest = analytics.busiest_rooms(devices, top=3)
    print()
    print(
        render_table(
            ["room", "completed visits", "mean dwell"],
            [
                [
                    stats.room_id,
                    stats.visits,
                    f"{stats.mean_dwell_seconds:.0f}s" if stats.mean_dwell_seconds else "—",
                ]
                for stats in busiest
            ],
            title="Busiest rooms (from DB history)",
        )
    )
    moves = analytics.movement_matrix(devices)
    top_moves = sorted(moves.items(), key=lambda kv: kv[1], reverse=True)[:5]
    if top_moves:
        print("\nmost-travelled passages:")
        for (from_room, to_room), count in top_moves:
            print(f"  {from_room} -> {to_room}: {count}")

    report = sim.tracking_report()
    print()
    print(report.describe())

    updates = sim.server.presence_updates_received
    per_ws_cycle = updates / (len(rooms) * (duration / 15.4))
    print(f"\nLAN: {sim.lan.stats.sent} messages, {updates} presence deltas")
    print(
        f"     = {per_ws_cycle:.3f} updates per workstation-cycle "
        "(delta reporting keeps the wire almost idle)"
    )


if __name__ == "__main__":
    main()
