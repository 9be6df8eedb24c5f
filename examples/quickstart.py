#!/usr/bin/env python3
"""Quickstart: deploy BIPS, track two users, and answer the paper's query.

Runs the complete stack — floor plan, per-room workstation masters on
the §5 duty cycle, the simulated LAN, the central server — then asks
the question BIPS was built for: *where is my colleague, and what is
the shortest path to them?*

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.simulation import BIPSSimulation


def main() -> None:
    # 1. Deploy: the default plan is one floor of an academic department
    #    with a BIPS workstation (Bluetooth master) in every room.
    sim = BIPSSimulation()
    print(f"deployed {len(sim.workstations)} workstations:")
    print(f"  policy: {sim.config.policy.describe()}")

    # 2. Register users (the paper's off-line procedure) and log them in
    #    (binding userid <-> the handheld's BD_ADDR).
    sim.add_user("u-alice", "Alice")
    sim.add_user("u-bob", "Bob")
    sim.login("u-alice")
    sim.login("u-bob")
    print(f"  Alice's handheld: {sim.user('u-alice').device.address}")

    # 3. Movement: Alice walks to the seminar room; Bob stays in the lab.
    sim.follow_route("u-alice", ["lab-1", "corridor-w", "corridor-e", "seminar"])
    sim.follow_route("u-bob", ["lab-2"])

    # 4. Run ten simulated minutes of tracking.
    sim.run(until_seconds=600.0)

    # 5. The spatio-temporal query of §2: "Select the target actual
    #    piconet of the mobile device ... associated with the given
    #    user name" — plus the Dijkstra path to walk there.
    alice_room = sim.server.locate("u-bob", "Alice")
    print(f"\nBob asks: where is Alice?  ->  {alice_room}")

    path = sim.server.navigate("u-bob", "Alice")
    if path is not None:
        print(f"Bob's display shows: {path.describe()}")

    # 6. How well did the tracking work against ground truth?
    print()
    print(sim.tracking_report().describe())
    print(f"\nLAN traffic: {sim.lan.stats.sent} messages "
          f"({sim.lan.stats.by_type})")


if __name__ == "__main__":
    main()
