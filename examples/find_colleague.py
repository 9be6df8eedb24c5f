#!/usr/bin/env python3
"""Find-a-colleague: the paper's motivating scenario, over the real LAN path.

A visitor arrives at the department to meet Professor Rossi.  Everything
happens through LAN messages — login requests, location queries, path
queries — exactly as the handheld would do it, including an access-
control denial: the professor has restricted who may locate him.

    python examples/find_colleague.py
"""

from __future__ import annotations

from repro import BIPSSimulation, VisibilityPolicy
from repro.lan.messages import LocationResponse, PathResponse


def main() -> None:
    sim = BIPSSimulation()

    # Off-line registration with access rights (§2): the professor can
    # only be located by his PhD student, not by arbitrary visitors.
    sim.add_user(
        "u-rossi",
        "Prof. Rossi",
        policy=VisibilityPolicy.LISTED,
        allowed_queriers={"u-student"},
    )
    sim.add_user("u-student", "PhD Student")
    sim.add_user("u-visitor", "Visitor")
    for userid in ("u-rossi", "u-student", "u-visitor"):
        sim.login(userid)

    # The professor wanders between his office and the seminar room;
    # the others start at the entrance (the library).
    sim.follow_route("u-rossi", ["office-3", "corridor-e", "seminar"])
    sim.follow_route("u-student", ["library"])
    sim.follow_route("u-visitor", ["lounge"])

    sim.run(until_seconds=420.0)

    # The visitor tries first — and is denied by the access rights.
    sim.query_location_via_lan("u-visitor", "Prof. Rossi")
    sim.run(until_seconds=421.0)
    response = next(
        m for m in sim.user("u-visitor").inbox if isinstance(m, LocationResponse)
    )
    print(f"Visitor asks for Prof. Rossi -> ok={response.ok} ({response.reason})")

    # The student asks for the full navigation answer.
    sim.query_path_via_lan("u-student", "Prof. Rossi")
    sim.run(until_seconds=422.0)
    path = next(
        m for m in sim.user("u-student").inbox if isinstance(m, PathResponse)
    )
    if path.ok:
        print("Student asks for Prof. Rossi ->")
        print(f"  walk: {' -> '.join(path.rooms)}")
        print(f"  distance: {path.total_distance_m:.1f} m")
    else:
        print(f"Student's query failed: {path.reason}")

    # The server's own query accounting, per kind.
    served, failed = sim.server.queries_served, sim.server.queries_failed
    print(
        f"\nserver stats: {served['location']} location queries "
        f"({failed['location']} failed), {served['path']} path queries "
        f"({failed['path']} failed)"
    )


if __name__ == "__main__":
    main()
