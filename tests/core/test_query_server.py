"""Tests for the central server: its query answers and its message handling."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.building.layouts import academic_department
from repro.core.errors import AccessDeniedError, NotLoggedInError, UnknownUserError
from repro.core.registry import VisibilityPolicy
from repro.core.server import BIPSServer
from repro.lan.messages import (
    LocationQuery,
    LocationResponse,
    PathQuery,
    PathResponse,
    PresenceUpdate,
    WorkstationHello,
)
from repro.lan.transport import LANTransport
from tests.layouts import linear_wing

ALICE_DEV = BDAddr(0x100)
BOB_DEV = BDAddr(0x200)


@pytest.fixture
def wing(kernel):
    """A server on a four-room wing, Alice and Bob logged in, and a client inbox."""
    lan = LANTransport(kernel)
    server = BIPSServer(kernel, lan, linear_wing(4))
    inbox = []
    lan.register("client", lambda src, msg: inbox.append(msg))
    server.registry.register("u-alice", "Alice", "pw")
    server.registry.register("u-bob", "Bob", "pw")
    server.registry.login("u-alice", "pw", ALICE_DEV, tick=0)
    server.registry.login("u-bob", "pw", BOB_DEV, tick=0)
    return server, inbox


def _ask(server, inbox, query):
    """Send ``query`` from the client over the LAN; the server's response."""
    server.lan.send("client", server.endpoint, query)
    server.kernel.run_until(server.kernel.now + 100)
    return inbox[-1]


class TestServerQueries:
    """§2's answers, read directly and as LAN queries."""

    def test_locate_known_target(self, wing):
        server, inbox = wing
        server.location_db.apply_presence(ALICE_DEV, "wing-2", 100, "ws")
        assert server.locate("u-bob", "Alice") == "wing-2"
        response = _ask(server, inbox, LocationQuery(0, "u-bob", "Alice", query_id=1))
        assert response.ok and response.room_id == "wing-2" and not response.stale
        assert server.queries_served == {"location": 2, "path": 0}

    def test_locate_untracked_target_returns_none(self, wing):
        server, inbox = wing
        assert server.locate("u-bob", "Alice") is None
        response = _ask(server, inbox, LocationQuery(0, "u-bob", "Alice", query_id=2))
        assert response.ok and response.room_id is None
        assert server.queries_failed["location"] == 0

    def test_locate_denied_counted(self, wing):
        server, inbox = wing
        server.registry.register("u-carol", "Carol", "pw", policy=VisibilityPolicy.NOBODY)
        server.registry.login("u-carol", "pw", BDAddr(0x300), tick=0)
        server.registry.register("u-dave", "Dave", "pw")  # never logged in
        denials = (
            (NotLoggedInError, "Dave"),
            (AccessDeniedError, "Carol"),
            (UnknownUserError, "Ghost"),
        )
        for query_id, (error, target) in enumerate(denials):
            with pytest.raises(error) as raised:
                server.locate("u-bob", target)
            with pytest.raises(error):
                server.navigate("u-bob", target)
            for query in (LocationQuery, PathQuery):
                response = _ask(server, inbox, query(0, "u-bob", target, query_id=query_id))
                assert not response.ok and response.reason == str(raised.value)
        # A direct query counts before it runs; a LAN one once answered.
        assert server.queries_served == {"location": 6, "path": 6}
        assert server.queries_failed == {"location": 3, "path": 3}

    def test_navigate_full_path(self, wing):
        server, inbox = wing
        server.location_db.apply_presence(BOB_DEV, "wing-0", 100, "ws")
        server.location_db.apply_presence(ALICE_DEV, "wing-3", 100, "ws")
        path = server.navigate("u-bob", "Alice")
        assert path.rooms == ("wing-0", "wing-1", "wing-2", "wing-3")
        response = _ask(server, inbox, PathQuery(0, "u-bob", "Alice", query_id=5))
        assert response.ok and response.rooms == path.rooms
        assert response.total_distance_m == path.total_distance_m
        # navigate() does not double-count as a location query
        assert server.queries_served == {"location": 0, "path": 2}

    def test_navigate_untracked_endpoint_returns_none(self, wing):
        server, inbox = wing
        server.location_db.apply_presence(ALICE_DEV, "wing-3", 100, "ws")
        assert server.navigate("u-bob", "Alice") is None  # bob untracked
        response = _ask(server, inbox, PathQuery(0, "u-bob", "Alice", query_id=6))
        assert not response.ok and response.rooms == ()
        assert server.queries_failed["path"] == 1

    def test_navigate_same_room(self, wing):
        server, inbox = wing
        server.location_db.apply_presence(BOB_DEV, "wing-1", 100, "ws")
        server.location_db.apply_presence(ALICE_DEV, "wing-1", 100, "ws")
        path = server.navigate("u-bob", "Alice")
        assert path.rooms == ("wing-1",)
        assert path.total_distance_m == 0.0
        response = _ask(server, inbox, PathQuery(0, "u-bob", "Alice", query_id=7))
        assert response.rooms == ("wing-1",) and response.total_distance_m == 0.0


@pytest.fixture
def server_env(kernel):
    lan = LANTransport(kernel)
    server = BIPSServer(kernel, lan, academic_department())
    inbox = []
    lan.register("client", lambda src, msg: inbox.append(msg))
    server.registry.register("u-alice", "Alice", "pw")
    server.registry.register("u-bob", "Bob", "pw")
    return kernel, lan, server, inbox


class TestServerMessages:
    def test_workstation_hello_registers_room(self, server_env):
        kernel, lan, server, _ = server_env
        lan.send("ws:lab-1", "server", WorkstationHello(0, "ws:lab-1", "lab-1"))
        kernel.run_until(100)
        assert server.room_of_workstation("ws:lab-1") == "lab-1"
        assert server.workstation_count == 1

    def test_presence_update_flows_to_db(self, server_env):
        kernel, lan, server, _ = server_env
        lan.send("ws:lab-1", "server", WorkstationHello(0, "ws:lab-1", "lab-1"))
        kernel.run_until(10)
        lan.send("ws:lab-1", "server", PresenceUpdate(10, "ws:lab-1", ALICE_DEV, True))
        kernel.run_until(100)
        assert server.location_db.current_room(ALICE_DEV) == "lab-1"

    def test_presence_from_unknown_workstation_ignored(self, server_env):
        kernel, lan, server, _ = server_env
        lan.send("ws:ghost", "server", PresenceUpdate(0, "ws:ghost", ALICE_DEV, True))
        kernel.run_until(100)
        assert server.location_db.current_room(ALICE_DEV) is None
        assert server.unknown_workstation_updates == 1

    def test_absence_update(self, server_env):
        kernel, lan, server, _ = server_env
        lan.send("ws:lab-1", "server", WorkstationHello(0, "ws:lab-1", "lab-1"))
        kernel.run_until(10)
        lan.send("ws:lab-1", "server", PresenceUpdate(10, "ws:lab-1", ALICE_DEV, True))
        kernel.run_until(20)
        lan.send("ws:lab-1", "server", PresenceUpdate(20, "ws:lab-1", ALICE_DEV, False))
        kernel.run_until(100)
        assert server.location_db.current_room(ALICE_DEV) is None

    def test_location_query_roundtrip(self, server_env):
        kernel, lan, server, inbox = server_env
        server.registry.login("u-alice", "pw", ALICE_DEV, tick=0)
        server.registry.login("u-bob", "pw", BOB_DEV, tick=0)
        lan.send("ws:lab-1", "server", WorkstationHello(0, "ws:lab-1", "lab-1"))
        kernel.run_until(10)
        lan.send("ws:lab-1", "server", PresenceUpdate(10, "ws:lab-1", ALICE_DEV, True))
        kernel.run_until(20)
        lan.send("client", "server", LocationQuery(20, "u-bob", "Alice", query_id=7))
        kernel.run_until(100)
        response = inbox[-1]
        assert isinstance(response, LocationResponse)
        assert response.ok and response.room_id == "lab-1" and response.query_id == 7

    def test_location_query_denied(self, server_env):
        kernel, lan, server, inbox = server_env
        server.registry.login("u-bob", "pw", BOB_DEV, tick=0)
        lan.send("client", "server", LocationQuery(0, "u-bob", "Alice", query_id=8))
        kernel.run_until(100)
        assert not inbox[-1].ok
        assert inbox[-1].room_id is None

    def test_path_query_roundtrip(self, server_env):
        kernel, lan, server, inbox = server_env
        server.registry.login("u-alice", "pw", ALICE_DEV, tick=0)
        server.registry.login("u-bob", "pw", BOB_DEV, tick=0)
        for room, device in (("lab-1", BOB_DEV), ("office-2", ALICE_DEV)):
            lan.send(f"ws:{room}", "server", WorkstationHello(0, f"ws:{room}", room))
            kernel.run_until(kernel.now + 10)
            lan.send(
                f"ws:{room}", "server",
                PresenceUpdate(kernel.now, f"ws:{room}", device, True),
            )
            kernel.run_until(kernel.now + 10)
        lan.send("client", "server", PathQuery(kernel.now, "u-bob", "Alice", query_id=9))
        kernel.run_until(kernel.now + 100)
        response = inbox[-1]
        assert isinstance(response, PathResponse)
        assert response.ok
        assert response.rooms[0] == "lab-1"
        assert response.rooms[-1] == "office-2"
        assert response.total_distance_m > 0

    def test_path_query_untracked_endpoint(self, server_env):
        kernel, lan, server, inbox = server_env
        server.registry.login("u-alice", "pw", ALICE_DEV, tick=0)
        server.registry.login("u-bob", "pw", BOB_DEV, tick=0)
        lan.send("client", "server", PathQuery(0, "u-bob", "Alice", query_id=10))
        kernel.run_until(100)
        response = inbox[-1]
        assert not response.ok
        assert "unknown" in response.reason

    def test_unknown_message_type_ignored(self, server_env):
        kernel, lan, server, _ = server_env
        lan.send("client", "server", "garbage string")
        kernel.run_until(100)  # no exception

    def test_direct_call_surface(self, server_env):
        kernel, lan, server, _ = server_env
        server.registry.login("u-alice", "pw", ALICE_DEV, tick=0)
        server.registry.login("u-bob", "pw", BOB_DEV, tick=0)
        with pytest.raises(UnknownUserError):
            server.locate("u-bob", "Ghost")
        assert server.locate("u-bob", "Alice") is None
