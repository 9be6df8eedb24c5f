"""Tests for the query engine and the message-driven central server."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.building.layouts import academic_department
from repro.core.errors import AccessDeniedError, NotLoggedInError, UnknownUserError
from repro.core.location_db import LocationDatabase
from repro.core.pathfinding import AllPairsPaths
from repro.core.query import QueryEngine
from repro.core.registry import UserRegistry, VisibilityPolicy
from repro.core.server import BIPSServer
from repro.lan.messages import (
    LocationQuery,
    LocationResponse,
    LoginRequest,
    LoginResponse,
    LogoutRequest,
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
def engine() -> QueryEngine:
    registry = UserRegistry()
    registry.register("u-alice", "Alice", "pw")
    registry.register("u-bob", "Bob", "pw")
    registry.login("u-alice", "pw", ALICE_DEV, tick=0)
    registry.login("u-bob", "pw", BOB_DEV, tick=0)
    db = LocationDatabase()
    paths = AllPairsPaths.from_floorplan(linear_wing(4))
    return QueryEngine(registry, db, paths)


class TestQueryEngine:
    def test_locate_known_target(self, engine):
        engine.location_db.apply_presence(ALICE_DEV, "wing-2", 100, "ws")
        assert engine.locate("u-bob", "Alice") == "wing-2"
        assert engine.stats.location_queries == 1

    def test_locate_untracked_target_returns_none(self, engine):
        assert engine.locate("u-bob", "Alice") is None
        assert engine.stats.location_unknown == 1

    def test_locate_denied_counted(self, engine):
        engine.registry.logout("u-alice")
        with pytest.raises(NotLoggedInError):
            engine.locate("u-bob", "Alice")
        assert engine.stats.location_denied == 1
        assert engine.stats.by_error.get("NotLoggedInError") == 1

    def test_navigate_full_path(self, engine):
        engine.location_db.apply_presence(BOB_DEV, "wing-0", 100, "ws")
        engine.location_db.apply_presence(ALICE_DEV, "wing-3", 100, "ws")
        path = engine.navigate("u-bob", "Alice")
        assert path.rooms == ("wing-0", "wing-1", "wing-2", "wing-3")
        assert engine.stats.path_queries == 1
        # navigate() does not double-count as a location query
        assert engine.stats.location_queries == 0

    def test_navigate_untracked_endpoint_returns_none(self, engine):
        engine.location_db.apply_presence(ALICE_DEV, "wing-3", 100, "ws")
        assert engine.navigate("u-bob", "Alice") is None  # bob untracked

    def test_navigate_same_room(self, engine):
        engine.location_db.apply_presence(BOB_DEV, "wing-1", 100, "ws")
        engine.location_db.apply_presence(ALICE_DEV, "wing-1", 100, "ws")
        path = engine.navigate("u-bob", "Alice")
        assert path.rooms == ("wing-1",)
        assert path.total_distance_m == 0.0


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

    def test_login_roundtrip(self, server_env):
        kernel, lan, server, inbox = server_env
        lan.send("client", "server", LoginRequest(0, "u-alice", "pw", ALICE_DEV))
        kernel.run_until(100)
        assert len(inbox) == 1
        response = inbox[0]
        assert isinstance(response, LoginResponse) and response.ok
        assert server.registry.is_logged_in("u-alice")

    def test_login_failure_reported(self, server_env):
        kernel, lan, server, inbox = server_env
        lan.send("client", "server", LoginRequest(0, "u-alice", "WRONG", ALICE_DEV))
        kernel.run_until(100)
        assert not inbox[0].ok
        assert "password" in inbox[0].reason

    def test_logout_clears_tracking(self, server_env):
        kernel, lan, server, _ = server_env
        server.registry.login("u-alice", "pw", ALICE_DEV, tick=0)
        lan.send("ws:lab-1", "server", WorkstationHello(0, "ws:lab-1", "lab-1"))
        kernel.run_until(10)
        lan.send("ws:lab-1", "server", PresenceUpdate(10, "ws:lab-1", ALICE_DEV, True))
        kernel.run_until(20)
        lan.send("client", "server", LogoutRequest(20, "u-alice"))
        kernel.run_until(100)
        assert not server.registry.is_logged_in("u-alice")
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
