"""Which workstation the server invalidates when a device moves on.

The server keeps a room -> workstation index beside the workstation ->
room map so that the invalidation of a device's previous room is one
lookup.  These tests pin the rules the index must keep: the
earliest-registered workstation serves a room, re-hellos and lost
hellos move workstations between rooms, and a room with no live
workstation is skipped silently.
"""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.building.layouts import academic_department
from repro.core.server import BIPSServer
from repro.lan.messages import PresenceInvalidation, PresenceUpdate, WorkstationHello
from repro.lan.transport import LANTransport

DEV = BDAddr(0x300)


@pytest.fixture
def env(kernel):
    lan = LANTransport(kernel)
    server = BIPSServer(kernel, lan, academic_department())
    return kernel, lan, server


def listen(lan, *workstations):
    """Register inboxes for ``workstations``; returns their invalidations."""
    inboxes = {ws: [] for ws in workstations}
    for ws, inbox in inboxes.items():
        lan.register(ws, lambda source, message, inbox=inbox: inbox.append(message))
    return inboxes


def hello(kernel, lan, ws, room):
    lan.send(ws, "server", WorkstationHello(kernel.now, ws, room))
    kernel.run_until(kernel.now + 10)


def seen(kernel, lan, ws, room=None, present=True, device=DEV):
    lan.send(ws, "server", PresenceUpdate(kernel.now, ws, device, present, room))
    kernel.run_until(kernel.now + 10)


def invalidations(inbox):
    return [m for m in inbox if isinstance(m, PresenceInvalidation)]


class TestReverseIndex:
    def test_rehello_moves_the_workstation(self, env):
        kernel, lan, server = env
        inboxes = listen(lan, "ws:a", "ws:c")
        hello(kernel, lan, "ws:a", "lab-1")
        hello(kernel, lan, "ws:c", "office-2")
        seen(kernel, lan, "ws:a")  # DEV in lab-1
        hello(kernel, lan, "ws:a", "lab-2")
        assert server.room_of_workstation("ws:a") == "lab-2"
        # lab-1 lost its only workstation: nobody to invalidate.
        seen(kernel, lan, "ws:c")
        assert server.invalidations_sent == 0
        # lab-2 is now served by ws:a.
        seen(kernel, lan, "ws:a")
        seen(kernel, lan, "ws:c")
        assert server.invalidations_sent == 2
        assert [m.new_room_id for m in invalidations(inboxes["ws:a"])] == ["office-2"]
        assert [m.new_room_id for m in invalidations(inboxes["ws:c"])] == ["lab-2"]

    def test_first_registered_workstation_wins_a_shared_room(self, env):
        kernel, lan, server = env
        inboxes = listen(lan, "ws:a", "ws:b", "ws:c")
        hello(kernel, lan, "ws:a", "lab-1")
        hello(kernel, lan, "ws:b", "lab-1")
        hello(kernel, lan, "ws:c", "office-2")
        seen(kernel, lan, "ws:b")  # DEV in lab-1, reported by the second claimant
        seen(kernel, lan, "ws:c")
        assert len(invalidations(inboxes["ws:a"])) == 1
        assert invalidations(inboxes["ws:b"]) == []

    def test_rehello_into_a_claimed_room_keeps_registration_order(self, env):
        kernel, lan, server = env
        inboxes = listen(lan, "ws:a", "ws:b", "ws:c")
        hello(kernel, lan, "ws:a", "lab-1")
        hello(kernel, lan, "ws:b", "lab-2")
        hello(kernel, lan, "ws:c", "office-2")
        # ws:a registered before ws:b, so it takes lab-2 over on moving there.
        hello(kernel, lan, "ws:a", "lab-2")
        seen(kernel, lan, "ws:b")  # DEV in lab-2
        seen(kernel, lan, "ws:c")
        assert len(invalidations(inboxes["ws:a"])) == 1
        assert invalidations(inboxes["ws:b"]) == []

    def test_mapping_learned_from_an_update_after_a_lost_hello(self, env):
        kernel, lan, server = env
        inboxes = listen(lan, "ws:a", "ws:c")
        hello(kernel, lan, "ws:c", "office-2")
        seen(kernel, lan, "ws:a", room="lab-1")  # no hello from ws:a
        assert server.room_of_workstation("ws:a") == "lab-1"
        assert server.location_db.current_room(DEV) == "lab-1"
        seen(kernel, lan, "ws:c")
        assert [m.new_room_id for m in invalidations(inboxes["ws:a"])] == ["office-2"]

    def test_unreachable_workstations_are_skipped(self, env):
        kernel, lan, server = env
        inboxes = listen(lan, "ws:b", "ws:c")
        # ws:a said hello but never wired an endpoint; ws:b crashes below.
        hello(kernel, lan, "ws:a", "lab-1")
        hello(kernel, lan, "ws:b", "lab-2")
        hello(kernel, lan, "ws:c", "office-2")
        seen(kernel, lan, "ws:a")
        seen(kernel, lan, "ws:c")
        assert server.invalidations_sent == 0  # unknown endpoint: not sent
        lan.unregister("ws:b")
        seen(kernel, lan, "ws:b")
        seen(kernel, lan, "ws:c")
        # The invalidation to crashed ws:b is sent and dropped on the wire.
        assert server.invalidations_sent == 2
        assert invalidations(inboxes["ws:b"]) == []
        assert [m.new_room_id for m in invalidations(inboxes["ws:c"])] == ["lab-2"]
        assert server.location_db.current_room(DEV) == "office-2"

    def test_room_without_workstation_is_skipped(self, env):
        kernel, lan, server = env
        hello(kernel, lan, "ws:c", "office-2")
        server.location_db.apply_presence(DEV, "lab-1", kernel.now, "direct")
        seen(kernel, lan, "ws:c")
        assert server.invalidations_sent == 0
        assert server.location_db.current_room(DEV) == "office-2"
