"""Tests for baseband connections and piconet membership."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.connection import Connection, ConnectionState, DisconnectReason
from repro.bluetooth.piconet import Piconet, PiconetFullError

MASTER = BDAddr(0xAAAA)


def make_connection(am_addr: int = 1, established: int = 0):
    return Connection(
        master=MASTER,
        slave=BDAddr(0xBBBB),
        am_addr=am_addr,
        established_tick=established,
    )


class TestConnection:
    def test_initial_state(self):
        conn = make_connection()
        assert conn.active
        assert conn.closed_tick is None

    def test_am_addr_validated(self):
        with pytest.raises(ValueError):
            make_connection(am_addr=0)
        with pytest.raises(ValueError):
            make_connection(am_addr=8)

    def test_close_records_reason_and_duration(self):
        conn = make_connection(established=100)
        conn.close(600, DisconnectReason.DEVICE_LEFT)
        assert conn.state is ConnectionState.CLOSED
        assert conn.close_reason is DisconnectReason.DEVICE_LEFT
        assert conn.closed_tick == 600

    def test_close_idempotent(self):
        conn = make_connection()
        conn.close(100, DisconnectReason.LOCAL_CLOSE)
        conn.close(200, DisconnectReason.DEVICE_LEFT)
        assert conn.closed_tick == 100
        assert conn.close_reason is DisconnectReason.LOCAL_CLOSE

class TestPiconet:
    def test_attach_assigns_am_addrs(self):
        piconet = Piconet(master=MASTER)
        connections = [piconet.attach(BDAddr(i), tick=0) for i in range(1, 4)]
        assert [c.am_addr for c in connections] == [1, 2, 3]

    def test_seven_slave_limit(self):
        piconet = Piconet(master=MASTER)
        for i in range(1, 8):
            piconet.attach(BDAddr(i), tick=0)
        assert piconet.is_full
        with pytest.raises(PiconetFullError):
            piconet.attach(BDAddr(99), tick=0)

    def test_duplicate_attach_rejected(self):
        piconet = Piconet(master=MASTER)
        piconet.attach(BDAddr(1), tick=0)
        with pytest.raises(ValueError):
            piconet.attach(BDAddr(1), tick=5)

    def test_detach_frees_am_addr(self):
        piconet = Piconet(master=MASTER)
        piconet.attach(BDAddr(1), tick=0)
        piconet.attach(BDAddr(2), tick=0)
        piconet.detach(BDAddr(1), tick=10, reason=DisconnectReason.DEVICE_LEFT)
        fresh = piconet.attach(BDAddr(3), tick=20)
        assert fresh.am_addr == 1  # the freed address is reused

    def test_detach_unknown_returns_none(self):
        piconet = Piconet(master=MASTER)
        assert piconet.detach(BDAddr(1), 0, DisconnectReason.LOCAL_CLOSE) is None

    def test_detach_closes_the_link(self):
        piconet = Piconet(master=MASTER)
        piconet.attach(BDAddr(1), tick=0)
        closed = piconet.detach(BDAddr(1), tick=10, reason=DisconnectReason.LOCAL_CLOSE)
        assert piconet.active_count == 0
        assert not closed.active
        assert closed.close_reason is DisconnectReason.LOCAL_CLOSE

    def test_members_sorted_by_am_addr(self):
        piconet = Piconet(master=MASTER)
        piconet.attach(BDAddr(5), tick=0)
        piconet.attach(BDAddr(3), tick=0)
        assert [c.am_addr for c in piconet.members] == [1, 2]

    def test_connection_of(self):
        piconet = Piconet(master=MASTER)
        conn = piconet.attach(BDAddr(1), tick=0)
        assert piconet.connection_of(BDAddr(1)) is conn
        assert piconet.connection_of(BDAddr(9)) is None
