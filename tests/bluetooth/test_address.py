"""Tests for BD_ADDR handling."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr, address_block


def bdaddr_from_parts(nap: int, uap: int, lap: int) -> BDAddr:
    """Assemble an address from its three parts (NAP:UAP:LAP)."""
    if not 0 <= nap < (1 << 16):
        raise ValueError(f"NAP out of range: {nap:#x}")
    if not 0 <= uap < (1 << 8):
        raise ValueError(f"UAP out of range: {uap:#x}")
    if not 0 <= lap < (1 << 24):
        raise ValueError(f"LAP out of range: {lap:#x}")
    return BDAddr((nap << 32) | (uap << 24) | lap)


class TestBDAddr:
    def test_parts_roundtrip(self):
        addr = bdaddr_from_parts(nap=0x1234, uap=0x56, lap=0x789ABC)
        assert addr.lap == 0x789ABC
        assert addr.format() == "12:34:56:78:9A:BC"

    def test_value_layout(self):
        addr = bdaddr_from_parts(nap=0x0001, uap=0x02, lap=0x000003)
        assert addr.value == (0x0001 << 32) | (0x02 << 24) | 0x000003

    def test_format_is_uppercase_hex(self):
        assert BDAddr(0xAABBCCDDEEFF).format() == "AA:BB:CC:DD:EE:FF"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BDAddr(1 << 48)
        with pytest.raises(ValueError):
            BDAddr(-1)

    def test_from_parts_validates_ranges(self):
        with pytest.raises(ValueError):
            bdaddr_from_parts(nap=1 << 16, uap=0, lap=0)
        with pytest.raises(ValueError):
            bdaddr_from_parts(nap=0, uap=1 << 8, lap=0)
        with pytest.raises(ValueError):
            bdaddr_from_parts(nap=0, uap=0, lap=1 << 24)

    def test_equality_and_hash(self):
        assert BDAddr(5) == BDAddr(5)
        assert BDAddr(5) != BDAddr(6)
        assert len({BDAddr(5), BDAddr(5), BDAddr(6)}) == 2

    def test_hash_is_the_dataclass_hash(self):
        # The cached hash must equal the one the dataclass generates, or
        # every set of addresses would iterate in a different order.
        for value in (0, 5, 0x0002_5B00_0000, (1 << 48) - 1):
            assert hash(BDAddr(value)) == hash((value,))

    def test_cached_hash_is_not_compared(self):
        assert BDAddr(7) == BDAddr(7) and not BDAddr(7) < BDAddr(7)
        assert repr(BDAddr(7)) == "BDAddr('00:00:00:00:00:07')"

    def test_ordering(self):
        assert BDAddr(1) < BDAddr(2)

    def test_str_is_colon_form(self):
        assert str(BDAddr(0)) == "00:00:00:00:00:00"


class TestAddressBlock:
    def test_yields_unique_consecutive(self):
        addrs = list(address_block(10))
        assert len(set(addrs)) == 10
        assert addrs[1].value == addrs[0].value + 1

    def test_zero_count(self):
        assert list(address_block(0)) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            list(address_block(-1))
