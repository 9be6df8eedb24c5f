"""Bluetooth device addresses (BD_ADDR).

A BD_ADDR is 48 bits: LAP (lower address part, 24 bits), UAP (upper
address part, 8 bits) and NAP (non-significant address part, 16 bits).
The LAP seeds hopping sequences; the full address identifies a device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

_LAP_BITS = 24
_UAP_BITS = 8
_NAP_BITS = 16


@dataclass(frozen=True, order=True)
class BDAddr:
    """An immutable 48-bit Bluetooth device address."""

    value: int
    #: ``hash((value,))``, the hash the dataclass would generate,
    #: computed once: every FHS response looks its sender up in the
    #: master's dicts, and the generated ``__hash__`` builds a tuple per
    #: call.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError(f"BD_ADDR must be a 48-bit integer, got {self.value:#x}")
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def lap(self) -> int:
        """Lower address part (24 bits) — seeds the paging hop sequence."""
        return self.value & ((1 << _LAP_BITS) - 1)

    @property
    def uap(self) -> int:
        """Upper address part (8 bits)."""
        return (self.value >> _LAP_BITS) & ((1 << _UAP_BITS) - 1)

    @property
    def nap(self) -> int:
        """Non-significant address part (16 bits)."""
        return (self.value >> (_LAP_BITS + _UAP_BITS)) & ((1 << _NAP_BITS) - 1)

    @classmethod
    def from_parts(cls, nap: int, uap: int, lap: int) -> "BDAddr":
        """Assemble an address from its three parts."""
        if not 0 <= nap < (1 << _NAP_BITS):
            raise ValueError(f"NAP out of range: {nap:#x}")
        if not 0 <= uap < (1 << _UAP_BITS):
            raise ValueError(f"UAP out of range: {uap:#x}")
        if not 0 <= lap < (1 << _LAP_BITS):
            raise ValueError(f"LAP out of range: {lap:#x}")
        return cls((nap << (_LAP_BITS + _UAP_BITS)) | (uap << _LAP_BITS) | lap)

    @classmethod
    def parse(cls, text: str) -> "BDAddr":
        """Parse the conventional colon-separated hex form.

        >>> BDAddr.parse("00:11:22:33:44:55").format()
        '00:11:22:33:44:55'
        """
        parts = text.strip().split(":")
        if len(parts) != 6 or not all(len(p) == 2 for p in parts):
            raise ValueError(f"not a BD_ADDR: {text!r}")
        try:
            octets = [int(p, 16) for p in parts]
        except ValueError as exc:
            raise ValueError(f"not a BD_ADDR: {text!r}") from exc
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return cls(value)

    def format(self) -> str:
        """Colon-separated hex form, most significant octet first.

        The rendered string is cached on the instance: addresses are
        formatted for every collision record read and every trace span,
        so a busy channel re-renders the same handful of devices
        thousands of times.  The cache is safe because the dataclass is frozen
        and equality/hash ignore non-field state.
        """
        cached = self.__dict__.get("_format_cache")
        if cached is None:
            octets = [(self.value >> shift) & 0xFF for shift in range(40, -8, -8)]
            cached = ":".join([format(octet, "02X") for octet in octets])
            object.__setattr__(self, "_format_cache", cached)
        return cached

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"BDAddr({self.format()!r})"


def address_block(count: int, start: int = 0x0002_5B00_0000) -> Iterator[BDAddr]:
    """Yield ``count`` consecutive unique addresses from a vendor block.

    Convenient for simulations that need many distinct devices.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    for offset in range(count):
        yield BDAddr(start + offset)
