"""Bluetooth device addresses (BD_ADDR).

A BD_ADDR is 48 bits: LAP (lower address part, 24 bits), UAP (upper
address part, 8 bits) and NAP (non-significant address part, 16 bits).
The LAP seeds hopping sequences; the full address identifies a device.
"""

from __future__ import annotations

from typing import Iterator

_LAP_BITS = 24


class BDAddr(tuple):
    """An immutable 48-bit Bluetooth device address.

    A one-element ``tuple`` subclass whose element is :attr:`value`.
    Every FHS response, presence delta and location query looks a
    device up in a dict, so hashing, equality and ordering run as the
    tuple's own C code.  The hash is ``hash((value,))``, the same as a
    frozen dataclass with the one ``value`` field, so dicts and sets of
    addresses iterate in that order.  Two consequences: an address
    equals the bare tuple ``(value,)``, and code that branches on
    ``tuple`` must test for ``BDAddr`` first.

    No ``__slots__``: the instance ``__dict__`` holds :meth:`format`'s
    cache.
    """

    def __new__(cls, value: int) -> "BDAddr":
        if not 0 <= value < (1 << 48):
            raise ValueError(f"BD_ADDR must be a 48-bit integer, got {value:#x}")
        return tuple.__new__(cls, (value,))

    def __reduce__(self) -> tuple[type["BDAddr"], tuple[int]]:
        # Rebuilt from the value alone (pickle, copy, spawn workers):
        # the format cache stays behind.
        return (BDAddr, (self[0],))

    @property
    def value(self) -> int:
        """The address as a 48-bit integer."""
        return self[0]

    @property
    def lap(self) -> int:
        """Lower address part (24 bits) — seeds the paging hop sequence."""
        return self[0] & ((1 << _LAP_BITS) - 1)

    def format(self) -> str:
        """Colon-separated hex form, most significant octet first.

        The rendered string is cached on the instance: addresses are
        formatted for every collision record read and every trace span,
        so a busy channel re-renders the same handful of devices
        thousands of times.  The cache is safe because the address is
        immutable and equality/hash see only the tuple's one element.
        """
        cached = self.__dict__.get("_format_cache")
        if cached is None:
            value = self[0]
            octets = [(value >> shift) & 0xFF for shift in range(40, -8, -8)]
            cached = ":".join([format(octet, "02X") for octet in octets])
            self.__dict__["_format_cache"] = cached
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
