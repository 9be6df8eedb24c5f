"""Seeded, named random-number streams.

Reproducibility discipline: every stochastic component draws from its own
named stream, derived deterministically from a single experiment seed.
Adding a new random component therefore never perturbs the draws seen by
existing components, and any run can be replayed exactly from its seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from ``root_seed`` and a path of names.

    The derivation hashes the root seed together with the name path, so
    streams are independent and stable across runs and platforms.

    >>> derive_seed(42, "slave", "3") != derive_seed(42, "slave", "4")
    True
    >>> derive_seed(42, "slave", "3") == derive_seed(42, "slave", "3")
    True
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode("ascii"))
    for name in names:
        digest.update(b"/")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class RandomStream:
    """A named pseudo-random stream with convenience draws.

    Wraps :class:`random.Random` so the rest of the code never touches the
    global random state.
    """

    def __init__(self, root_seed: int, *names: str) -> None:
        self.name = "/".join(names) if names else "<root>"
        self.seed = derive_seed(root_seed, *names)
        self._rng = random.Random(self.seed)

    def child(self, *names: str) -> "RandomStream":
        """Create an independent sub-stream under this stream's name."""
        stream = RandomStream.__new__(RandomStream)
        stream.name = f"{self.name}/{'/'.join(names)}"
        stream.seed = derive_seed(self.seed, *names)
        stream._rng = random.Random(stream.seed)
        return stream

    # -- draws -----------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of ``items``."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements of ``items``."""
        return self._rng.sample(items, k)

    def __repr__(self) -> str:
        return f"RandomStream(name={self.name!r}, seed={self.seed})"


def bit_source(stream: RandomStream) -> Callable[[int], int]:
    """The stream's bound ``getrandbits``, for a hot loop that draws
    :meth:`RandomStream.randint` values without its Python frames.

    ``Random.randint(0, high)`` is ``getrandbits(k)`` with ``k =
    randint_width(high)``, drawn again while the result exceeds ``high``
    (CPython 3.11 and 3.12).  A caller that runs that loop on this source
    draws exactly what ``stream.randint(0, high)`` would, in the same
    order, from the same stream.
    """
    return stream._rng.getrandbits


def randint_width(high: int) -> int:
    """The bits per ``getrandbits`` draw of ``Random.randint(0, high)``:
    those of ``high + 1``, not of ``high``."""
    return (high + 1).bit_length()


def unit_source(stream: RandomStream) -> Callable[[], float]:
    """The stream's bound ``random``, for a hot path that draws
    :meth:`RandomStream.uniform` values without its Python frames.

    ``Random.uniform(low, high)`` is ``low + (high - low) * random()``
    (CPython 3.11 and 3.12).  A caller that evaluates that expression
    on this source draws exactly what ``stream.uniform(low, high)``
    would, in the same order, from the same stream.
    """
    return stream._rng.random
