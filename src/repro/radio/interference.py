"""Inter-piconet interference on the shared 2.4 GHz band.

Bluetooth piconets do not coordinate their hopping: two piconets within
radio range collide whenever they momentarily occupy the same RF
channel.  For a 79-channel band the per-packet collision probability
against one interfering piconet is ≈ 1/79 per active neighbour (the
classical frequency-hopping collision model), which is why the paper
can largely ignore it for a one-piconet-per-room deployment — but a
reproduction that places piconets in *adjacent* rooms should be able to
quantify the effect, so the model is available as an opt-in.

:class:`SharedBand` tracks which masters are actively receiving during
any tick and lets a :class:`~repro.radio.channel.ResponseChannel`
ask whether a given packet was hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.bluetooth.constants import NUM_RF_CHANNELS
from repro.sim.rng import RandomStream

#: Per-packet collision probability against one concurrently active
#: neighbouring piconet (uniform hopping over 79 channels).
PER_NEIGHBOR_COLLISION_PROBABILITY = 1.0 / NUM_RF_CHANNELS


@dataclass
class BandStats:
    """Interference counters."""

    checks: int = 0
    corrupted: int = 0


class SharedBand:
    """A registry of piconets sharing the band, with a neighbour graph.

    Each piconet registers an *activity predicate* (is its master's
    radio busy at this tick?) and its set of interfering neighbours
    (typically the piconets of adjacent rooms).  A packet addressed to
    piconet P at tick T is corrupted independently with probability
    ``1/79`` per active neighbour of P.
    """

    def __init__(self, rng: RandomStream) -> None:
        self.rng = rng
        self.stats = BandStats()
        self._activity: dict[str, Callable[[int], bool]] = {}
        self._neighbors: dict[str, set[str]] = {}
        # Sorted snapshot of each neighbour set, rebuilt on topology
        # change: the per-packet path iterates a stable tuple instead
        # of sorting (or walking an unordered set) per check.
        self._neighbor_order: dict[str, tuple[str, ...]] = {}

    def register(
        self,
        piconet_id: str,
        active_at: Callable[[int], bool],
        neighbors: Optional[set[str]] = None,
    ) -> None:
        """Add a piconet with its activity predicate and neighbour set."""
        if piconet_id in self._activity:
            raise ValueError(f"piconet {piconet_id!r} already registered")
        self._activity[piconet_id] = active_at
        self._neighbors[piconet_id] = set(neighbors or ())
        self._neighbor_order[piconet_id] = tuple(sorted(self._neighbors[piconet_id]))

    def connect(self, a: str, b: str) -> None:
        """Declare two piconets to be within interference range."""
        for piconet_id in (a, b):
            if piconet_id not in self._activity:
                raise KeyError(f"unknown piconet {piconet_id!r}")
        if a == b:
            raise ValueError("a piconet does not interfere with itself")
        self._neighbors[a].add(b)
        self._neighbors[b].add(a)
        self._neighbor_order[a] = tuple(sorted(self._neighbors[a]))
        self._neighbor_order[b] = tuple(sorted(self._neighbors[b]))

    def active_neighbors(self, piconet_id: str, tick: int) -> int:
        """How many neighbours of ``piconet_id`` are on the air at ``tick``."""
        neighbors = self._neighbor_order.get(piconet_id)
        if neighbors is None:
            raise KeyError(f"unknown piconet {piconet_id!r}")
        activity = self._activity
        return sum(1 for n in neighbors if activity[n](tick))

    def corrupts(self, piconet_id: str, tick: int) -> bool:
        """Whether a packet to ``piconet_id`` at ``tick`` is hit.

        Draws once per active neighbour at probability 1/79 each.
        """
        self.stats.checks += 1
        count = self.active_neighbors(piconet_id, tick)
        for _ in range(count):
            if self.rng.random() < PER_NEIGHBOR_COLLISION_PROBABILITY:
                self.stats.corrupted += 1
                return True
        return False

    def survival_predicate(self, piconet_id: str) -> Callable[[object, int], bool]:
        """A reachability predicate for a ResponseChannel.

        Returns a callable suitable for
        :class:`~repro.radio.channel.ResponseChannel`'s ``reachable``
        argument: True when the packet survives interference.
        """

        def survives(_packet: object, tick: int) -> bool:
            return not self.corrupts(piconet_id, tick)

        return survives

