"""The BIPS core: the paper's primary contribution.

* :mod:`~repro.core.registry` — ``UserRegistry``: off-line
  registration, login, access rights (§2)
* :mod:`~repro.core.location_db` — ``LocationDatabase``: room-granule
  positions + history (§2)
* :mod:`~repro.core.tracker` / :mod:`~repro.core.workstation` —
  ``PresenceTracker`` / ``Workstation``: per-room masters turning
  inquiry sightings into presence deltas (§2, §5)
* :mod:`~repro.core.scheduler` — ``MasterSchedulingPolicy``: the §5
  duty cycle (3.84 s / 15.4 s)
* :mod:`~repro.core.pathfinding` — ``Graph`` / ``AllPairsPaths``:
  Dijkstra and the off-line all-pairs precomputation (§2)
* :mod:`~repro.core.server` — ``BIPSServer``: the central server,
  answering queries by lookup
* :mod:`~repro.core.simulation` — ``BIPSSimulation``: the end-to-end
  facade
"""
