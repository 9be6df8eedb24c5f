"""Discrete-event simulation kernel used by every substrate.

Public surface:

* :class:`~repro.sim.kernel.Kernel` — the event loop (integer-tick
  simulated time)
* :class:`~repro.sim.rng.RandomStream` — named, seed-derived random
  streams
* :mod:`~repro.sim.clock` — tick/second conversion helpers (one tick =
  312.5 µs)
"""
