"""repro — a full reproduction of the BIPS indoor positioning service.

Reproduces *"Experimenting an Indoor Bluetooth-based Positioning
Service"* (Anastasi, Bandelloni, Conti, Delmastro, Gregori, Mainetto;
ICDCS Workshops 2003): the BIPS tracking system, a slot-accurate
Bluetooth 1.1 inquiry/page simulator standing in for the paper's
hardware and BlueHoc testbeds, and harnesses regenerating every result
in the paper's evaluation (the §4.1 discovery-time table, Figure 2, and
the §5 scheduling-policy numbers).

Quick start::

    from repro.core.simulation import BIPSSimulation

    sim = BIPSSimulation()
    sim.add_user("u-alice", "Alice")
    sim.login("u-alice")
    sim.walk("u-alice", start_room="lab-1", hops=4)
    sim.run(until_seconds=300)
    print(sim.server.locate("u-alice", "Alice"))

Subpackages:

* :mod:`repro.core` — the BIPS service (registry, location DB,
  workstations, scheduler, Dijkstra paths, server, simulation facade)
* :mod:`repro.bluetooth` — the Bluetooth baseband simulator
* :mod:`repro.radio` — band interference + the FHS collision channel
* :mod:`repro.building`, :mod:`repro.mobility` — floor plans and walkers
* :mod:`repro.lan` — the simulated Ethernet
* :mod:`repro.sim` — the discrete-event kernel
* :mod:`repro.experiments` — the paper's table/figure harnesses
* :mod:`repro.analysis` — statistics and plain-text rendering

Import each name from the module that defines it: the subpackages above
re-export nothing, apart from six harness names ``repro.experiments``
keeps for ``bipsbench``.
"""

__version__ = "1.0.0"
