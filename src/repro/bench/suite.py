"""The pinned benchmark suite: four cases, all gated in CI.

* ``kernel_events`` — the kernel's event queue alone: self-rescheduling
  chains through ``Kernel.post``, the floor every simulation pays.
* ``swarm_piconet_100`` — one master's periodic inquiry over 100
  train-locked slaves that keep answering (CONTINUOUS responses, paper
  §4.2 and §5): the swarm's rendezvous, respond, deliver and receive
  path, where the paper artefacts spend their time.
* ``swarm_handover`` — four §5 masters with overlapping inquiry windows
  on one kernel, 50 BIPS handhelds each (BACKOFF_EACH): one
  :class:`~repro.bluetooth.swarm.SwarmDrain` drains the four swarms and
  hands over between them, the path a multi-room BIPS run takes.
* ``location_reads`` — a populated :class:`~repro.core.server.BIPSServer`
  answering a fixed mix of direct ``locate``, ``navigate`` and
  ``locate_at_seconds`` reads (paper §2): the access check, the
  location database and the precomputed paths, with the radio and the
  LAN idle.

End-to-end wall times of whole workloads are ``bipsbench``'s job; this
suite is the fast regression gate, timed against a paired revision.

A revision is paired by case name, so a change to a workload's shape
is judged against the old shape: such a change is its own commit,
and the next paired run starts from it.
"""

from __future__ import annotations

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.hopping import TrainStrategy, periodic_inquiry
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import PhaseMode, ResponseMode, ScanConfig
from repro.bluetooth.swarm import InquiryScanSwarm, SwarmDrain
from repro.building.layouts import multi_floor_department
from repro.core.config import BIPSConfig
from repro.core.server import BIPSServer
from repro.lan.transport import LANTransport
from repro.sim.clock import seconds_from_ticks, ticks_from_seconds
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream, derive_seed

from .harness import BenchCase, Workload

# -- kernel event throughput -------------------------------------------------

#: Total events per kernel-throughput run.
KERNEL_EVENTS = 200_000
#: Concurrent self-rescheduling chains (stations on the slot grid).
KERNEL_CHAINS = 16
#: Tick stride between a chain's events (one Bluetooth slot).
KERNEL_STRIDE_TICKS = 2


def kernel_events_factory() -> Workload:
    """Self-rescheduling event chains on the kernel's event queue."""
    kernel = Kernel()
    post = kernel.post

    def run() -> int:
        target = KERNEL_EVENTS
        fired = 0

        def chain() -> None:
            nonlocal fired
            fired += 1
            if fired < target:
                post(KERNEL_STRIDE_TICKS, chain)

        for _ in range(KERNEL_CHAINS):
            post(0, chain)
        kernel.run_until(KERNEL_STRIDE_TICKS * target)
        return fired

    return run


# -- one dense piconet -------------------------------------------------------

#: RNG seed for the piconet population.
SWARM_SEED = 20260808
#: 100 slaves under one master inquiring 3,200 of every 16,000 ticks.
SWARM_PICONET_SLAVES = 100
SWARM_PICONET_WINDOW_TICKS = 3_200
SWARM_PICONET_PERIOD_TICKS = 16_000
SWARM_PICONET_HORIZON_TICKS = 44_800
#: Always scanning, train-locked, and answering every ID heard after
#: discovery: the population of the paper's Figure 2 and §5.
SWARM_SCAN = ScanConfig.continuous(
    phase_mode=PhaseMode.TRAIN_LOCKED, response_mode=ResponseMode.CONTINUOUS
)


def swarm_piconet_100_factory() -> Workload:
    """One 100-slave :class:`InquiryScanSwarm` under a periodic master.

    Construction happens here (untimed); the workload runs the kernel
    to the horizon.
    """
    kernel = Kernel()
    prng = RandomStream(SWARM_SEED, "bench-swarm").child("piconet", "0")
    schedule = periodic_inquiry(
        SWARM_PICONET_WINDOW_TICKS,
        SWARM_PICONET_PERIOD_TICKS,
        strategy=TrainStrategy.A_ONLY,
        start=prng.randint(
            0, SWARM_PICONET_PERIOD_TICKS - SWARM_PICONET_WINDOW_TICKS - 1
        ),
    )
    master = InquiryProcedure(kernel, schedule, name="master-0")
    swarm = InquiryScanSwarm(
        kernel, schedule, master.channel, config=SWARM_SCAN, name="0"
    )
    for slave in range(SWARM_PICONET_SLAVES):
        rng = prng.child("slave", str(slave))
        clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
        base_phase = rng.randint(0, 15)
        swarm.add_slave(
            BDAddr(slave + 1),
            seed=derive_seed(rng.seed, "draws"),
            clock=clock,
            base_phase=base_phase,
            horizon_tick=SWARM_PICONET_HORIZON_TICKS,
        ).start()

    def run() -> int:
        kernel.run_until(SWARM_PICONET_HORIZON_TICKS)
        return SWARM_PICONET_HORIZON_TICKS

    return run


# -- several piconets on one drain ------------------------------------------

#: Piconets on one kernel, sharing one :class:`SwarmDrain`, and the
#: handhelds scanning in each.
HANDOVER_PICONETS = 4
HANDOVER_SLAVES = 50
#: Each master runs the §5 policy (3.84 s windows every 15.4 s,
#: alternating trains); piconet ``k`` starts ``k`` quarter-windows
#: late, so every window overlaps its neighbours'.
HANDOVER_POLICY = BIPSConfig().policy
HANDOVER_STAGGER_TICKS = HANDOVER_POLICY.inquiry_window_ticks // 4
HANDOVER_HORIZON_TICKS = 4 * HANDOVER_POLICY.operational_cycle_ticks
#: The BIPS handheld: continuous scan, a fresh backoff after every
#: response (BACKOFF_EACH), the cycle that never replays.
HANDOVER_SCAN = BIPSConfig().handheld_scan_config()


def swarm_handover_factory() -> Workload:
    """:data:`HANDOVER_PICONETS` swarms with overlapping windows drained
    by one :class:`SwarmDrain`, which hands over between them.

    Construction happens here (untimed); the workload runs the kernel
    to the horizon.
    """
    kernel = Kernel()
    drain = SwarmDrain(kernel)
    prng = RandomStream(SWARM_SEED, "bench-handover")
    for piconet in range(HANDOVER_PICONETS):
        schedule = HANDOVER_POLICY.build_schedule(piconet * HANDOVER_STAGGER_TICKS)
        master = InquiryProcedure(kernel, schedule, name=f"master-{piconet}")
        swarm = InquiryScanSwarm(
            kernel, schedule, master.channel, config=HANDOVER_SCAN, name=str(piconet),
            drain=drain,
        )
        for slave in range(HANDOVER_SLAVES):
            rng = prng.child("piconet", str(piconet), "slave", str(slave))
            clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
            base_phase = rng.randint(0, 15)
            swarm.add_slave(
                BDAddr(piconet * HANDOVER_SLAVES + slave + 1),
                seed=derive_seed(rng.seed, "draws"),
                clock=clock,
                base_phase=base_phase,
                horizon_tick=HANDOVER_HORIZON_TICKS,
            ).start()

    def run() -> int:
        kernel.run_until(HANDOVER_HORIZON_TICKS)
        return HANDOVER_HORIZON_TICKS

    return run


# -- the location read path -------------------------------------------------

#: Logged-in users of a two-floor department (24 rooms), each with
#: :data:`READS_VISITS` recorded room visits, one per
#: :data:`READS_VISIT_TICKS`.
READS_FLOORS = 2
READS_USERS = 400
READS_VISITS = 4
READS_VISIT_TICKS = ticks_from_seconds(600.0)
#: Reads per run: 60 % ``locate``, 20 % ``navigate``, 20 %
#: ``locate_at_seconds`` at a past instant.
LOCATION_READS = 100_000


def location_reads_factory() -> Workload:
    """A populated :class:`BIPSServer` and a fixed stream of direct reads.

    Registration, logins, the recorded visits and the read stream are
    built here (untimed); the workload answers the stream.
    """
    kernel = Kernel()
    server = BIPSServer(kernel, LANTransport(kernel), multi_floor_department(READS_FLOORS))
    rooms = server.plan.room_ids()
    prng = RandomStream(SWARM_SEED, "bench-reads")
    userids = [f"u-{index:04d}" for index in range(READS_USERS)]
    usernames = [f"User{index:04d}" for index in range(READS_USERS)]
    for index, (userid, username) in enumerate(zip(userids, usernames)):
        device = BDAddr(0x0002_5B00_0000 + index)
        server.registry.register(userid, username, "pw")
        server.registry.login(userid, "pw", device, tick=0)
        for visit in range(READS_VISITS):
            tick = visit * READS_VISIT_TICKS + prng.randint(0, READS_VISIT_TICKS - 1)
            room = prng.choice(rooms)
            server.location_db.apply_presence(device, room, tick, f"ws:{room}")
    span_s = seconds_from_ticks(READS_VISITS * READS_VISIT_TICKS)
    reads: list[tuple[int, str, str, float]] = []
    for _ in range(LOCATION_READS):
        draw = prng.random()
        kind = 0 if draw < 0.6 else 1 if draw < 0.8 else 2
        querier = userids[prng.randint(0, READS_USERS - 1)]
        target = usernames[prng.randint(0, READS_USERS - 1)]
        reads.append((kind, querier, target, prng.random() * span_s))
    locate, navigate, locate_at = server.locate, server.navigate, server.locate_at_seconds

    def run() -> int:
        for kind, querier, target, at_seconds in reads:
            if kind == 0:
                locate(querier, target)
            elif kind == 1:
                navigate(querier, target)
            else:
                locate_at(querier, target, at_seconds)
        return len(reads)

    return run


# -- the pinned suite --------------------------------------------------------

SUITE: tuple[BenchCase, ...] = (
    BenchCase(name="kernel_events", factory=kernel_events_factory, unit="events"),
    BenchCase(
        name="swarm_piconet_100", factory=swarm_piconet_100_factory, unit="sim_ticks"
    ),
    BenchCase(name="swarm_handover", factory=swarm_handover_factory, unit="sim_ticks"),
    BenchCase(name="location_reads", factory=location_reads_factory, unit="queries"),
)
