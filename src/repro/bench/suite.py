"""The pinned benchmark suite.

Workload shapes are part of the baseline contract: every parameter
that affects a measurement is listed in the case's ``params`` tuple,
which feeds the config digest in the emitted JSON.  Changing a
workload therefore *voids* comparison against older baselines for
that case rather than producing a silent apples-to-oranges delta.

The suite is written to also run against **older revisions** of this
repository (that is how the fast-path speedup is measured): it probes
for the modern kernel API (``post``) and falls back to the legacy one,
skipping cases the old code cannot express.
"""

from __future__ import annotations

from typing import Callable

from .harness import BenchCase, BenchSkip, Workload

# -- kernel event throughput -------------------------------------------------

#: Total events per kernel-throughput run.
KERNEL_EVENTS = 200_000
#: Concurrent self-rescheduling chains (stations on the slot grid).
KERNEL_CHAINS = 16
#: Tick stride between a chain's events (one Bluetooth slot).
KERNEL_STRIDE_TICKS = 2


def kernel_events_factory() -> Workload:
    """Self-rescheduling event chains on the kernel's event queue."""
    from repro.sim.kernel import Kernel

    kernel = Kernel()
    sched: Callable[..., object] = getattr(kernel, "post", kernel.schedule)

    def run() -> int:
        target = KERNEL_EVENTS
        fired = 0

        def chain() -> None:
            nonlocal fired
            fired += 1
            if fired < target:
                sched(KERNEL_STRIDE_TICKS, chain)

        for _ in range(KERNEL_CHAINS):
            sched(0, chain)
        kernel.run_until(KERNEL_STRIDE_TICKS * target)
        return fired

    return run


# -- hopping inverse lookup --------------------------------------------------

#: Distinct scan instants per scanner sweep.
HOPPING_INSTANTS = 4_000
#: Sequence positions probed at each instant.
HOPPING_POSITIONS = (0, 5, 12, 17, 23, 31)
#: Scanners issuing the same query pattern (slaves sharing a master
#: schedule — this is what makes the per-schedule memo earn its keep).
HOPPING_SCANNERS = 8
#: Lookup window length in ticks.
HOPPING_WINDOW_TICKS = 4_096


def hopping_lookup_factory() -> Workload:
    """``next_tx_of_position`` under a figure2-like scanner population."""
    from repro.bluetooth.hopping import continuous_inquiry

    schedule = continuous_inquiry()

    def run() -> int:
        lookup = schedule.next_tx_of_position
        count = 0
        for _scanner in range(HOPPING_SCANNERS):
            tick = 13
            for _ in range(HOPPING_INSTANTS):
                for position in HOPPING_POSITIONS:
                    lookup(position, tick, tick + HOPPING_WINDOW_TICKS)
                    count += 1
                tick += 37
        return count

    return run


# -- figure2 small grid ------------------------------------------------------

FIGURE2_SLAVES = 8
FIGURE2_HORIZON_SECONDS = 14.0
FIGURE2_REPLICATIONS = 4
FIGURE2_SEED = 20260805


def figure2_small_factory() -> Workload:
    """A small-population figure2 cell, measured in sim ticks."""
    from repro.experiments.figure2 import Figure2Config, replication_payload
    from repro.sim.clock import ticks_from_seconds

    config = Figure2Config(
        slave_counts=(FIGURE2_SLAVES,),
        replications=FIGURE2_REPLICATIONS,
        horizon_seconds=FIGURE2_HORIZON_SECONDS,
    )
    ticks = ticks_from_seconds(FIGURE2_HORIZON_SECONDS) * FIGURE2_REPLICATIONS

    def run() -> int:
        for replication in range(FIGURE2_REPLICATIONS):
            replication_payload(config, replication, FIGURE2_SEED + replication)
        return ticks

    return run


# -- table1 small grid -------------------------------------------------------

TABLE1_TRIALS = 300
TABLE1_SEED = 20260806


def table1_small_factory() -> Workload:
    """A short burst of table1 discovery trials."""
    from repro.experiments.table1 import Table1Config, trial_payload

    config = Table1Config()

    def run() -> int:
        for index in range(TABLE1_TRIALS):
            trial_payload(config, index, TABLE1_SEED + index)
        return TABLE1_TRIALS

    return run


# -- inquiry scan at scale --------------------------------------------------

#: RNG seed for the piconet-population builders.
SWARM_SEED = 20260808
#: Dense single piconet: 100 slaves under one inquiring master.
SWARM_PICONET_SLAVES = 100
SWARM_PICONET_WINDOW_TICKS = 3_200
SWARM_PICONET_PERIOD_TICKS = 16_000
SWARM_PICONET_HORIZON_TICKS = 44_800
#: Piconet fleet: 1000 independent masters firing short, staggered
#: inquiry bursts over 100 scanning slaves each.
SWARM_FLEET_PICONETS = 1_000
SWARM_FLEET_SLAVES = 100
SWARM_FLEET_WINDOW_TICKS = 160
SWARM_FLEET_PERIOD_TICKS = 16_000
SWARM_FLEET_HORIZON_TICKS = 16_000


def _swarm_workload(
    piconets: int,
    slaves: int,
    window_ticks: int,
    period_ticks: int,
    horizon_ticks: int,
) -> Workload:
    """Continuous train-locked scanners under periodically inquiring
    masters, one :class:`InquiryScanSwarm` per piconet.

    Construction happens here (untimed); the workload runs the kernel
    to the horizon.
    """
    try:
        from repro.bluetooth.address import BDAddr
        from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
        from repro.bluetooth.hopping import TrainStrategy, periodic_inquiry
        from repro.bluetooth.inquiry import InquiryProcedure
        from repro.bluetooth.scan import PhaseMode, ScanConfig
        from repro.bluetooth.swarm import InquiryScanSwarm
        from repro.sim.kernel import Kernel
        from repro.sim.rng import RandomStream
    except ImportError as exc:
        raise BenchSkip(f"piconet model unavailable: {exc}") from exc
    kernel = Kernel()
    root = RandomStream(SWARM_SEED, "bench-swarm")
    scan = ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED)
    for piconet in range(piconets):
        prng = root.child("piconet", str(piconet))
        schedule = periodic_inquiry(
            window_ticks,
            period_ticks,
            strategy=TrainStrategy.A_ONLY,
            start=prng.randint(0, period_ticks - window_ticks - 1),
        )
        master = InquiryProcedure(kernel, schedule, name=f"master-{piconet}")
        swarm = InquiryScanSwarm(
            kernel, schedule, master.channel, config=scan, name=str(piconet)
        )
        for slave in range(slaves):
            rng = prng.child("slave", str(slave))
            clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
            base_phase = rng.randint(0, 15)
            swarm.add_slave(
                BDAddr(0x10000 * piconet + slave + 1),
                rng=rng.child("draws"),
                clock=clock,
                base_phase=base_phase,
                horizon_tick=horizon_ticks,
            ).start()

    def run() -> int:
        kernel.run_until(horizon_ticks)
        return horizon_ticks

    return run


def swarm_piconet_100_factory() -> Workload:
    """One 100-slave piconet."""
    return _swarm_workload(
        1,
        SWARM_PICONET_SLAVES,
        SWARM_PICONET_WINDOW_TICKS,
        SWARM_PICONET_PERIOD_TICKS,
        SWARM_PICONET_HORIZON_TICKS,
    )


def swarm_piconets_1000_factory() -> Workload:
    """1000 piconets x 100 slaves."""
    return _swarm_workload(
        SWARM_FLEET_PICONETS,
        SWARM_FLEET_SLAVES,
        SWARM_FLEET_WINDOW_TICKS,
        SWARM_FLEET_PERIOD_TICKS,
        SWARM_FLEET_HORIZON_TICKS,
    )


# -- end-to-end tick rate ----------------------------------------------------

E2E_USERS = 8
E2E_DURATION_SECONDS = 600.0


def e2e_tick_rate_factory() -> Workload:
    """Full BIPS pipeline (radio + LAN + server) tick rate."""
    from repro.experiments.e2e import E2EConfig, run_e2e
    from repro.sim.clock import ticks_from_seconds

    config = E2EConfig(user_count=E2E_USERS, duration_seconds=E2E_DURATION_SECONDS)
    ticks = ticks_from_seconds(E2E_DURATION_SECONDS)

    def run() -> int:
        run_e2e(config)
        return ticks

    return run


# -- the pinned suite --------------------------------------------------------

SUITE: tuple[BenchCase, ...] = (
    BenchCase(
        name="kernel_events",
        factory=kernel_events_factory,
        unit="events",
        params=(
            ("events", KERNEL_EVENTS),
            ("chains", KERNEL_CHAINS),
            ("stride_ticks", KERNEL_STRIDE_TICKS),
        ),
        smoke=True,
    ),
    BenchCase(
        name="hopping_next_tx",
        factory=hopping_lookup_factory,
        unit="lookups",
        params=(
            ("instants", HOPPING_INSTANTS),
            ("positions", len(HOPPING_POSITIONS)),
            ("scanners", HOPPING_SCANNERS),
            ("window_ticks", HOPPING_WINDOW_TICKS),
        ),
        smoke=True,
    ),
    BenchCase(
        name="figure2_small_grid",
        factory=figure2_small_factory,
        unit="sim_ticks",
        params=(
            ("slaves", FIGURE2_SLAVES),
            ("horizon_seconds", FIGURE2_HORIZON_SECONDS),
            ("replications", FIGURE2_REPLICATIONS),
            ("seed", FIGURE2_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="table1_small_grid",
        factory=table1_small_factory,
        unit="trials",
        params=(("trials", TABLE1_TRIALS), ("seed", TABLE1_SEED)),
        smoke=False,
    ),
    BenchCase(
        name="swarm_piconet_100",
        factory=swarm_piconet_100_factory,
        unit="sim_ticks",
        params=(
            ("piconets", 1),
            ("slaves", SWARM_PICONET_SLAVES),
            ("window_ticks", SWARM_PICONET_WINDOW_TICKS),
            ("period_ticks", SWARM_PICONET_PERIOD_TICKS),
            ("horizon_ticks", SWARM_PICONET_HORIZON_TICKS),
            ("seed", SWARM_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="swarm_piconets_1000",
        factory=swarm_piconets_1000_factory,
        unit="sim_ticks",
        params=(
            ("piconets", SWARM_FLEET_PICONETS),
            ("slaves", SWARM_FLEET_SLAVES),
            ("window_ticks", SWARM_FLEET_WINDOW_TICKS),
            ("period_ticks", SWARM_FLEET_PERIOD_TICKS),
            ("horizon_ticks", SWARM_FLEET_HORIZON_TICKS),
            ("seed", SWARM_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="e2e_tick_rate",
        factory=e2e_tick_rate_factory,
        unit="sim_ticks",
        params=(
            ("users", E2E_USERS),
            ("duration_seconds", E2E_DURATION_SECONDS),
        ),
        smoke=False,
    ),
)


def select_suite(name: str) -> list[BenchCase]:
    """Resolve a suite name (``smoke`` or ``full``) to its cases."""
    if name == "full":
        return list(SUITE)
    if name == "smoke":
        return [case for case in SUITE if case.smoke]
    raise ValueError(f"unknown suite {name!r}; expected 'smoke' or 'full'")
