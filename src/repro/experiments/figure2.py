"""Experiment `figure2`: discovery probability vs time, 2–20 slaves.

Paper setup (§4.2, simulated on BlueHoc + ns-2 with added collision
handling): a single piconet whose master alternates device discovery and
connection management — a 1 s inquiry window at the start of every 5 s
operational cycle, transmitting **train A only**.  Slaves are always in
inquiry scan and start listening on train-A frequencies.  The plotted
curves give, for each population size in {2,4,6,8,10,15,20}, the
probability that a slave has been discovered by time *t* (0–14 s).

Reported shape: ≈90 % of 10 slaves discovered within the first 1 s
window, 100 % within the second operational cycle; 15–20 slaves all
discovered within two cycles.

The contention mechanisms reproduced here:

* FHS collisions between same-frequency slaves (the authors' BlueHoc
  extension) — resolved by the v1.1 random backoff;
* single-receiver capture at the master: an FHS occupies a full slot,
  so responses to the two ID packets of one even slot overlap and the
  second is lost;
* enrolment: slaves discovered in a window are paged and connected
  during the following connection-management phase and leave inquiry
  scan, so later windows carry only the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis.curves import Series, render_curves
from repro.analysis.stats import EmpiricalCDF
from repro.analysis.tables import render_table
from repro.bluetooth.device import make_devices
from repro.bluetooth.hopping import TrainStrategy, periodic_inquiry
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import PhaseMode, ResponseMode, ScanConfig
from repro.bluetooth.swarm import InquiryScanSwarm
from repro.runner.executor import ExperimentRunner
from repro.sim.clock import seconds_from_ticks, ticks_from_seconds
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream

#: Runner experiment name; part of every replication's seed derivation.
EXPERIMENT = "figure2"


@dataclass(frozen=True)
class Figure2Config:
    """Parameters of the multi-slave discovery simulation."""

    slave_counts: tuple[int, ...] = (2, 4, 6, 8, 10, 15, 20)
    replications: int = 60
    seed: int = 20031002
    horizon_seconds: float = 14.0
    inquiry_window_seconds: float = 1.0
    cycle_period_seconds: float = 5.0
    train_strategy: TrainStrategy = TrainStrategy.A_ONLY
    #: Page-and-connect discovered slaves at the end of each inquiry
    #: window so they leave inquiry scan (the paper's enrolment).
    enroll_discovered: bool = True
    #: Master single-receiver capture of overlapping FHS responses.
    receiver_capture: bool = True
    #: Slave response behaviour (see :class:`ResponseMode`).
    response_mode: ResponseMode = ResponseMode.CONTINUOUS
    grid_step_seconds: float = 0.25

    def __post_init__(self) -> None:
        if not self.slave_counts:
            raise ValueError("no slave counts given")
        if any(n <= 0 for n in self.slave_counts):
            raise ValueError(f"slave counts must be positive: {self.slave_counts}")
        if self.replications <= 0:
            raise ValueError(f"replications must be positive: {self.replications}")
        if self.inquiry_window_seconds > self.cycle_period_seconds:
            raise ValueError("inquiry window longer than the cycle period")

    def time_grid(self) -> list[float]:
        """The x-axis sample points."""
        points = []
        t = 0.0
        while t <= self.horizon_seconds + 1e-9:
            points.append(round(t, 6))
            t += self.grid_step_seconds
        return points


@dataclass
class Figure2Curve:
    """One population size's discovery-probability curve."""

    slave_count: int
    cdf: EmpiricalCDF
    collisions: int
    blocked_responses: int

    def probability_by(self, seconds: float) -> float:
        """P(a slave is discovered by ``seconds``)."""
        return self.cdf.value(seconds)


@dataclass
class Figure2Result:
    """All curves plus rendering helpers."""

    config: Figure2Config
    curves: list[Figure2Curve] = field(default_factory=list)

    def curve_for(self, slave_count: int) -> Figure2Curve:
        """The curve of one population size."""
        for curve in self.curves:
            if curve.slave_count == slave_count:
                return curve
        raise KeyError(f"no curve for {slave_count} slaves")

    def to_csv(self) -> str:
        """The curves as CSV: one row per grid point, one column per
        population size (for external plotting)."""
        grid = self.config.time_grid()
        header = "time_seconds," + ",".join(
            f"p_discovered_n{curve.slave_count}" for curve in self.curves
        )
        sampled = [curve.cdf.sample_curve(grid) for curve in self.curves]
        lines = [header]
        for row_index, t in enumerate(grid):
            values = ",".join(f"{column[row_index]:.4f}" for column in sampled)
            lines.append(f"{t:.2f},{values}")
        return "\n".join(lines)

    def render(self) -> str:
        """ASCII reproduction of Figure 2 plus the landmark table."""
        grid = self.config.time_grid()
        series = [
            Series(
                label=f"{curve.slave_count} slaves",
                values=tuple(curve.cdf.sample_curve(grid)),
            )
            for curve in self.curves
        ]
        plot = render_curves(
            grid,
            series,
            title=(
                "Reproduced Figure 2: discovery probability vs time "
                f"({self.config.inquiry_window_seconds:g}s inquiry / "
                f"{self.config.cycle_period_seconds:g}s cycle, train A)"
            ),
        )
        window = self.config.inquiry_window_seconds
        cycle = self.config.cycle_period_seconds
        landmarks = render_table(
            ["slaves", f"by {window:g}s (window 1)", f"by {cycle + window:g}s (window 2)",
             f"by {2 * cycle + window:g}s (window 3)", "ever"],
            [
                [
                    curve.slave_count,
                    f"{curve.probability_by(window):.3f}",
                    f"{curve.probability_by(cycle + window):.3f}",
                    f"{curve.probability_by(2 * cycle + window):.3f}",
                    f"{curve.cdf.completion_fraction:.3f}",
                ]
                for curve in self.curves
            ],
            title="Discovery probability landmarks "
            "(paper: ~0.9 by window 1 for 10 slaves; 1.0 within two cycles)",
        )
        return plot + "\n\n" + landmarks


def cell_config(config: Figure2Config, slave_count: int) -> Figure2Config:
    """The single-population config a seed cell is keyed by.

    A full Figure-2 run is a sweep over slave counts; every count gets
    its own digest (and hence its own seeds), so a run over ``(2, 10)``
    and a later run over ``(10, 20)`` draw the same ``n=10`` trials.
    """
    return replace(config, slave_counts=(slave_count,))


def replication_payload(config: Figure2Config, replication: int, seed: int) -> dict:
    """One simulation run of a single-count cell (runner entry point)."""
    if len(config.slave_counts) != 1:
        raise ValueError(
            f"replication payload needs a single-count cell config, "
            f"got counts {config.slave_counts}"
        )
    slave_count = config.slave_counts[0]
    kernel = Kernel()
    rng = RandomStream(seed, "figure2", str(slave_count), str(replication))
    horizon = ticks_from_seconds(config.horizon_seconds)
    schedule = periodic_inquiry(
        window_ticks=ticks_from_seconds(config.inquiry_window_seconds),
        period_ticks=ticks_from_seconds(config.cycle_period_seconds),
        strategy=config.train_strategy,
    )
    master = InquiryProcedure(
        kernel, schedule, name="master", receiver_capture=config.receiver_capture
    )
    # Slaves "start listening on frequencies of train A": phases 0-15.
    devices = make_devices(slave_count, rng.child("devices"), phase_range=(0, 15))
    scan = ScanConfig.continuous(
        phase_mode=PhaseMode.TRAIN_LOCKED, response_mode=config.response_mode
    )
    swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=scan, name="piconet")
    scanners: dict = {}
    for index, device in enumerate(devices):
        scanner = swarm.add_slave(
            address=device.address,
            rng=rng.child("slave", str(index)),
            clock=device.clock,
            base_phase=device.base_phase,
            horizon_tick=horizon,
            name=device.name,
        )
        scanners[device.address] = scanner
        scanner.start()

    if config.enroll_discovered:
        # At each window's end the master pages and connects everything
        # it discovered; connected slaves leave inquiry scan.
        def on_discovered(packet, tick):
            window = schedule.windows.containing(tick)
            stop_at = window.end if window is not None else tick
            kernel.schedule_at(
                max(stop_at, kernel.now),
                lambda addr=packet.sender: scanners[addr].stop(),
                label="enroll",
            )

        master.on_discovered = on_discovered

    kernel.run_until(horizon)
    # The listener reaches back into the swarm; unhooked, the finished
    # trial holds no reference cycle and is freed on return.
    master.on_discovered = None
    ticks = [master.discovery_tick(device.address) for device in devices]
    return {
        "ticks": ticks,
        "collisions": master.channel.stats.collision_events,
        "blocked": master.responses_blocked,
    }


def run_figure2(
    config: Optional[Figure2Config] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Figure2Result:
    """Run the full sweep over slave counts."""
    config = config if config is not None else Figure2Config()
    runner = runner if runner is not None else ExperimentRunner()
    result = Figure2Result(config=config)
    for slave_count in config.slave_counts:
        payloads = runner.map_trials(
            EXPERIMENT,
            cell_config(config, slave_count),
            replication_payload,
            config.replications,
        )
        samples: list[Optional[float]] = []
        collisions = 0
        blocked = 0
        for payload in payloads:
            samples.extend(
                seconds_from_ticks(t) if t is not None else None
                for t in payload["ticks"]
            )
            collisions += payload["collisions"]
            blocked += payload["blocked"]
        result.curves.append(
            Figure2Curve(
                slave_count=slave_count,
                cdf=EmpiricalCDF.from_samples(samples),
                collisions=collisions,
                blocked_responses=blocked,
            )
        )
    return result
