"""Experiment `section5`: the scheduling-policy numbers of §5.

The paper's conclusions rest on three quantities:

1. **Discovery coverage** — with a 3.84 s inquiry window (one full
   2.56 s train dwell + 1.28 s on the second train) and 20 slaves in
   coverage, ≈95 % of the slaves are discovered: 50 % of the slaves
   share the master's starting train and are fully discovered; ≈90 % of
   the other half are caught in the remaining 1.28 s.
2. **Crossing time** — a walking user (mean 1.3 m/s) crosses the ≈20 m
   piconet in ≈15.4 s, which bounds the operational cycle.
3. **Tracking load** — 3.84 s / 15.4 s ≈ 24 % of the cycle.

This harness measures (1) with the full baseband simulation and
computes (2) and (3) from the mobility model, then renders a
paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from repro.analysis.stats import proportion_ci95
from repro.analysis.tables import render_comparison
from repro.bluetooth.device import make_devices
from repro.bluetooth.hopping import Train, TrainStrategy, periodic_inquiry
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import PhaseMode, ResponseMode, ScanConfig
from repro.bluetooth.swarm import InquiryScanSwarm
from repro.mobility.residence import crossing_time_seconds, tracking_load_fraction
from repro.mobility.speeds import MEAN_WALKING_SPEED_MPS
from repro.runner.executor import ExperimentRunner
from repro.runner.seeding import seeding_digest, trial_seed
from repro.sim.clock import ticks_from_seconds
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream

#: Runner experiment name; part of every replication's seed derivation.
EXPERIMENT = "section5"

#: The paper's §5 claims (read-only: worker processes import this module).
PAPER_REFERENCE: Mapping[str, float] = MappingProxyType(
    {
        "discovered_fraction": 0.95,
        "crossing_seconds": 15.4,
        "tracking_load": 0.24,
    }
)


@dataclass(frozen=True)
class Section5Config:
    """Parameters of the policy experiment."""

    slave_count: int = 20
    replications: int = 100
    seed: int = 20031003
    inquiry_window_seconds: float = 3.84
    coverage_diameter_m: float = 20.0
    mean_walking_speed_mps: float = MEAN_WALKING_SPEED_MPS

    def __post_init__(self) -> None:
        if self.slave_count <= 0:
            raise ValueError(f"slave count must be positive: {self.slave_count}")
        if self.replications <= 0:
            raise ValueError(f"replications must be positive: {self.replications}")
        if self.inquiry_window_seconds <= 0:
            raise ValueError(f"window must be positive: {self.inquiry_window_seconds}")


@dataclass
class Section5Result:
    """Measured §5 quantities."""

    config: Section5Config
    discovered: int
    total_slaves: int
    crossing_seconds: float
    tracking_load: float

    @property
    def discovered_fraction(self) -> float:
        """Fraction of in-coverage slaves discovered in one window."""
        return self.discovered / self.total_slaves

    @property
    def discovered_ci95(self) -> tuple[float, float]:
        """Wilson interval on the discovery fraction."""
        return proportion_ci95(self.discovered, self.total_slaves)

    def render(self) -> str:
        """Measured-vs-paper comparison table."""
        low, high = self.discovered_ci95
        table = render_comparison(
            "Reproduced §5 policy numbers",
            [
                (
                    f"discovered fraction (20 slaves, "
                    f"{self.config.inquiry_window_seconds:g}s window)",
                    self.discovered_fraction,
                    PAPER_REFERENCE["discovered_fraction"],
                ),
                ("piconet crossing time (s)", self.crossing_seconds,
                 PAPER_REFERENCE["crossing_seconds"]),
                ("tracking load fraction", self.tracking_load,
                 PAPER_REFERENCE["tracking_load"]),
            ],
        )
        return table + f"\n(discovery fraction 95% CI: [{low:.3f}, {high:.3f}])"


def window_payload(config: Section5Config, replication: int, seed: int) -> dict:
    """One 3.84 s inquiry window over ``slave_count`` slaves (runner
    entry point).

    Slaves are in plain continuous inquiry scan with uniformly random
    phases over the *whole* sequence (a random mix of the two trains, as
    §5 assumes).
    """
    kernel = Kernel()
    rng = RandomStream(seed, "section5", str(replication))
    window_ticks = ticks_from_seconds(config.inquiry_window_seconds)
    start_train = Train.A if rng.random() < 0.5 else Train.B
    schedule = periodic_inquiry(
        window_ticks=window_ticks,
        period_ticks=window_ticks,
        strategy=TrainStrategy.ALTERNATE,
        start_train=start_train,
        count=1,
    )
    master = InquiryProcedure(kernel, schedule, name="master")
    devices = make_devices(config.slave_count, rng.child("devices"))
    scan = ScanConfig.continuous(
        phase_mode=PhaseMode.SEQUENCE, response_mode=ResponseMode.CONTINUOUS
    )
    swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=scan, name="piconet")
    for index, device in enumerate(devices):
        swarm.add_slave(
            address=device.address,
            rng=rng.child("slave", str(index)),
            clock=device.clock,
            base_phase=device.base_phase,
            horizon_tick=window_ticks,
            name=device.name,
        ).start()
    kernel.run_until(window_ticks)
    return {"found": master.discovered_count, "count": config.slave_count}


def run_discovery_window(
    config: Section5Config, replication: int
) -> tuple[int, int]:
    """One window with the exact seed the runner would derive for it.

    Returns (discovered, total).
    """
    digest = seeding_digest(EXPERIMENT, config)
    payload = window_payload(
        config, replication, trial_seed(EXPERIMENT, digest, replication)
    )
    return payload["found"], payload["count"]


def run_section5(
    config: Optional[Section5Config] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Section5Result:
    """Measure all three §5 quantities."""
    config = config if config is not None else Section5Config()
    runner = runner if runner is not None else ExperimentRunner()
    payloads = runner.map_trials(
        EXPERIMENT, config, window_payload, config.replications
    )
    discovered = sum(payload["found"] for payload in payloads)
    total = sum(payload["count"] for payload in payloads)
    crossing = crossing_time_seconds(
        config.coverage_diameter_m, config.mean_walking_speed_mps
    )
    load = tracking_load_fraction(config.inquiry_window_seconds, crossing)
    return Section5Result(
        config=config,
        discovered=discovered,
        total_slaves=total,
        crossing_seconds=crossing,
        tracking_load=load,
    )
