"""Experiment `table1`: the §4.1 device-discovery-time table.

Paper setup: the master is *continuously* in inquiry; one slave
alternates inquiry-scan and page-scan periods (11.25 ms windows), so an
inquiry-scan window opens every 2.56 s.  500 trials are classified by
whether master and slave started on the same frequency train:

    Starting Train | Cases | T_average
    Same           |  236  | 1.6028 s
    Different      |  264  | 4.1320 s
    Mixed          |  500  | 2.865 s

Our trial measures the same interval the authors' ``ftime`` calls did:
from the master entering the inquiry state to the first FHS response
received.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Mapping, Optional

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import render_comparison, render_table
from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import NUM_INQUIRY_FREQUENCIES
from repro.bluetooth.hopping import Train, continuous_inquiry, train_of_position
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import BackoffReentry, PhaseMode, ScanConfig
from repro.bluetooth.swarm import InquiryScanSwarm
from repro.faults.plan import FaultPlan
from repro.faults.profiles import profile_named
from repro.obs.metrics import MetricsRegistry
from repro.runner.executor import ExperimentRunner
from repro.sim.clock import seconds_from_ticks, ticks_from_seconds
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream, derive_seed

#: Runner experiment name; part of every trial's seed derivation.
EXPERIMENT = "table1"

#: The values measured in the paper, for comparison output (read-only:
#: worker processes import this module).
PAPER_REFERENCE: Mapping[str, float] = MappingProxyType(
    {"same": 1.6028, "different": 4.1320, "mixed": 2.865}
)


@dataclass(frozen=True)
class Table1Config:
    """Parameters of the discovery-time experiment."""

    trials: int = 500
    seed: int = 20031001
    #: Give up on a trial after this much simulated time (discovery in
    #: this setup always succeeds well before it).
    horizon_seconds: float = 30.0
    #: FIXED models the hardware's effectively constant train membership
    #: over a multi-second trial; the SEQUENCE ablation moves the
    #: listening frequency through the whole sequence (see DESIGN.md §5).
    phase_mode: PhaseMode = PhaseMode.FIXED
    backoff_reentry: BackoffReentry = BackoffReentry.IMMEDIATE
    #: The paper's slave interleaves inquiry and page scan, halving the
    #: effective inquiry-scan rate.  Setting False gives a pure
    #: inquiry-scan slave (an ablation).
    interleave_page_scan: bool = True
    #: Fault profile name (``repro.faults.profiles.PROFILES``).  This harness has
    #: no LAN, so only the profile's radio-outage axis applies: the
    #: master goes deaf for seed-derived windows, degrading discovery.
    faults: str = "none"
    fault_seed: int = 0
    #: Span tracing (``bips trace``): collect per-trial span records in
    #: the payload.  Tracing never changes a simulated result — only
    #: whether the payload carries a ``"spans"`` key.
    trace: bool = False
    #: Root-span sampling rate when tracing (see ``repro.obs.tracing``).
    trace_sample: float = 1.0

    #: Fault fields never shift the seeding digest: a fault plan
    #: draws only from its own seed, so a chaos run degrades the very
    #: same trials the clean run computes (see ``runner.seeding``).
    #: Trace fields likewise: the tracer observes, never draws.
    SEED_DIGEST_OMIT: ClassVar[tuple[str, ...]] = (
        "faults",
        "fault_seed",
        "trace",
        "trace_sample",
    )

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError(f"trials must be positive: {self.trials}")
        if self.horizon_seconds <= 0:
            raise ValueError(f"horizon must be positive: {self.horizon_seconds}")
        profile_named(self.faults)  # unknown profile names fail fast

    def fault_plan(self) -> Optional[FaultPlan]:
        """The bound fault plan, or None for the ``none`` profile."""
        plan = FaultPlan.named(self.faults, self.fault_seed)
        return None if plan.is_noop else plan


@dataclass(frozen=True)
class Trial:
    """One discovery trial."""

    index: int
    same_train: bool
    discovery_seconds: Optional[float]


@dataclass
class Table1Result:
    """All trials plus the three-row summary of the paper's table."""

    config: Table1Config
    trials: list[Trial] = field(default_factory=list)

    def _times(self, same: Optional[bool]) -> list[float]:
        return [
            t.discovery_seconds
            for t in self.trials
            if t.discovery_seconds is not None and (same is None or t.same_train == same)
        ]

    @property
    def same_summary(self) -> Summary:
        """Discovery-time stats for same-train trials."""
        return summarize(self._times(True))

    @property
    def different_summary(self) -> Summary:
        """Discovery-time stats for different-train trials."""
        return summarize(self._times(False))

    @property
    def mixed_summary(self) -> Summary:
        """Discovery-time stats over all trials."""
        return summarize(self._times(None))

    @property
    def undiscovered(self) -> int:
        """Trials that never discovered (should be zero)."""
        return sum(1 for t in self.trials if t.discovery_seconds is None)

    def cdf(self, same: Optional[bool]) -> "EmpiricalCDF":
        """Empirical discovery-time CDF (same=True/False, None=mixed)."""
        from repro.analysis.stats import EmpiricalCDF

        population = [
            t for t in self.trials if same is None or t.same_train == same
        ]
        return EmpiricalCDF.from_samples([t.discovery_seconds for t in population])

    def render_cdf(self, horizon_seconds: float = 8.0) -> str:
        """The discovery-time distribution as an ASCII figure.

        The paper reports only averages; the full distribution makes the
        train mechanics visible — the same-train curve rises within one
        scan interval while the different-train curve is shifted by one
        2.56 s dwell.
        """
        from repro.analysis.curves import Series, render_curves

        grid = [round(0.1 * i, 3) for i in range(int(horizon_seconds * 10) + 1)]
        series = [
            Series("same train", tuple(self.cdf(True).sample_curve(grid))),
            Series("different train", tuple(self.cdf(False).sample_curve(grid))),
            Series("mixed", tuple(self.cdf(None).sample_curve(grid))),
        ]
        return render_curves(
            grid,
            series,
            title="Discovery-time distribution (extension of the §4.1 table)",
        )

    def to_csv(self) -> str:
        """Per-trial data as CSV (for external analysis/plotting)."""
        lines = ["trial,same_train,discovery_seconds"]
        for trial in self.trials:
            seconds = "" if trial.discovery_seconds is None else f"{trial.discovery_seconds:.6f}"
            lines.append(f"{trial.index},{int(trial.same_train)},{seconds}")
        return "\n".join(lines)

    def render(self) -> str:
        """The reproduced table, paper-style plus paper comparison."""
        same, diff, mixed = self.same_summary, self.different_summary, self.mixed_summary
        own = render_table(
            ["Starting Train", "Case No.", "T_average"],
            [
                ["Same", same.count, f"{same.mean:.4f}s"],
                ["Different", diff.count, f"{diff.mean:.4f}s"],
                ["Mixed", mixed.count, f"{mixed.mean:.4f}s"],
            ],
            title="Reproduced §4.1 table: average device discovery time",
        )
        comparison = render_comparison(
            "Measured vs paper",
            [
                ("same", same.mean, PAPER_REFERENCE["same"]),
                ("different", diff.mean, PAPER_REFERENCE["different"]),
                ("mixed", mixed.mean, PAPER_REFERENCE["mixed"]),
                ("different - same", diff.mean - same.mean,
                 PAPER_REFERENCE["different"] - PAPER_REFERENCE["same"]),
            ],
            unit="s",
        )
        return own + "\n\n" + comparison


def trial_payload(config: Table1Config, trial_index: int, seed: int) -> dict:
    """One discovery trial on a fresh kernel (runner entry point).

    ``seed`` is the trial's own root seed, derived by the runner from
    ``(experiment, config digest, trial index)`` — never from worker
    identity — so the payload is the same whether this runs inline or
    in a worker process.
    """
    tracer = None
    if config.trace:
        from repro.obs.tracing import SpanTracer

        tracer = SpanTracer(seed=seed, sample=config.trace_sample)
    kernel = Kernel(spans=tracer)
    rng = RandomStream(seed, "table1", str(trial_index))
    # The master's starting train is outside the programmer's control
    # (§4.2): randomise it, like powering the card up at a random moment.
    start_train = Train.A if rng.random() < 0.5 else Train.B
    schedule = continuous_inquiry(start_train=start_train)
    horizon = ticks_from_seconds(config.horizon_seconds)
    plan = config.fault_plan()
    reachable = (
        plan.survival_predicate(str(trial_index), horizon) if plan is not None else None
    )
    master = InquiryProcedure(kernel, schedule, name=f"master-{trial_index}", reachable=reachable)

    address = BDAddr(0x0002_5B_000000 + trial_index)
    clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
    base_phase = rng.randint(0, NUM_INQUIRY_FREQUENCIES - 1)
    if config.interleave_page_scan:
        scan = ScanConfig.interleaved_with_page_scan(
            phase_mode=config.phase_mode, backoff_reentry=config.backoff_reentry
        )
    else:
        scan = ScanConfig(
            phase_mode=config.phase_mode, backoff_reentry=config.backoff_reentry
        )
    swarm = InquiryScanSwarm(
        kernel, schedule, master.channel, config=scan, name=f"swarm-{trial_index}"
    )
    scanner = swarm.add_slave(
        address=address,
        seed=derive_seed(rng.seed, "slave"),
        clock=clock,
        base_phase=base_phase,
        window_anchor=rng.randint(0, scan.interval_ticks - 1),
        horizon_tick=horizon,
    )
    # Stop the scanner as soon as the master has its answer, so the
    # remainder of the horizon costs no events.
    master.on_discovered = lambda packet, tick: scanner.stop()
    scanner.start()
    kernel.run_until(horizon)
    # The listener reaches back into the swarm; unhooked, the finished
    # trial holds no reference cycle and is freed on return.
    master.on_discovered = None

    same_train = train_of_position(scanner.listen_position(0)) is start_train
    tick = master.discovery_tick(address)
    payload = {
        "index": trial_index,
        "same_train": same_train,
        "discovery_seconds": seconds_from_ticks(tick) if tick is not None else None,
    }
    if tracer is not None:
        payload["spans"] = tracer.records()
    return payload


def run_table1(
    config: Optional[Table1Config] = None,
    metrics: Optional[MetricsRegistry] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Table1Result:
    """Run the full experiment (500 trials by default).

    Trials are submitted through an :class:`ExperimentRunner` (an
    in-process serial one when none is given); ``runner`` controls
    parallelism and caching without changing a single result byte.
    With a :class:`MetricsRegistry` the experiment layer records a
    discovery-time histogram, per-train counters, and an undiscovered
    gauge — the machine-readable form of the rendered table.
    """
    config = config if config is not None else Table1Config()
    runner = runner if runner is not None else ExperimentRunner()
    result = Table1Result(config=config)
    histogram = (
        metrics.histogram(
            "table1.discovery_seconds",
            buckets=(0.5, 1.0, 1.6, 2.56, 4.0, 5.12, 8.0, 12.0, 20.0, 30.0),
        )
        if metrics is not None
        else None
    )
    payloads = runner.map_trials(EXPERIMENT, config, trial_payload, config.trials)
    for payload in payloads:
        trial = Trial(
            index=payload["index"],
            same_train=payload["same_train"],
            discovery_seconds=payload["discovery_seconds"],
        )
        result.trials.append(trial)
        if metrics is not None:
            metrics.counter(
                "table1.trials", train="same" if trial.same_train else "different"
            ).inc()
            if trial.discovery_seconds is not None:
                histogram.observe(trial.discovery_seconds)
    if metrics is not None:
        metrics.gauge("table1.undiscovered").set(result.undiscovered)
        if config.faults != "none":
            metrics.gauge("faults.active").set(1)
    return result
