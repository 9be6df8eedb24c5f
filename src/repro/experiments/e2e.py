"""Experiment `bips-e2e`: the full system under walking users.

The paper describes BIPS's intended behaviour (§2) but publishes no
end-to-end measurements; this harness supplies them for the
reproduction: deploy the academic-department floor plan, run every
workstation on the §5 schedule, walk N users through random routes, and
measure what a user of the service experiences:

* tracking accuracy — fraction of time the central database's room
  matches ground truth;
* detection latency — room entry → database update (bounded by the
  15.4 s operational cycle plus LAN latency);
* detection rate — fraction of room changes ever noticed;
* LAN load — presence deltas per workstation per cycle (the paper's
  motivation for delta reporting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.analysis.tables import render_table
from repro.building.layouts import academic_department
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation, TrackingReport
from repro.faults import FaultPlan, profile_named
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import SpanTracer


#: Room changes each user walks.
HOPS_PER_USER = 6


@dataclass(frozen=True)
class E2EConfig:
    """Parameters of the end-to-end run.

    Every user walks ``HOPS_PER_USER`` room changes through a
    :class:`~repro.core.config.BIPSConfig` that keeps its defaults
    except for ``seed``.  Loss and the soft-state options are studied
    by building a :class:`~repro.core.simulation.BIPSSimulation`
    directly (``benchmarks/test_ablation_lan_loss.py``).
    """

    user_count: int = 8
    duration_seconds: float = 600.0
    seed: int = 20031004
    #: Fault profile name (``repro.faults.PROFILES``): LAN faults,
    #: workstation crashes, and server brownouts for this run.
    faults: str = "none"
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if self.user_count <= 0:
            raise ValueError(f"user count must be positive: {self.user_count}")
        if self.duration_seconds <= 0:
            raise ValueError(f"duration must be positive: {self.duration_seconds}")
        profile_named(self.faults)  # unknown profile names fail fast

    def fault_plan(self) -> Optional[FaultPlan]:
        """The bound fault plan, or None for the ``none`` profile."""
        plan = FaultPlan.named(self.faults, self.fault_seed)
        return None if plan.is_noop else plan


@dataclass
class E2EResult:
    """What the run produced."""

    config: E2EConfig
    report: TrackingReport
    presence_updates: int
    lan_messages: int
    lan_dropped: int
    queries_ok: int
    queries_total: int

    @property
    def updates_per_user_minute(self) -> float:
        """Presence deltas per user per simulated minute."""
        minutes = self.config.duration_seconds / 60.0
        return self.presence_updates / (self.config.user_count * minutes)

    def render(self) -> str:
        """Summary table + per-user report."""
        latency = self.report.mean_detection_latency_seconds
        table = render_table(
            ["metric", "value"],
            [
                ["users walking", self.config.user_count],
                ["simulated time", f"{self.config.duration_seconds:.0f}s"],
                ["mean tracking accuracy", f"{self.report.mean_accuracy * 100:.1f}%"],
                [
                    "mean detection latency",
                    f"{latency:.1f}s" if latency is not None else "n/a",
                ],
                ["presence updates on LAN", self.presence_updates],
                ["updates per user-minute", f"{self.updates_per_user_minute:.2f}"],
                ["LAN messages (total/dropped)", f"{self.lan_messages}/{self.lan_dropped}"],
                ["location queries answered", f"{self.queries_ok}/{self.queries_total}"],
            ],
            title="End-to-end BIPS run (academic department, §5 schedule)",
        )
        return table + "\n\n" + self.report.describe()


def run_e2e(
    config: Optional[E2EConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    spans: Optional["SpanTracer"] = None,
) -> E2EResult:
    """Build, populate, and run the full system.

    With a :class:`MetricsRegistry`, the whole pipeline (kernel, radio,
    LAN, server) exports into it and end-of-run gauges are folded in
    before returning.  ``spans`` threads span tracing through the
    simulation (``bips trace``).
    """
    config = config if config is not None else E2EConfig()
    sim = BIPSSimulation(
        plan=academic_department(),
        config=BIPSConfig(seed=config.seed),
        metrics=metrics,
        faults=config.fault_plan(),
        spans=spans,
    )
    rooms = sim.plan.room_ids()
    room_rng = sim.rng.child("e2e-start-rooms")
    usernames = []
    for index in range(config.user_count):
        userid = f"u-{index:03d}"
        username = f"User{index:03d}"
        usernames.append(username)
        sim.add_user(userid, username)
        sim.login(userid)
        start_room = room_rng.choice(rooms)
        # Stagger walk starts through the first minute.
        sim.walk(
            userid,
            start_room=start_room,
            hops=HOPS_PER_USER,
            start_at_seconds=room_rng.uniform(0.0, 60.0),
        )
    sim.run(until_seconds=config.duration_seconds)

    # Everybody asks the server where everybody else is, exercising the
    # query path after the system has been tracking for a while.
    queries_ok = 0
    queries_total = 0
    for index in range(config.user_count):
        userid = f"u-{index:03d}"
        target = usernames[(index + 1) % len(usernames)]
        queries_total += 1
        room = sim.server.locate(userid, target)
        if room is not None:
            queries_ok += 1

    if metrics is not None:
        sim.finalize_metrics()
    return E2EResult(
        config=config,
        report=sim.tracking_report(),
        presence_updates=sim.server.presence_updates_received,
        lan_messages=sim.lan.stats.sent,
        lan_dropped=sim.lan.stats.dropped,
        queries_ok=queries_ok,
        queries_total=queries_total,
    )
