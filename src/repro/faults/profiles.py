"""Named fault profiles: how hostile is the deployment environment.

The paper assumes a benign office Ethernet and always-on workstations;
real BIPS-style deployments lose messages, crash workstations, and see
delayed deliveries (Opoku, arXiv:1209.3053; Shi & Gong, arXiv:2404.12529
list these as the dominant practical failure modes).  A
:class:`FaultProfile` bundles the rates of every supported fault kind so
that experiments, tests, and the CLI can name a whole failure scenario
with one token (``--faults lossy-lan``).

Profiles are *descriptions only*: all randomness lives in
:class:`~repro.faults.plan.FaultPlan`, which derives every decision from
the fault seed — never from the simulation's own streams — so enabling
faults does not perturb the fault-free draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

#: Uniform bands every injecting plan draws its fault magnitudes from.
#: Extra LAN delay of a delayed message, in milliseconds.
DELAY_MS = (2.0, 10.0)
#: Reordering is modelled as an outsized extra delay (milliseconds): the
#: delayed message is overtaken by everything sent in the window behind
#: it.
REORDER_MS = (20.0, 60.0)
#: How long a crashed workstation stays down, in seconds.
CRASH_DOWNTIME_SECONDS = (20.0, 60.0)
#: How long the central server stays deaf per brownout, in seconds.
BROWNOUT_SECONDS = (5.0, 20.0)
#: How long a master's radio stays deaf per outage, in seconds.
RADIO_OUTAGE_SECONDS = (2.0, 6.0)

#: Faults fire only before this simulated time.  A finite window is
#: what makes convergence testable: after it closes, the tracker must
#: re-converge within a bounded number of inquiry cycles (runs shorter
#: than this see faults throughout).
DEFAULT_ACTIVE_SECONDS = 300.0


@dataclass(frozen=True)
class FaultProfile:
    """Rates of every fault kind the planner can inject.

    All probabilities are per LAN message.  A field left at zero
    disables that fault kind.  Magnitudes come from the module's bands,
    and a plan that injects anything also routes workstation pushes
    through the transport's reliable delivery
    (:meth:`~repro.lan.transport.LANTransport.send_reliable`).
    """

    name: str
    #: LAN message faults (consulted by the transport per send).
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_probability: float = 0.0
    reorder_probability: float = 0.0
    #: Workstation crash/restart: each workstation crashes this many
    #: times over the fault window.
    crashes_per_workstation: int = 0
    #: Central-server brownouts: the server endpoint goes deaf (messages
    #: to it are dropped).
    brownouts: int = 0
    #: Radio outages for single-master experiments (table1 and friends):
    #: the Bluetooth-only harnesses have no LAN or workstation process,
    #: so a "workstation crash" maps to the master's radio going deaf
    #: mid-trial.
    radio_outages_per_trial: int = 0

    def __post_init__(self) -> None:
        for field_name in (
            "drop_probability",
            "duplicate_probability",
            "delay_probability",
            "reorder_probability",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{field_name} out of range: {value}")
        if self.crashes_per_workstation < 0 or self.brownouts < 0:
            raise ValueError("fault counts must be non-negative")
        if self.radio_outages_per_trial < 0:
            raise ValueError("fault counts must be non-negative")

    @property
    def has_lan_faults(self) -> bool:
        """Whether the transport needs an injector for this profile."""
        return any(
            probability > 0.0
            for probability in (
                self.drop_probability,
                self.duplicate_probability,
                self.delay_probability,
                self.reorder_probability,
            )
        )

    @property
    def is_noop(self) -> bool:
        """True for the ``none`` profile (and any all-zero custom one)."""
        return not (
            self.has_lan_faults
            or self.crashes_per_workstation
            or self.brownouts
            or self.radio_outages_per_trial
        )


#: The named profiles the CLI and the chaos suite iterate over.
PROFILES: Mapping[str, FaultProfile] = MappingProxyType(
    {
        "none": FaultProfile(name="none"),
        "lossy-lan": FaultProfile(
            name="lossy-lan",
            drop_probability=0.05,
            duplicate_probability=0.03,
            delay_probability=0.15,
            reorder_probability=0.05,
        ),
        "flaky-workstations": FaultProfile(
            name="flaky-workstations",
            crashes_per_workstation=1,
            radio_outages_per_trial=1,
        ),
        "brownout": FaultProfile(
            name="brownout",
            brownouts=2,
        ),
        "chaos": FaultProfile(
            name="chaos",
            drop_probability=0.08,
            duplicate_probability=0.04,
            delay_probability=0.20,
            reorder_probability=0.08,
            crashes_per_workstation=1,
            brownouts=1,
            radio_outages_per_trial=2,
        ),
    }
)


def profile_named(name: str) -> FaultProfile:
    """Look up a profile, failing with the list of known names."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown fault profile {name!r}; known: {known}") from None


def profile_names() -> list[str]:
    """Registered profile names, sorted (CLI ``choices``)."""
    return sorted(PROFILES)
