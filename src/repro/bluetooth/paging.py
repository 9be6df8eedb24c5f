"""Slot-level page procedure (§3.2), mechanically simulated.

This module plays the page phase out on the air, with the same
machinery as inquiry:

* the master transmits ID packets over the **slave's** page hopping
  sequence (derived from the slave's LAP), two per even slot, in
  16-frequency trains repeated N_page = 128 times (1.28 s) per dwell;
* the slave opens page-scan windows (11.25 ms every 1.28 s) on
  a frequency whose phase advances with its native clock;
* the master predicts the slave's current scan frequency from the
  clock snapshot in the FHS inquiry response, which the workstation
  pages from straight away, so its starting train is the slave's;
* on the first heard ID the slave answers immediately (no inquiry-style
  backoff: the page is addressed to it alone) and the six-packet
  handshake (slave ID → master FHS → slave ID → master POLL → slave
  NULL, plus the first data slot) completes the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.kernel import Kernel

from .constants import (
    NUM_INQUIRY_FREQUENCIES,
    T_PAGE_SCAN_TICKS,
    T_W_PAGE_SCAN_TICKS,
    TICKS_PER_SLOT,
)
from .device import BluetoothDevice
from .hopping import (
    InquiryTransmitSchedule,
    PeriodicWindows,
    Train,
    TrainStrategy,
    train_of_position,
)
from .page import PageOutcome, PageResult
from .scan import next_listen_rendezvous

#: The page response/handshake occupies six slots.
PAGE_HANDSHAKE_TICKS = 6 * TICKS_PER_SLOT

#: N_page for the mandatory R1 scan mode: each page train repeats 128
#: times (1.28 s) before the master switches trains.
N_PAGE = 128

#: HCI page timeout: two full A+B train cycles (5.12 s).
PAGE_TIMEOUT_TICKS = 4 * N_PAGE * 32


@dataclass(frozen=True)
class SlotLevelPageOutcome:
    """Everything a slot-level page attempt reveals."""

    result: PageResult
    rendezvous_tick: Optional[int]
    predicted_train: Train


PageCallback = Callable[[SlotLevelPageOutcome], None]


class SlotLevelPager:
    """Pages one slave by simulating the §3.2 rendezvous on the air."""

    def __init__(self, kernel: Kernel, name: str = "pager") -> None:
        self.kernel = kernel
        self.name = name
        self.attempts = 0
        self.connected = 0
        self.timeouts = 0

    # -- clock estimation ----------------------------------------------------

    @staticmethod
    def _scan_position(device: BluetoothDevice, clkn: int) -> int:
        """Page-scan sequence position for a native-clock value."""
        return (device.base_phase + clkn // 4096) % NUM_INQUIRY_FREQUENCIES

    def predict_train(self, target: BluetoothDevice, start_tick: int) -> Train:
        """The train the master believes contains the slave's frequency."""
        return train_of_position(self._scan_position(target, target.clock.clkn(start_tick)))

    # -- paging ------------------------------------------------------------------

    def page(self, target: BluetoothDevice, callback: PageCallback) -> None:
        """Page ``target``; ``callback`` fires with the outcome.

        The outcome is a timeout when no handshake completes within
        :data:`PAGE_TIMEOUT_TICKS`.
        """
        self.attempts += 1
        start = self.kernel.now
        deadline = start + PAGE_TIMEOUT_TICKS
        predicted = self.predict_train(target, start)

        # The master transmits the slave's page hopping sequence for the
        # whole timeout, starting on the predicted train and alternating
        # every N_page passes.
        schedule = InquiryTransmitSchedule(
            windows=PeriodicWindows(
                start=start,
                window_ticks=PAGE_TIMEOUT_TICKS,
                period_ticks=PAGE_TIMEOUT_TICKS,
                count=1,
            ),
            strategy=TrainStrategy.ALTERNATE,
            start_train=predicted,
            passes_per_dwell=N_PAGE,
            lap=target.address.lap,
        )

        rendezvous = next_listen_rendezvous(
            schedule=schedule,
            listen_position=lambda tick: self._scan_position(
                target, target.clock.clkn(tick)
            ),
            clock=target.clock,
            fixed_phase=False,
            window_ticks=T_W_PAGE_SCAN_TICKS,
            interval_ticks=T_PAGE_SCAN_TICKS,
            window_anchor=target.clock.offset % T_PAGE_SCAN_TICKS,
            from_tick=start,
            before_tick=deadline,
        )
        if rendezvous is not None and rendezvous + PAGE_HANDSHAKE_TICKS <= deadline:
            finish = rendezvous + PAGE_HANDSHAKE_TICKS
            outcome = PageOutcome.CONNECTED
        else:
            rendezvous = None
            finish = deadline
            outcome = PageOutcome.TIMEOUT

        self.kernel.post_at(
            finish,
            lambda: self._finish(target, outcome, start, rendezvous, predicted, callback),
            label=f"slotpage:{self.name}",
        )

    def _finish(
        self,
        target: BluetoothDevice,
        outcome: PageOutcome,
        started: int,
        rendezvous: Optional[int],
        predicted: Train,
        callback: PageCallback,
    ) -> None:
        if outcome is PageOutcome.CONNECTED:
            self.connected += 1
        else:
            self.timeouts += 1
        callback(
            SlotLevelPageOutcome(
                result=PageResult(
                    address=target.address,
                    outcome=outcome,
                    started_tick=started,
                    finished_tick=self.kernel.now,
                ),
                rendezvous_tick=rendezvous,
                predicted_train=predicted,
            )
        )
