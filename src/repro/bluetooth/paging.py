"""Slot-level page procedure (§3.2), mechanically simulated.

This module plays the page phase out on the air, with the same
machinery as inquiry:

* the master transmits ID packets over the **slave's** page hopping
  sequence (derived from the slave's LAP), two per even slot, in
  16-frequency trains repeated N_page = 128 times (1.28 s) per dwell;
* the slave opens page-scan windows (default 11.25 ms every 1.28 s) on
  a frequency whose phase advances with its native clock;
* the master predicts the slave's current scan frequency from the
  clock snapshot in the FHS inquiry response.  A fresh estimate puts
  the master's starting train on the slave's frequency; a stale one
  (the slave's free-running clock has drifted past a 1.28 s phase
  boundary since the FHS) can pick the wrong train, costing a train
  dwell before the alternation recovers — which is exactly the
  same/different-train asymmetry the inquiry experiment measures;
* on the first heard ID the slave answers immediately (no inquiry-style
  backoff: the page is addressed to it alone) and the six-packet
  handshake (slave ID → master FHS → slave ID → master POLL → slave
  NULL, plus the first data slot) completes the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.kernel import Kernel

from .btclock import CLKN_WRAP, BluetoothClock
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


@dataclass(frozen=True)
class SlotLevelPageOutcome:
    """Everything a slot-level page attempt reveals."""

    result: PageResult
    rendezvous_tick: Optional[int]
    predicted_train: Train
    actual_train_at_start: Train

    @property
    def train_prediction_correct(self) -> bool:
        """Whether the clock estimate put the master on the right train."""
        return self.predicted_train is self.actual_train_at_start


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

    def predict_train(
        self, target: BluetoothDevice, start_tick: int, estimate_error_ticks: int
    ) -> Train:
        """The train the master believes contains the slave's frequency.

        ``estimate_error_ticks`` models clock drift accumulated since
        the FHS snapshot (a 20 ppm crystal drifts one 1.28 s phase
        period in about 18 hours; large errors model paging from a very
        old inquiry result).
        """
        estimated_clock = BluetoothClock(
            offset=(target.clock.offset + estimate_error_ticks) % CLKN_WRAP
        )
        position = self._scan_position(target, estimated_clock.clkn(start_tick))
        return train_of_position(position)

    # -- paging ------------------------------------------------------------------

    def page(
        self,
        target: BluetoothDevice,
        callback: PageCallback,
        timeout_ticks: int = 4 * N_PAGE * 32,
        estimate_error_ticks: int = 0,
        scanning: bool = True,
        window_ticks: int = T_W_PAGE_SCAN_TICKS,
        interval_ticks: int = T_PAGE_SCAN_TICKS,
    ) -> None:
        """Page ``target``; ``callback`` fires with the outcome.

        Args:
            timeout_ticks: HCI page timeout (default two full A+B train
                cycles, 5.12 s).
            estimate_error_ticks: error of the master's clock estimate.
            scanning: False models a powered-down / departed slave.
        """
        self.attempts += 1
        start = self.kernel.now
        predicted = self.predict_train(target, start, estimate_error_ticks)
        actual_position = self._scan_position(target, target.clock.clkn(start))
        actual = train_of_position(actual_position)

        # The master transmits the slave's page hopping sequence for the
        # whole timeout, starting on the predicted train and alternating
        # every N_page passes.
        schedule = InquiryTransmitSchedule(
            windows=PeriodicWindows(
                start=start,
                window_ticks=timeout_ticks,
                period_ticks=timeout_ticks,
                count=1,
            ),
            strategy=TrainStrategy.ALTERNATE,
            start_train=predicted,
            passes_per_dwell=N_PAGE,
            lap=target.address.lap,
        )

        rendezvous: Optional[int] = None
        if scanning:
            rendezvous = next_listen_rendezvous(
                schedule=schedule,
                listen_position=lambda tick: self._scan_position(
                    target, target.clock.clkn(tick)
                ),
                clock=target.clock,
                fixed_phase=False,
                window_ticks=window_ticks,
                interval_ticks=interval_ticks,
                window_anchor=target.clock.offset % interval_ticks,
                from_tick=start,
                before_tick=start + timeout_ticks,
            )
        if rendezvous is not None and (
            rendezvous + PAGE_HANDSHAKE_TICKS <= start + timeout_ticks
        ):
            finish = rendezvous + PAGE_HANDSHAKE_TICKS
            outcome = PageOutcome.CONNECTED
        else:
            rendezvous = None
            finish = start + timeout_ticks
            outcome = PageOutcome.TIMEOUT

        self.kernel.post_at(
            finish,
            lambda: self._finish(
                target, outcome, start, rendezvous, predicted, actual, callback
            ),
            label=f"slotpage:{self.name}",
        )

    def _finish(
        self,
        target: BluetoothDevice,
        outcome: PageOutcome,
        started: int,
        rendezvous: Optional[int],
        predicted: Train,
        actual: Train,
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
                actual_train_at_start=actual,
            )
        )
