"""Recovery mechanics: bounded retry with exponential backoff and jitter.

The counterpart of fault injection.  The paper's delta reporting is
fire-and-forget: one lost presence message strands a device until its
next room change.  :class:`RetryPolicy` describes the transport-level
remedy — retransmit on delivery timeout, back off exponentially, give
up after a bounded number of attempts — that
:meth:`repro.lan.transport.LANTransport.send_reliable` executes.

The policy is a frozen description; the jitter draw comes from the
caller's :class:`~repro.sim.rng.RandomStream` so retry timing is as
reproducible as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.clock import ticks_from_milliseconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RandomStream


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission: timeout, exponential backoff, jitter.

    ``max_attempts`` counts every transmission including the first, so
    ``max_attempts=4`` means one send plus up to three retries.  The
    timeout before retry ``n`` is
    ``timeout_ms * backoff_factor**(n-1) + U(0, jitter_ms)``; jitter
    decorrelates retry bursts when many senders lose messages to the
    same network event.
    """

    max_attempts: int = 4
    timeout_ms: float = 8.0
    backoff_factor: float = 2.0
    jitter_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout must be positive: {self.timeout_ms}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1: {self.backoff_factor}")
        if self.jitter_ms < 0:
            raise ValueError(f"negative jitter: {self.jitter_ms}")

    def timeout_ticks(self, attempt: int, rng: Optional["RandomStream"]) -> int:
        """Ticks to wait for an ack after transmission ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based: {attempt}")
        timeout = self.timeout_ms * self.backoff_factor ** (attempt - 1)
        if rng is not None and self.jitter_ms:
            timeout += rng.uniform(0.0, self.jitter_ms)
        return max(1, ticks_from_milliseconds(timeout))
