"""The crash flight recorder: last-N telemetry, dumped on failure.

A long chaos run that dies tells you *that* it died; the flight
recorder tells you what the system was doing just before.  It keeps a
bounded ring of the most recent span records (a
:class:`~repro.obs.tracing.SpanTracer` built with ``recorder=`` feeds
it every finished span) and writes the ring to a JSON file when
triggered — automatically when a span name it is armed on is recorded
(``bips trace --flight-recorder`` arms the ``core.workstation_failed``
and ``core.server_brownout`` fault instants), or explicitly via
:meth:`trigger`.

Dump files are numbered in trigger order (``flight-0001-<reason>.json``)
and their contents are deterministic whenever the recorded spans are
(wall-free tracing), so chaos tests can assert on them byte-for-byte.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any


class FlightRecorder:
    """A ring buffer of recent span records with dump-on-fault triggers."""

    def __init__(self, capacity: int = 512, out_dir: str = "results/trace") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.out_dir = out_dir
        self.noted = 0
        self.dumps: list[str] = []
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._armed: frozenset[str] = frozenset()

    # -- feeding -----------------------------------------------------------

    def note(self, record: dict[str, Any]) -> None:
        """Append one record (a finished span; SpanTracer calls this).

        A record whose ``name`` is armed triggers a dump right after it
        is appended, so it is always the last entry of its own dump.
        """
        self.noted += 1
        self._ring.append(record)
        name = record.get("name")
        if name in self._armed:
            self.trigger(name)

    def arm(self, *span_names: str) -> None:
        """Dump automatically whenever a span named one of ``span_names``
        is recorded (added to any names armed before)."""
        self._armed = self._armed.union(span_names)

    # -- dumping -----------------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """The ring's current contents, oldest first."""
        return list(self._ring)

    def trigger(self, reason: str) -> str:
        """Write the ring to a dump file; returns its path."""
        os.makedirs(self.out_dir, exist_ok=True)
        safe_reason = "".join(
            char if char.isalnum() or char in "-_" else "-" for char in reason
        )
        path = os.path.join(
            self.out_dir, f"flight-{len(self.dumps) + 1:04d}-{safe_reason}.json"
        )
        document = {
            "reason": reason,
            "capacity": self.capacity,
            "records_seen": self.noted,
            "records": self.snapshot(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=1)
            handle.write("\n")
        self.dumps.append(path)
        return path

    def __len__(self) -> int:
        return len(self._ring)
