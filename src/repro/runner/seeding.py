"""Deterministic trial identity: config hashing and per-trial seeds.

Every trial the runner executes is identified by the triple
``(experiment name, seeding digest, trial index)``.  The digest is a
canonical hash of the experiment's frozen config dataclass, so

* the same experiment at the same config always replays the same
  random streams (reproducibility);
* two *variants* of an ablation sweep — configs that differ in any
  field — get **independent** streams instead of replaying the same
  draws (which silently correlates sweep cells);
* results are independent of worker count and scheduling, because a
  trial's seed never depends on *where* or *when* it runs.

The digest folds a frozen salt, never the package version: a version
bump alone never reshuffles a trial's streams.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.sim.rng import derive_seed

#: Folded into every seeding digest.  It equals the version every
#: committed artefact was seeded under, so the seeds are byte-identical
#: to those; never change it.
SEED_SALT = "1.0.0"


def _canonical(value: Any) -> Any:
    """Reduce a config value to deterministic JSON-encodable form.

    A config dataclass may declare ``SEED_DIGEST_OMIT``: fields left out
    of the canonical form whatever their value.  This is the
    fault-injection and tracing contract — a fault plan draws only from
    its own seed and a tracer only observes, so turning either on must
    not reshuffle the simulation's own per-trial streams.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        omit = getattr(type(value), "SEED_DIGEST_OMIT", ())
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.name not in omit
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_canonical(item) for item in items]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr round-trips floats exactly; formatting would collapse
        # distinct configs onto one digest.
        return repr(value)
    raise TypeError(
        f"config field of type {type(value).__name__} is not hashable for "
        f"the runner: {value!r}"
    )


def seeding_digest(experiment: str, config: Any) -> str:
    """Stable hex digest of ``(experiment, config)`` that derives trial seeds.

    Fields listed in the config's ``SEED_DIGEST_OMIT`` are excluded, so
    opt-in layers that never draw (fault injection, tracing) leave the
    simulation's own trial streams untouched.
    """
    payload = {
        "experiment": experiment,
        "config_type": type(config).__name__,
        "config": _canonical(config),
        # The key name is part of the hashed bytes: keep it.
        "code_version": SEED_SALT,
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def trial_seed(experiment: str, digest: str, index: int) -> int:
    """The root seed of trial ``index`` of one experiment cell."""
    if index < 0:
        raise ValueError(f"trial index must be non-negative: {index}")
    return derive_seed(0, "runner", experiment, digest, str(index))


def trial_seeds(experiment: str, digest: str, count: int) -> list[int]:
    """Seeds for trials ``0 .. count-1``, in index order."""
    return [trial_seed(experiment, digest, index) for index in range(count)]
