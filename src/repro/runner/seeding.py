"""Deterministic trial identity: config hashing and per-trial seeds.

Every trial the runner executes is identified by the triple
``(experiment name, config digest, trial index)``.  The digest is a
canonical hash of the experiment's frozen config dataclass, so

* the same experiment at the same config always replays the same
  random streams (reproducibility);
* two *variants* of an ablation sweep — configs that differ in any
  field — get **independent** streams instead of replaying the same
  draws (which silently correlates sweep cells);
* results are independent of worker count and scheduling, because a
  trial's seed never depends on *where* or *when* it runs.

The cache digest folds in the package version, so a release that
changes the simulation also invalidates the on-disk result cache.  The
seeding digest folds a frozen salt instead: a version bump alone never
reshuffles a trial's streams.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.sim.rng import derive_seed

#: Folded into seeding digests where the cache digest folds the version.
#: It equals the version every committed artefact was seeded under, so
#: the seeds are byte-identical to those; never change it.
SEED_SALT = "1.0.0"


def code_version() -> str:
    """The library version folded into cache digests (cache invalidation)."""
    import repro

    return getattr(repro, "__version__", "0")


def _canonical(value: Any, *, for_seeding: bool = False) -> Any:
    """Reduce a config value to deterministic JSON-encodable form.

    A config dataclass may declare ``DIGEST_OMIT_IF_DEFAULT``, a tuple
    of field names left out of the canonical form while they hold their
    default value.  This is how a config grows new opt-in knobs (e.g.
    the fault-injection fields) without changing the digest — and hence
    every trial seed — of all pre-existing configurations.  The moment
    a listed field is set to anything non-default it is folded in and
    the cell gets independent streams, as any config change must.

    A config may additionally declare ``SEED_DIGEST_OMIT``: fields left
    out of the *seeding* digest unconditionally (``for_seeding=True``),
    while still folded into the cache digest as above.  This is the
    fault-injection contract — a fault plan draws only from its own
    seed, so turning faults on must not reshuffle the simulation's own
    per-trial streams, yet a faulted cell must never share a cache cell
    with the clean run it degrades.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        omit_if_default = getattr(type(value), "DIGEST_OMIT_IF_DEFAULT", ())
        omit_always = (
            getattr(type(value), "SEED_DIGEST_OMIT", ()) if for_seeding else ()
        )
        canonical = {}
        for field in dataclasses.fields(value):
            if field.name in omit_always:
                continue
            field_value = getattr(value, field.name)
            if field.name in omit_if_default:
                default = (
                    field.default_factory()
                    if field.default_factory is not dataclasses.MISSING
                    else field.default
                )
                if field_value == default:
                    continue
            canonical[field.name] = _canonical(field_value, for_seeding=for_seeding)
        return canonical
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {
            str(k): _canonical(v, for_seeding=for_seeding)
            for k, v in sorted(value.items())
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_canonical(item, for_seeding=for_seeding) for item in items]
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


def _digest(experiment: str, config: Any, *, for_seeding: bool) -> str:
    payload = {
        "experiment": experiment,
        "config_type": type(config).__name__,
        "config": _canonical(config, for_seeding=for_seeding),
        "code_version": SEED_SALT if for_seeding else code_version(),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def config_digest(experiment: str, config: Any) -> str:
    """Stable hex digest of ``(experiment, config, code version)``.

    This is the *cache* identity: any field that can change a result
    byte is folded in, so distinct cells never collide on disk.
    """
    return _digest(experiment, config, for_seeding=False)


def seeding_digest(experiment: str, config: Any) -> str:
    """The digest variant that derives per-trial seeds.

    Identical to :func:`config_digest` except that fields listed in the
    config's ``SEED_DIGEST_OMIT`` are excluded regardless of value, so
    opt-in perturbation layers (fault injection) leave the simulation's
    own trial streams untouched while still occupying their own cache
    cell, and that it folds :data:`SEED_SALT` where the cache digest
    folds :func:`code_version`.
    """
    return _digest(experiment, config, for_seeding=True)


def trial_seed(experiment: str, digest: str, index: int) -> int:
    """The root seed of trial ``index`` of one experiment cell."""
    if index < 0:
        raise ValueError(f"trial index must be non-negative: {index}")
    return derive_seed(0, "runner", experiment, digest, str(index))


def trial_seeds(experiment: str, digest: str, count: int) -> list[int]:
    """Seeds for trials ``0 .. count-1``, in index order."""
    return [trial_seed(experiment, digest, index) for index in range(count)]
