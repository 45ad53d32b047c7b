"""JSON codec for experiment results.

Experiment ``run()`` results are nested structures of dicts, lists, tuples
and a small set of result dataclasses.  The on-disk result cache stores
them as canonical JSON; this codec makes the round trip faithful -- tuples
stay tuples, non-string dict keys survive, and the registered dataclasses
are reconstructed so cached results still answer attribute access
(``report.latencies_us`` etc.) exactly like live ones.

Invariants:

- **Lossless round trip**: ``decode(encode(x)) == x`` for every value an
  experiment may return (primitives, lists, tuples, sets, dicts with
  non-string keys, registered dataclasses); the runner relies on this to
  make warm and cold results indistinguishable.
- **Deterministic encoding**: set elements are sorted, so
  ``json.dumps(encode(x), sort_keys=True)`` is byte-stable.
- **Canonical decoding**: string-keyed dicts come back in sorted key
  order, so ``decode(encode(x))`` and a decode of the cache's
  ``sort_keys`` JSON iterate identically (non-string-keyed dicts keep
  their encoded pair order on both paths).
- **Closed decode surface**: the decoder only ever constructs dataclasses
  whitelisted in :data:`RESULT_DATACLASSES` -- a cache file can never name
  an arbitrary class to instantiate.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Type

from repro.security.attack_surface import AttackSurfaceReport, Cve
from repro.syscall.lmbench import LmbenchReport
from repro.workloads.coldstart import ColdStartResult

#: Dataclasses that may appear in experiment results.  A whitelist: the
#: decoder must never import/construct arbitrary classes named by a file.
RESULT_DATACLASSES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (AttackSurfaceReport, ColdStartResult, Cve, LmbenchReport)
}


def register_result_dataclass(cls: Type) -> Type:
    """Whitelist *cls* for codec round trips (idempotent).

    Modules whose dataclasses cross the codec boundary but that import
    the codec themselves, so the codec cannot import them back (e.g.
    :mod:`repro.experiments.ext_derived`, whose cached result holds
    ``DerivedComparison`` cells), register themselves here.
    """
    existing = RESULT_DATACLASSES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"result dataclass name {cls.__name__!r} already registered "
            f"by {existing.__module__}"
        )
    RESULT_DATACLASSES[cls.__name__] = cls
    return cls

_TUPLE = "__tuple__"
_ITEMS = "__items__"
_DATACLASS = "__dataclass__"
_MARKERS = (_TUPLE, _ITEMS, _DATACLASS)


def encode(value: Any) -> Any:
    """Encode *value* into JSON-serializable primitives."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE: [encode(item) for item in value]}
    if isinstance(value, (frozenset, set)):
        # Sets have no order; sort the encoded repr for determinism.
        return {_TUPLE: sorted((encode(item) for item in value), key=repr)}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        plain_keys = all(
            isinstance(key, str) and key not in _MARKERS for key in value
        )
        if plain_keys:
            return {key: encode(item) for key, item in value.items()}
        return {_ITEMS: [[encode(k), encode(v)] for k, v in value.items()]}
    if dataclasses.is_dataclass(value):
        name = type(value).__name__
        if name not in RESULT_DATACLASSES:
            raise TypeError(
                f"unregistered result dataclass {name!r}; add it to "
                "repro.harness.codec.RESULT_DATACLASSES"
            )
        fields = {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {_DATACLASS: name, "fields": fields}
    raise TypeError(f"cannot encode result value of type {type(value)!r}")


def decode(value: Any) -> Any:
    """Invert :func:`encode`."""
    if isinstance(value, list):
        return [decode(item) for item in value]
    if isinstance(value, dict):
        if _TUPLE in value:
            return tuple(decode(item) for item in value[_TUPLE])
        if _ITEMS in value:
            return {decode(k): decode(v) for k, v in value[_ITEMS]}
        if _DATACLASS in value:
            cls = RESULT_DATACLASSES[value[_DATACLASS]]
            fields = {
                name: decode(item)
                for name, item in value["fields"].items()
            }
            return cls(**fields)
        return {key: decode(value[key]) for key in sorted(value)}
    return value
