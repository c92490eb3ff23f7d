"""Stable content hashing of sweep tasks.

The result cache and the incremental re-sweep logic key every run by
``(spec-hash, seed)``, so the hash must be *stable*: independent of process,
``PYTHONHASHSEED``, dict insertion order and worker count.  The canonical
form below therefore never calls ``hash()``, sorts every unordered
collection, and spells out dataclasses field by field.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Mapping

from repro.protocols.runner import ScenarioSpec

#: Per-dataclass field-name cache: ``dataclasses.fields()`` rebuilds its
#: tuple on every call, and canonicalization visits the same few spec
#: classes thousands of times per sweep.  Values are
#: ``(names, frozen, optional_defaults)``; frozen dataclasses are
#: additionally safe to memoize by value below.
#:
#: ``optional_defaults`` maps the names of *hash-optional* fields (declared
#: with ``field(metadata={"hash_optional": True})``) to their defaults.  A
#: hash-optional field still at its default is omitted from the canonical
#: text entirely, so specs that grow new optional knobs (``faults``,
#: ``lock_transport``) keep hashing byte-identically to the format that
#: predates them -- existing caches, golden tables and shard result logs carry
#: over unchanged.
_FIELD_NAMES: dict[type, tuple[tuple[str, ...], bool, dict[str, Any]]] = {}

#: Canonical forms of frozen, hashable dataclass values.  A partition sweep
#: shares the same ``PartitionSpec``/``PartitionSchedule`` structures across
#: many tasks, so their canonical text is computed once.  Bounded so a
#: pathological sweep cannot grow it without limit.
_FROZEN_MEMO: dict[Any, str] = {}
_FROZEN_MEMO_MAX = 4096


def canonical(value: Any) -> str:
    """A deterministic string form of ``value`` for hashing.

    Supports the vocabulary of :class:`~repro.protocols.runner.ScenarioSpec`:
    primitives, enums (by class and member name), sets/frozensets (sorted),
    mappings (sorted by key), sequences, dataclasses (by field) and plain
    objects such as the latency models (by class name + sorted ``__dict__``).
    """
    # Exact-type checks first: the bulk of any spec is primitives, and an
    # exact int/str/float/bool is never an Enum, so this is both the fast
    # path and semantically identical to the isinstance cascade below
    # (which still handles subclasses).
    tv = type(value)
    if tv is str or tv is int or tv is bool:
        return repr(value)
    if tv is float:
        # Integral floats collapse to their int form so numerically equal
        # specs (horizon=8 vs horizon=8.0) share one cache key; repr()
        # round-trips every other float exactly.
        if value.is_integer():
            return repr(int(value))
        return repr(value)
    if value is None:
        return "None"
    if isinstance(value, enum.Enum):
        # Before the primitive check: IntEnum-style members would otherwise
        # collapse into their value and collide with plain ints.
        return f"{tv.__name__}.{value.name}"
    if isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        if value.is_integer():
            return repr(int(value))
        return repr(value)
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "m{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    entry = _FIELD_NAMES.get(tv)
    if entry is None and dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = tuple(f.name for f in dataclasses.fields(value))
        optional = {
            f.name: f.default
            for f in dataclasses.fields(value)
            if f.metadata.get("hash_optional")
            and f.default is not dataclasses.MISSING
        }
        entry = (names, bool(tv.__dataclass_params__.frozen), optional)
        _FIELD_NAMES[tv] = entry
    if entry is not None:
        names, frozen, optional = entry
        if frozen:
            # Frozen dataclasses cannot change after construction, and their
            # generated __eq__ never matches a different class, so the value
            # itself is a sound memo key (unhashable fields opt out).
            try:
                cached = _FROZEN_MEMO.get(value)
            except TypeError:
                frozen = False
            else:
                if cached is not None:
                    return cached
        fields = ",".join(
            f"{name}={canonical(field_value)}"
            for name in names
            for field_value in (getattr(value, name),)
            if not (name in optional and field_value == optional[name])
        )
        text = f"{tv.__name__}({fields})"
        if frozen:
            if len(_FROZEN_MEMO) >= _FROZEN_MEMO_MAX:
                _FROZEN_MEMO.clear()
            _FROZEN_MEMO[value] = text
        return text
    # Plain objects (latency models): class name plus public-ish state.
    state = getattr(value, "__dict__", None)
    if state is not None:
        items = sorted((k, canonical(v)) for k, v in state.items())
        body = ",".join(f"{k}={v}" for k, v in items)
        return f"{tv.__name__}({body})"
    raise TypeError(f"cannot canonicalize {value!r} for hashing")


def spec_hash(protocol: str, spec: ScenarioSpec) -> str:
    """The stable hash of one (protocol, scenario) sweep point."""
    text = f"protocol={protocol};{canonical(spec)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
