"""Stable content hashing of sweep tasks.

The result cache and the incremental re-sweep logic key every run by
``(spec-hash, seed)``, so the hash must be *stable*: independent of process,
``PYTHONHASHSEED``, dict insertion order and worker count.  The canonical
form below therefore never calls ``hash()``, sorts every unordered
collection, and spells out dataclasses field by field.

:func:`canonical` is a dispatcher over per-type encoders.  The first value
of a type compiles that type's encoder (primitive, enum, set, mapping,
sequence, dataclass or plain object) and caches it in :data:`_ENCODERS`,
keyed by the exact ``type``; every later value of the type is one dict
lookup and one call.  A dataclass encoder is generated source with one
statement per field and its hash-optional defaults bound in, the way
:mod:`dataclasses` generates ``__init__``.  Frozen dataclass values share
the bounded :data:`_FROZEN_MEMO` of their text; mutable values are never
memoized, so mutating a spec can never make it hash stale.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Callable, Mapping

from repro.protocols.runner import ScenarioSpec

#: One encoder per exact type, compiled on first sight by :func:`_compile`.
_ENCODERS: dict[type, Callable[[Any], str]] = {}

#: Canonical forms of frozen, hashable dataclass values.  A partition sweep
#: shares the same ``PartitionSpec``/``PartitionEvent`` structures across
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
    encode = _ENCODERS.get(type(value))
    if encode is None:
        encode = _ENCODERS[type(value)] = _compile(type(value))
    return encode(value)


def _encode_none(value: None) -> str:
    return "None"


def _encode_float(value: float) -> str:
    # Integral floats collapse to their int form so numerically equal specs
    # (horizon=8 vs horizon=8.0) share one cache key; repr() round-trips
    # every other float exactly.
    if value.is_integer():
        return repr(int(value))
    return repr(value)


def _encode_set(value: Any) -> str:
    return "{" + ",".join(sorted(map(canonical, value))) + "}"


def _encode_mapping(value: Mapping) -> str:
    items = sorted((canonical(k), canonical(v)) for k, v in value.items())
    return "m{" + ",".join(f"{k}:{v}" for k, v in items) + "}"


def _encode_sequence(value: Any) -> str:
    return "[" + ",".join(map(canonical, value)) + "]"


def _encode_object(value: Any) -> str:
    # Plain objects (latency models): class name plus public-ish state.
    state = getattr(value, "__dict__", None)
    if state is None:
        raise TypeError(f"cannot canonicalize {value!r} for hashing")
    items = sorted((k, canonical(v)) for k, v in state.items())
    body = ",".join(f"{k}={v}" for k, v in items)
    return f"{type(value).__name__}({body})"


def _compile(tv: type) -> Callable[[Any], str]:
    """The encoder for values of exact type ``tv``.

    The checks run in the order that decides overlapping vocabularies: an
    ``IntEnum`` member is an enum (never its int value), and only then do
    ``int``/``str`` subclasses fall back to ``repr``.
    """
    if tv is type(None):
        return _encode_none
    if issubclass(tv, enum.Enum):
        prefix = f"{tv.__name__}."
        return lambda value: prefix + value.name
    if issubclass(tv, (bool, int, str)):
        return repr
    if issubclass(tv, float):
        return _encode_float
    if issubclass(tv, (set, frozenset)):
        return _encode_set
    if issubclass(tv, Mapping):
        return _encode_mapping
    if issubclass(tv, (list, tuple)):
        return _encode_sequence
    if dataclasses.is_dataclass(tv):
        return _dataclass_encoder(tv)
    return _encode_object


def _dataclass_encoder(tv: type) -> Callable[[Any], str]:
    """Field-by-field encoder of one dataclass type.

    The encoder is generated source with one statement per field, the way
    :mod:`dataclasses` generates ``__init__``: a warm re-sweep hashes every
    task, and the generated body skips the per-field loop and the default
    test of every field that has no default to test.

    A *hash-optional* field (declared with
    ``field(metadata={"hash_optional": True})``) still at its default is
    omitted from the text entirely, so specs that grow new optional knobs
    (``faults``, ``lock_transport``) keep hashing byte-identically to the
    format that predates them -- existing caches, golden tables and shard
    result logs carry over unchanged.
    """
    namespace: dict[str, Any] = {"canonical": canonical, "encoder_of": _ENCODERS.get}
    lines = ["def encode(value):", "    parts = []"]
    for index, f in enumerate(dataclasses.fields(tv)):
        append = f"parts.append({f.name + '='!r} + (encoder_of(type(v)) or canonical)(v))"
        if f.metadata.get("hash_optional") and f.default is not dataclasses.MISSING:
            namespace[f"default_{index}"] = f.default
            append = f"if not (v == default_{index}): {append}"
        lines += [f"    v = value.{f.name}", f"    {append}"]
    lines.append(f"    return {tv.__name__ + '('!r} + ','.join(parts) + ')'")
    exec("\n".join(lines), namespace)
    encode = namespace["encode"]

    if not tv.__dataclass_params__.frozen:
        return encode

    def encode_frozen(value: Any) -> str:
        # Frozen dataclasses cannot change after construction, and their
        # generated __eq__ never matches a different class, so the value
        # itself is a sound memo key (unhashable fields opt out).
        try:
            text = _FROZEN_MEMO.get(value)
        except TypeError:
            return encode(value)
        if text is None:
            text = encode(value)
            if len(_FROZEN_MEMO) >= _FROZEN_MEMO_MAX:
                _FROZEN_MEMO.clear()
            _FROZEN_MEMO[value] = text
        return text

    return encode_frozen


def spec_hash(protocol: str, spec: ScenarioSpec) -> str:
    """The stable hash of one (protocol, scenario) sweep point."""
    text = f"protocol={protocol};{canonical(spec)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
