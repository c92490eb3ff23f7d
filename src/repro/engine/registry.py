"""The spec-kind registry: the engine's open extension point.

Historically, teaching the sweep engine a new scenario type (a third kind
of spec beyond single-transaction :class:`~repro.protocols.runner.ScenarioSpec`
and concurrent-workload :class:`~repro.txn.runner.ThroughputSpec`) required
lockstep edits in three places: ``execute_task``'s isinstance dispatch, the
``kind``-tag branch in ``summary_from_json_dict``, and the sink module's
imports.  This module replaces all three with one registration point: a
:class:`SpecKind` bundles everything the engine needs to run, cache, spill
and aggregate one family of specs --

* the **spec dataclass** (what a grid point looks like),
* the **task executor** (how a worker turns ``(protocol, spec)`` into a
  summary),
* the **summary codec** (how the summary round-trips canonical JSON for the
  result cache and JSONL spills, selected by the payload's ``kind`` tag),
* the **default sink factory** (how the CLI and ``repro merge`` aggregate a
  stream of these summaries into a table).

``engine.py``, ``cache.py``, ``sink.py``, the experiments and the CLI all
resolve through the lookups here (:func:`kind_for_spec`,
:func:`kind_for_payload`, :func:`kind_by_name`), so a new scenario type
plugs in with a single :func:`register_spec_kind` call -- no engine edits.

The built-in kinds self-register from their home packages
(:mod:`repro.engine.scenario_kind`, :mod:`repro.txn.kind`,
:mod:`repro.modelcheck.kind`); they are imported lazily on first lookup so
this module stays dependency-free and import cycles cannot form.

A test or external package adds a kind the same way, by calling
:func:`register_spec_kind`, without touching this file.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

#: Modules that register the built-in kinds on import.  Lazily imported on
#: the first registry lookup; third-party / test kinds call
#: :func:`register_spec_kind` directly instead of being listed here.
BUILTIN_KIND_PROVIDERS: tuple[str, ...] = (
    "repro.engine.scenario_kind",
    "repro.txn.kind",
    "repro.modelcheck.kind",
)


class UnknownSpecKindError(KeyError):
    """A lookup named a spec kind, tag or spec type nobody registered.

    The message always names the offending kind so a failed cache read or
    spill load is self-diagnosing (``KeyError``'s default repr would quote
    it away).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class SpecKind:
    """Everything the engine needs to know about one family of specs.

    Attributes:
        name: short registry id (``"scenario"``, ``"throughput"``).
        spec_type: the spec dataclass; :func:`kind_for_spec` dispatches on
            it (exact type match, the way grid points are constructed).
        summary_type: the record the executor returns; must provide
            ``to_json_dict`` / ``to_json_bytes`` with canonical (sorted-key)
            JSON so cache entries and spills are byte-stable.
        execute: ``execute(protocol, spec, *, spec_hash, measures)`` -- runs
            one task inside a worker and returns a ``summary_type`` record.
        decode: rebuilds a summary from a ``to_json_dict`` payload (the
            ``kind`` tag has already selected this kind).
        json_tag: the value of the payload's ``"kind"`` key; ``None`` means
            the untagged legacy format (reserved by the scenario kind).
        make_sink: zero-argument factory for the kind's default aggregation
            sink (must expose ``rows()`` for table rendering); used by the
            CLI and ``repro merge``.
        sample_task: optional factory for one small representative
            :class:`~repro.engine.grid.SweepTask`, used by the registry
            conformance tests to exercise every kind end to end.
    """

    name: str
    spec_type: type
    summary_type: type
    execute: Callable[..., Any]
    decode: Callable[[Mapping[str, Any]], Any]
    json_tag: Optional[str] = None
    make_sink: Optional[Callable[[], Any]] = None
    sample_task: Optional[Callable[[], Any]] = None


_KINDS: dict[str, SpecKind] = {}
_BY_SPEC_TYPE: dict[type, SpecKind] = {}
_BY_TAG: dict[Optional[str], SpecKind] = {}
_builtins_loaded = False
_generation = 0


_builtins_loading = False


def _load_builtins() -> None:
    """Import the built-in kind providers once (idempotent, reentrancy-safe).

    The done-flag is only set after every provider imported, so a failed
    provider import surfaces again (as the original ImportError) on the
    next lookup instead of masquerading as an unknown-kind error; the
    in-progress flag lets providers call registry functions while they are
    being imported.
    """
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded or _builtins_loading:
        return
    _builtins_loading = True
    try:
        for module in BUILTIN_KIND_PROVIDERS:
            importlib.import_module(module)
    finally:
        _builtins_loading = False
    _builtins_loaded = True


def registry_generation() -> int:
    """How many registrations (kinds and measures) this process has seen.

    Worker processes hold the registries as they were when the pool
    started; the engine records this number then and re-forks its pool once
    it has moved, so a late registration is never invisible to a worker.
    The built-ins are loaded first so their lazy import is not mistaken for
    one.
    """
    _load_builtins()
    return _generation


def bump_registry_generation() -> None:
    """Record one registry change (also called by ``register_measure``)."""
    global _generation
    _generation += 1


def register_spec_kind(kind: SpecKind) -> SpecKind:
    """Register ``kind``; every axis (name, spec type, tag) must be free.

    Returns the kind so providers can write
    ``KIND = register_spec_kind(SpecKind(...))``.
    """
    if kind.name in _KINDS:
        raise ValueError(f"spec kind {kind.name!r} is already registered")
    if kind.spec_type in _BY_SPEC_TYPE:
        raise ValueError(
            f"spec type {kind.spec_type.__name__} is already registered "
            f"(kind {_BY_SPEC_TYPE[kind.spec_type].name!r})"
        )
    if kind.json_tag in _BY_TAG:
        raise ValueError(
            f"JSON kind tag {kind.json_tag!r} is already registered "
            f"(kind {_BY_TAG[kind.json_tag].name!r})"
        )
    _KINDS[kind.name] = kind
    _BY_SPEC_TYPE[kind.spec_type] = kind
    _BY_TAG[kind.json_tag] = kind
    bump_registry_generation()
    return kind


def unregister_spec_kind(name: str) -> None:
    """Remove a registered kind (primarily for tests adding toy kinds)."""
    kind = _KINDS.pop(name, None)
    if kind is None:
        raise UnknownSpecKindError(f"spec kind {name!r} is not registered")
    del _BY_SPEC_TYPE[kind.spec_type]
    del _BY_TAG[kind.json_tag]
    bump_registry_generation()


def registered_kinds() -> tuple[SpecKind, ...]:
    """Every registered kind, in registration order (built-ins first)."""
    _load_builtins()
    return tuple(_KINDS.values())


def kind_by_name(name: str) -> SpecKind:
    """The kind registered as ``name``; the error names the kind."""
    _load_builtins()
    kind = _KINDS.get(name)
    if kind is None:
        raise UnknownSpecKindError(
            f"unknown spec kind {name!r}; registered: {sorted(_KINDS)}"
        )
    return kind


def kind_for_spec(spec: Any) -> SpecKind:
    """The kind owning ``type(spec)``; the error names the spec type."""
    _load_builtins()
    kind = _BY_SPEC_TYPE.get(type(spec))
    if kind is None:
        raise UnknownSpecKindError(
            f"no spec kind registered for spec type {type(spec).__name__!r}; "
            f"registered: {sorted(_KINDS)} "
            f"(add one with repro.engine.registry.register_spec_kind)"
        )
    return kind


def kind_for_tag(tag: Optional[str]) -> SpecKind:
    """The kind owning JSON ``kind`` tag ``tag``; the error names the tag."""
    _load_builtins()
    kind = _BY_TAG.get(tag)
    if kind is None:
        raise UnknownSpecKindError(
            f"no spec kind registered for JSON kind tag {tag!r}; "
            f"registered tags: {sorted(t for t in _BY_TAG if t is not None)} "
            f"plus the untagged default"
        )
    return kind


def kind_for_payload(payload: Mapping[str, Any]) -> SpecKind:
    """The kind encoding a cache / spill payload (by its ``kind`` tag)."""
    return kind_for_tag(payload.get("kind"))
