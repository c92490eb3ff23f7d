"""The three spec kinds the engine runs, as one fixed table.

A :class:`SpecKind` bundles everything the engine needs to run, cache,
spill and aggregate one family of specs --

* the **spec dataclass** (what a grid point looks like),
* the **task executor** (how a worker turns ``(protocol, spec)`` into a
  summary),
* the **summary codec** (how the summary round-trips canonical JSON for the
  result cache and JSONL spills, selected by the payload's ``kind`` tag),
* the **default sink factory** (how the CLI and ``repro merge`` aggregate a
  stream of these summaries into a table).

The reproduction runs exactly three families of work, one row each:

==========  ==================  =====================  ==============
kind        spec                summary                JSON tag
==========  ==================  =====================  ==============
scenario    ``ScenarioSpec``    ``RunSummary``         none (legacy)
throughput  ``ThroughputSpec``  ``ThroughputSummary``  ``throughput``
modelcheck  ``ModelCheckSpec``  ``ModelCheckSummary``  ``modelcheck``
==========  ==================  =====================  ==============

Each row is a plain ``SpecKind(...)`` value in its home package
(:mod:`repro.engine.scenario_kind`, :mod:`repro.txn.kind`,
:mod:`repro.modelcheck.kind`).  Those packages import the engine, so the
table is built on the first lookup rather than at import; after that every
lookup (:func:`kind_by_name`, :func:`kind_for_spec`, :func:`kind_for_tag`,
:func:`kind_for_payload`) is one dict probe.  ``engine.py``, ``cache.py``,
``sink.py``, ``resultlog.py`` and the CLI all resolve through them and never
name a concrete spec type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional


class UnknownSpecKindError(KeyError):
    """A lookup named a spec kind, tag or spec type outside the table.

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
        name: short table id (``"scenario"``, ``"throughput"``,
            ``"modelcheck"``).
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
            the untagged legacy format (the scenario kind's).
        make_sink: zero-argument factory for the kind's default aggregation
            sink (exposes ``rows()`` for table rendering); used by the CLI
            and ``repro merge``.
        sample_task: factory for one small representative
            :class:`~repro.engine.grid.SweepTask`, used by the conformance
            tests to exercise every kind end to end.
    """

    name: str
    spec_type: type
    summary_type: type
    execute: Callable[..., Any]
    decode: Callable[[Mapping[str, Any]], Any]
    json_tag: Optional[str]
    make_sink: Callable[[], Any]
    sample_task: Callable[[], Any]


# The table, indexed three ways; empty until the first lookup builds it.
_BY_NAME: dict[str, SpecKind] = {}
_BY_SPEC_TYPE: dict[type, SpecKind] = {}
_BY_TAG: dict[Optional[str], SpecKind] = {}


def _build_table() -> None:
    """Fill the three indexes from the three kind rows (once)."""
    if _BY_NAME:
        return
    from repro.engine.scenario_kind import SCENARIO_KIND
    from repro.modelcheck.kind import MODELCHECK_KIND
    from repro.txn.kind import THROUGHPUT_KIND

    for kind in (SCENARIO_KIND, THROUGHPUT_KIND, MODELCHECK_KIND):
        _BY_NAME[kind.name] = kind
        _BY_SPEC_TYPE[kind.spec_type] = kind
        _BY_TAG[kind.json_tag] = kind


def registered_kinds() -> tuple[SpecKind, ...]:
    """Every kind in the table, in table order."""
    _build_table()
    return tuple(_BY_NAME.values())


def kind_by_name(name: str) -> SpecKind:
    """The kind called ``name``; the error names the kind."""
    kind = _BY_NAME.get(name)
    if kind is None:
        _build_table()
        kind = _BY_NAME.get(name)
        if kind is None:
            raise UnknownSpecKindError(
                f"unknown spec kind {name!r}; known: {sorted(_BY_NAME)}"
            )
    return kind


def kind_for_spec(spec: Any) -> SpecKind:
    """The kind owning ``type(spec)``; the error names the spec type."""
    kind = _BY_SPEC_TYPE.get(type(spec))
    if kind is None:
        _build_table()
        kind = _BY_SPEC_TYPE.get(type(spec))
        if kind is None:
            raise UnknownSpecKindError(
                f"no spec kind for spec type {type(spec).__name__!r}; "
                f"known: {sorted(_BY_NAME)}"
            )
    return kind


def kind_for_tag(tag: Optional[str]) -> SpecKind:
    """The kind owning JSON ``kind`` tag ``tag``; the error names the tag.

    A tag that is neither a string nor ``None`` (a list, an object, a
    number) is unknown like any other, never a ``TypeError``.
    """
    try:
        kind = _BY_TAG.get(tag)
    except TypeError:  # an unhashable tag read from a damaged record
        kind = None
    if kind is None:
        _build_table()
        if tag is None or isinstance(tag, str):
            kind = _BY_TAG.get(tag)
        if kind is None:
            raise UnknownSpecKindError(
                f"no spec kind for JSON kind tag {tag!r}; known tags: "
                f"{sorted(t for t in _BY_TAG if t is not None)} plus the "
                f"untagged default"
            )
    return kind


def kind_for_payload(payload: Mapping[str, Any]) -> SpecKind:
    """The kind encoding a cache / spill payload (by its ``kind`` tag)."""
    return kind_for_tag(payload.get("kind"))
