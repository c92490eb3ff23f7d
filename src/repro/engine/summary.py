"""Per-run records streamed back by the sweep engine, and their codec.

:class:`RunSummary` is defined next to
:func:`~repro.protocols.runner.run_scenario`, which fills it, and is
re-exported here for the engine's surfaces.  It carries everything the
experiments and analyses read from a run -- decisions, votes, timing, lock
retention and message counts -- but none
of the heavyweight state (trace, database sites, role objects), so it
crosses process boundaries and serializes to canonical JSON for the on-disk
cache.  It is also the only type that defines the run verdicts.

:func:`summary_from_json_dict` decodes any spec kind's record by the
payload's ``kind`` tag.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.engine.registry import kind_for_payload
from repro.protocols.runner import RunSummary

__all__ = ["RunSummary", "summary_from_json_bytes", "summary_from_json_dict"]


def summary_from_json_dict(payload: Mapping[str, Any]):
    """Rebuild whichever summary record ``payload`` encodes.

    The payload's ``kind`` tag selects a row of the spec-kind table
    (:mod:`repro.engine.registry`) whose codec decodes it; untagged
    payloads are the scenario kind's legacy format.  The result cache and
    :func:`~repro.engine.sink.read_jsonl` both load through this function,
    so every engine surface round-trips every kind's record type.
    """
    return kind_for_payload(payload).decode(payload)


def summary_from_json_bytes(data: bytes):
    """Byte-level counterpart of :func:`summary_from_json_dict`."""
    return summary_from_json_dict(json.loads(data.decode("utf-8")))
