"""The single-transaction scenario kind: one row of the spec-kind table.

The original (and JSON-untagged) spec kind: one
:class:`~repro.protocols.runner.ScenarioSpec` runs one transaction through
one commit protocol and reduces to a
:class:`~repro.engine.summary.RunSummary` (Theorem 9, Figs. 5-9 and
Sec. 6).  Trace-derived measures apply to this kind only (the other kinds
never build a per-run trace).

:mod:`repro.engine.registry` imports this module on its first lookup, so
importing the registry never drags in the protocol stack until a lookup
actually happens.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.grid import SweepTask
from repro.engine.measures import apply_measures
from repro.engine.registry import SpecKind
from repro.engine.sink import VerdictCounterSink
from repro.engine.summary import RunSummary
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario


def _execute(
    protocol: str,
    spec: ScenarioSpec,
    *,
    spec_hash: str,
    measures: Sequence[str] = (),
) -> RunSummary:
    """Run one scenario in a worker and return its plain summary part.

    The trace is collected only when a measure needs it: summaries read
    protocol-role and database state, never the trace, so measure-free runs
    (the common sweep case) skip per-event record construction entirely.
    The returned record is a field copy of the result's
    :class:`~repro.protocols.runner.RunSummary` part, so no trace or
    database site outlives this call.
    """
    measures = tuple(measures)
    result = run_scenario(
        create_protocol(protocol), spec, collect_trace=bool(measures)
    )
    return result.as_summary(
        spec_hash=spec_hash, metrics=apply_measures(result, measures)
    )


SCENARIO_KIND = SpecKind(
    name="scenario",
    spec_type=ScenarioSpec,
    summary_type=RunSummary,
    execute=_execute,
    decode=RunSummary.from_json_dict,
    json_tag=None,  # the legacy untagged payload format
    make_sink=VerdictCounterSink,  # per-protocol verdict counts
    # One fast, failure-free scenario (for the conformance suite).
    sample_task=lambda: SweepTask("two-phase-commit", ScenarioSpec(n_sites=3)),
)
