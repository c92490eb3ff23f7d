"""Registration of the single-transaction scenario kind.

The original (and JSON-untagged) spec kind: one
:class:`~repro.protocols.runner.ScenarioSpec` runs one transaction through
one commit protocol and reduces to a
:class:`~repro.engine.summary.RunSummary`.  Trace-derived measures apply to
this kind only (the other kinds never build a per-run trace).

Imported lazily by :mod:`repro.engine.registry` (it is listed in
``BUILTIN_KIND_PROVIDERS``), so importing the registry never drags in the
protocol stack until a lookup actually happens.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.measures import apply_measures
from repro.engine.registry import SpecKind, register_spec_kind
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


def _make_sink():
    """The kind's default aggregate: per-protocol verdict counts."""
    from repro.engine.sink import VerdictCounterSink

    return VerdictCounterSink()


def _sample_task():
    """One fast, failure-free scenario (for the conformance suite)."""
    from repro.engine.grid import SweepTask

    return SweepTask(protocol="two-phase-commit", spec=ScenarioSpec(n_sites=3))


SCENARIO_KIND = register_spec_kind(
    SpecKind(
        name="scenario",
        spec_type=ScenarioSpec,
        summary_type=RunSummary,
        execute=_execute,
        decode=RunSummary.from_json_dict,
        json_tag=None,  # the legacy untagged payload format
        make_sink=_make_sink,
        sample_task=_sample_task,
    )
)
