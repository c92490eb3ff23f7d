"""The single-transaction scenario kind: one row of the spec-kind table.

The original (and JSON-untagged) spec kind: one
:class:`~repro.protocols.runner.ScenarioSpec` runs one transaction through
one commit protocol and reduces to a
:class:`~repro.engine.summary.RunSummary` (Theorem 9, Figs. 5-9 and
Sec. 6).  The summary carries no trace: the timing experiments that read
traces run :func:`~repro.protocols.runner.run_scenario` themselves
(:func:`repro.experiments.harness.traced_runs`).

:mod:`repro.engine.registry` imports this module on its first lookup, so
importing the registry never drags in the protocol stack until a lookup
actually happens.
"""

from __future__ import annotations

from repro.engine.grid import SweepTask
from repro.engine.registry import SpecKind
from repro.engine.sink import VerdictCounterSink
from repro.engine.summary import RunSummary
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario


def _execute(protocol: str, spec: ScenarioSpec, *, spec_hash: str) -> RunSummary:
    """Run one scenario in a worker and return its plain summary part.

    Summaries read protocol-role and database state, never the trace, so
    the run skips per-event record construction entirely.  The returned
    record is a field copy of the result's
    :class:`~repro.protocols.runner.RunSummary` part, so no database site
    outlives this call.
    """
    result = run_scenario(create_protocol(protocol), spec, collect_trace=False)
    return result.as_summary(spec_hash=spec_hash)


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
