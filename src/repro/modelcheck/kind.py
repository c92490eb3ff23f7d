"""The exhaustive model-checking kind: one row of the spec-kind table.

One :class:`~repro.modelcheck.spec.ModelCheckSpec` explores one protocol's
global state graph under one fault envelope and reduces to a
:class:`~repro.modelcheck.summary.ModelCheckSummary` (payloads tagged
``"kind": "modelcheck"``), checking the claims of Secs. 2-3.  Being a row
of the spec-kind table is the whole point of the MODELCHECK design:
exhaustive verification inherits the ``(spec-hash, seed)`` result cache,
streaming sinks, JSONL spills and ``repro shard`` / ``repro merge``
distribution with no engine changes.

:mod:`repro.engine.registry` imports this module on its first lookup.
Trace measures do not apply -- the checker enumerates all executions at
once, so there is no single event trace to measure.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.engine.grid import SweepTask
from repro.engine.registry import SpecKind
from repro.modelcheck.checker import check_model
from repro.modelcheck.sink import ModelCheckSink
from repro.modelcheck.spec import ModelCheckSpec
from repro.modelcheck.summary import ModelCheckSummary
from repro.obs.metrics import get_active as _active_metrics


def _execute(
    protocol: str,
    spec: ModelCheckSpec,
    *,
    spec_hash: str,
    measures: Sequence[str] = (),
) -> ModelCheckSummary:
    """Explore + check one configuration in a worker; keep only the summary."""
    metrics = _active_metrics()
    if metrics is None:
        return check_model(protocol, spec).as_summary(spec_hash=spec_hash)
    before = time.perf_counter()
    summary = check_model(protocol, spec).as_summary(spec_hash=spec_hash)
    elapsed = time.perf_counter() - before
    metrics.counter("modelcheck.checks").inc()
    metrics.counter("modelcheck.states_explored").inc(summary.states_explored)
    metrics.counter("modelcheck.edges_explored").inc(summary.edges_explored)
    if not summary.complete:
        metrics.counter("modelcheck.truncated").inc()
    metrics.histogram("modelcheck.explore_seconds").observe(elapsed)
    # High-watermark gauges: the deepest frontier, the fastest exploration
    # and the closest brush with the state budget across the whole sweep.
    metrics.gauge("modelcheck.frontier_depth").set(float(summary.frontier_depth))
    if elapsed > 0:
        metrics.gauge("modelcheck.states_per_second").set(
            summary.states_explored / elapsed
        )
    if spec.max_states:
        metrics.gauge("modelcheck.budget_consumed").set(
            summary.states_explored / spec.max_states
        )
    return summary


MODELCHECK_KIND = SpecKind(
    name="modelcheck",
    spec_type=ModelCheckSpec,
    summary_type=ModelCheckSummary,
    execute=_execute,
    decode=ModelCheckSummary.from_json_dict,
    json_tag="modelcheck",
    make_sink=ModelCheckSink,  # the ``repro modelcheck`` table
    # One tiny exhaustive check (for the conformance suite).
    sample_task=lambda: SweepTask("two-phase-commit", ModelCheckSpec(n_sites=2)),
)
