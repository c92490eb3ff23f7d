"""The concurrent-workload throughput kind: one row of the spec-kind table.

One :class:`~repro.txn.runner.ThroughputSpec` offers a stream of
transactions to one cluster under one protocol and reduces to a
:class:`~repro.txn.summary.ThroughputSummary` (payloads tagged
``"kind": "throughput"``).  It carries the availability
argument of Secs. 1-2: blocking protocols hold locks that terminating ones
release.

:mod:`repro.engine.registry` imports this module on its first lookup; no
other part of :mod:`repro.engine` imports this package.
"""

from __future__ import annotations

from repro.engine.grid import SweepTask
from repro.engine.registry import SpecKind
from repro.txn.runner import ThroughputSpec, run_throughput_scenario
from repro.txn.sink import ThroughputSink
from repro.txn.summary import ThroughputSummary


def _execute(
    protocol: str, spec: ThroughputSpec, *, spec_hash: str
) -> ThroughputSummary:
    """Run one contended workload in a worker and keep only its summary."""
    return run_throughput_scenario(protocol, spec, spec_hash=spec_hash).summary


THROUGHPUT_KIND = SpecKind(
    name="throughput",
    spec_type=ThroughputSpec,
    summary_type=ThroughputSummary,
    execute=_execute,
    decode=ThroughputSummary.from_json_dict,
    json_tag="throughput",
    make_sink=ThroughputSink,  # the ``repro throughput`` table
    # One small contended workload (for the conformance suite).
    sample_task=lambda: SweepTask(
        "two-phase-commit", ThroughputSpec(n_transactions=5, tx_rate=1.0, n_keys=4)
    ),
)
