"""Streaming aggregation of model-checking sweeps.

:class:`ModelCheckSink` lives with the MODELCHECK kind (not in
:mod:`repro.engine.sink`) for the same layering reason as
:class:`~repro.txn.sink.ThroughputSink`: the engine, the CLI and ``repro
merge`` obtain it through the kind's ``make_sink`` factory, so the engine's
sink module needs no knowledge of this package.  It obeys the sink
invariants (task-order delivery, exactly-once, bounded state): one row per
(protocol, fault envelope, n_sites) in first-seen task order.
"""

from __future__ import annotations

from typing import Any

from repro.engine.sink import SummarySink
from repro.modelcheck.summary import INVARIANTS, ModelCheckSummary


class ModelCheckSink(SummarySink):
    """The ``repro modelcheck`` table: one row per checked configuration.

    Folds :class:`~repro.modelcheck.summary.ModelCheckSummary` records
    (other record types are ignored, so mixed streams are safe) into
    O(configurations) state: states/edges explored, frontier depth and the
    per-invariant verdicts, plus the shape (length) of the minimal
    counterexample when an invariant fails.
    """

    def __init__(self) -> None:
        self.rows_by_key: dict[tuple[str, str, int], dict[str, Any]] = {}

    def accept(self, index: int, summary) -> None:
        if not isinstance(summary, ModelCheckSummary):
            return
        key = (summary.protocol, summary.fault, summary.n_sites)
        row = self.rows_by_key.setdefault(
            key,
            {
                "protocol": summary.protocol,
                "fault": summary.fault,
                "sites": summary.n_sites,
                "states": 0,
                "edges": 0,
                "depth": 0,
                "runs": 0,
            },
        )
        row["runs"] += 1
        row["states"] = max(row["states"], summary.states_explored)
        row["edges"] = max(row["edges"], summary.edges_explored)
        row["depth"] = max(row["depth"], summary.frontier_depth)
        for name, _, column in INVARIANTS:
            verdict = summary.invariants.get(name, "?")
            if verdict == "violated":
                steps = len(summary.counterexample(name))
                verdict = f"violated@{steps}"
            # A violation seen by any run of the configuration sticks.
            if not str(row.get(column, "")).startswith("violated"):
                row[column] = verdict
        if not summary.complete:
            row["fault"] = summary.fault + " (truncated)"

    def rows(self) -> list[dict[str, Any]]:
        """One table row per checked configuration, in first-seen order."""
        return [dict(row) for row in self.rows_by_key.values()]
