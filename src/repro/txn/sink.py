"""Streaming aggregation of concurrent-workload throughput sweeps.

:class:`ThroughputSink` lives with the throughput kind (not in
:mod:`repro.engine.sink`) so the engine's sink module needs no knowledge of
this package: the spec-kind table hands the engine, the CLI and ``repro
merge`` this sink through the kind's ``make_sink`` factory.  It obeys the
same sink invariants as every :class:`~repro.engine.sink.SummarySink`
(task-order delivery, exactly-once, bounded state).
"""

from __future__ import annotations

from typing import Any

from repro.engine.sink import SummarySink
from repro.txn.summary import ThroughputSummary


class ThroughputSink(SummarySink):
    """Per-protocol aggregates of concurrent-workload throughput sweeps.

    Folds :class:`~repro.txn.summary.ThroughputSummary` records (other
    record types are ignored, so mixed streams are safe) into O(protocols)
    totals: offered / committed / aborted / blocked counts, goodput, abort
    rate and mean lock wait -- the columns of the ``repro throughput``
    table and the quantities the Section 1-2 availability argument turns
    on.
    """

    _FIELDS = (
        "scenarios",
        "offered",
        "committed",
        "committed_after_retry",
        "aborted",
        "blocked",
        "stalled",
        "violated",
        "retries",
        "deadlocks",
        "lock_timeouts",
        "crashes",
        "recoveries",
        "lock_wait",
        "goodput",
        "peak_in_flight",
    )

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = {}

    def accept(self, index: int, summary) -> None:
        if not isinstance(summary, ThroughputSummary):
            return
        totals = self.totals.setdefault(
            summary.protocol, {name: 0 for name in self._FIELDS}
        )
        totals["scenarios"] += 1
        totals["offered"] += summary.offered
        totals["committed"] += summary.committed
        totals["committed_after_retry"] += summary.committed_after_retry
        totals["aborted"] += summary.aborted
        totals["blocked"] += summary.blocked
        totals["stalled"] += summary.stalled
        totals["violated"] += summary.violated
        totals["retries"] += summary.retries
        totals["deadlocks"] += summary.deadlock_aborts
        totals["lock_timeouts"] += summary.timeout_aborts
        totals["crashes"] += summary.crashes
        totals["recoveries"] += summary.recoveries
        totals["lock_wait"] += summary.lock_wait_total / (summary.max_delay or 1.0)
        totals["goodput"] += summary.goodput
        totals["peak_in_flight"] = max(
            totals["peak_in_flight"], summary.peak_in_flight
        )

    def goodput(self, protocol: str) -> float:
        """Mean goodput (committed per ``T``) across the protocol's scenarios."""
        totals = self.totals.get(protocol)
        if not totals or not totals["scenarios"]:
            return 0.0
        return totals["goodput"] / totals["scenarios"]

    def rows(self) -> list[dict[str, Any]]:
        """One table row per protocol, in first-seen (= task) order."""
        rows = []
        for protocol, totals in self.totals.items():
            offered = totals["offered"] or 1
            rows.append(
                {
                    "protocol": protocol,
                    "scenarios": int(totals["scenarios"]),
                    "offered": int(totals["offered"]),
                    "committed": int(totals["committed"]),
                    "after retry": int(totals["committed_after_retry"]),
                    "aborted": int(totals["aborted"]),
                    "blocked": int(totals["blocked"] + totals["stalled"]),
                    "violations": int(totals["violated"]),
                    "retries": int(totals["retries"]),
                    "deadlocks": int(totals["deadlocks"]),
                    "lock timeouts": int(totals["lock_timeouts"]),
                    "crashes": int(totals["crashes"]),
                    "goodput (/T)": f"{self.goodput(protocol):.3f}",
                    "abort rate": f"{totals['aborted'] / offered:.1%}",
                    "mean lock wait (xT)": f"{totals['lock_wait'] / offered:.2f}",
                    "peak in-flight": int(totals["peak_in_flight"]),
                }
            )
        return rows
