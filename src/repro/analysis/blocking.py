"""Blocking and lock-retention analysis.

Blocking is the availability failure the paper sets out to remove: a blocked
transaction "cannot relinquish the locks acquired ... rendering those data
inaccessible to other transactions" (Section 2).  The report below measures
how often each protocol blocks and for how long data stays locked, which is
what the AVAIL experiment compares across protocols.

The report only folds: blocking and lock-hold time are read from each
run's :class:`~repro.protocols.runner.RunSummary` (the one type that
defines them), whether it is a full in-process result or an engine record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.protocols.runner import RunSummary


@dataclass
class BlockingReport:
    """Blocking statistics over a batch of runs of one protocol.

    The report keeps running aggregates (counts, sums, maxima), never the
    per-run values themselves, so it folds a streamed million-scenario sweep
    in constant memory -- it is the reduction behind the engine's
    :class:`~repro.engine.sink.BlockingSink`.
    """

    protocol: str
    total_runs: int = 0
    blocked_runs: int = 0
    blocked_site_count: int = 0
    runs_with_locks_held_at_end: int = 0
    lock_hold_time_sum: float = 0.0
    lock_hold_samples: int = 0
    decision_latency_sum: float = 0.0
    decision_latency_max: Optional[float] = None
    decision_latency_samples: int = 0

    @property
    def blocking_rate(self) -> float:
        """Fraction of runs with at least one blocked site."""
        return self.blocked_runs / self.total_runs if self.total_runs else 0.0

    @property
    def mean_blocked_sites(self) -> float:
        """Average number of blocked sites per run."""
        return self.blocked_site_count / self.total_runs if self.total_runs else 0.0

    @property
    def mean_decision_latency(self) -> Optional[float]:
        """Mean time to the slowest decision, over runs where everyone decided."""
        if not self.decision_latency_samples:
            return None
        return self.decision_latency_sum / self.decision_latency_samples

    @property
    def max_decision_latency(self) -> Optional[float]:
        """Worst time to the slowest decision over the batch."""
        return self.decision_latency_max

    @property
    def mean_lock_hold_time(self) -> Optional[float]:
        """Mean total lock-hold time per run (simulated time units)."""
        if not self.lock_hold_samples:
            return None
        return self.lock_hold_time_sum / self.lock_hold_samples

    def observe(self, result: RunSummary) -> None:
        """Fold one run's summary into the report.

        A report constructed with the ``"unknown"`` placeholder protocol
        takes its name from the first observed run.
        """
        if self.total_runs == 0 and self.protocol == "unknown":
            self.protocol = result.protocol
        self.total_runs += 1
        if result.blocked:
            self.blocked_runs += 1
        self.blocked_site_count += len(result.blocked_sites)
        if any(result.locks_held_at_end.values()):
            self.runs_with_locks_held_at_end += 1
        self.lock_hold_time_sum += result.lock_hold_time
        self.lock_hold_samples += 1
        latency = result.max_decision_latency()
        if latency is not None and not result.blocked:
            self.decision_latency_sum += latency
            self.decision_latency_samples += 1
            if self.decision_latency_max is None or latency > self.decision_latency_max:
                self.decision_latency_max = latency

    def summary(self) -> str:
        """One-line report used by the availability bench."""
        latency = self.max_decision_latency
        latency_text = f"{latency:.1f}" if latency is not None else "n/a"
        return (
            f"{self.protocol}: blocking rate {self.blocking_rate:.1%}, "
            f"mean blocked sites {self.mean_blocked_sites:.2f}, "
            f"worst decision latency {latency_text}"
        )


def blocking_report(
    results: Iterable[RunSummary],
    *,
    protocol: Optional[str] = None,
) -> BlockingReport:
    """Fold a batch of runs into a :class:`BlockingReport`."""
    report = BlockingReport(protocol=protocol or "unknown")
    for result in results:
        report.observe(result)
    return report
