"""Atomicity verdicts over batches of scenario runs.

A commit protocol is *resilient* to a class of failures only if it enforces
transaction atomicity and is nonblocking for every failure in the class
(Section 2).  :func:`summarize_runs` folds a batch of runs into exactly
that verdict, plus the witnesses needed to understand a failure.  The fold
computes nothing itself: it counts each run's
:attr:`~repro.protocols.runner.RunSummary.verdict` class, so a run is
violated, blocked or consistent -- never two of them -- and the counts add
up to the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.protocols.runner import RunSummary


@dataclass
class AtomicityReport:
    """Aggregate verdict over a batch of runs of one protocol.

    ``atomicity_violations`` and ``blocked_runs`` count runs by verdict
    class; a run that mixed outcomes *and* left a site undecided counts as a
    violation only.
    """

    protocol: str
    total_runs: int = 0
    atomicity_violations: int = 0
    blocked_runs: int = 0
    committed_runs: int = 0
    aborted_runs: int = 0
    store_divergences: int = 0
    violation_witnesses: list[str] = field(default_factory=list)
    blocking_witnesses: list[str] = field(default_factory=list)

    @property
    def consistent_runs(self) -> int:
        """Runs that terminated everywhere with a single outcome."""
        return self.total_runs - self.atomicity_violations - self.blocked_runs

    @property
    def resilient(self) -> bool:
        """The Section 2 resilience property over the batch."""
        return self.atomicity_violations == 0 and self.blocked_runs == 0

    @property
    def violation_rate(self) -> float:
        """Fraction of runs that violated atomicity."""
        return self.atomicity_violations / self.total_runs if self.total_runs else 0.0

    @property
    def blocking_rate(self) -> float:
        """Fraction of runs classed blocked (a site undecided, no violation)."""
        return self.blocked_runs / self.total_runs if self.total_runs else 0.0

    def summary(self) -> str:
        """One-line verdict used by the benches."""
        verdict = "resilient" if self.resilient else "NOT resilient"
        return (
            f"{self.protocol}: {self.total_runs} runs, "
            f"{self.atomicity_violations} atomicity violations, "
            f"{self.blocked_runs} blocked runs -> {verdict}"
        )

    def observe(self, result: RunSummary, *, max_witnesses: int = 5) -> None:
        """Fold one run's summary into the report.

        This is the single-pass reduction behind :func:`summarize_runs`; the
        engine's :class:`~repro.engine.sink.AtomicitySink` calls it once per
        streamed summary, so a million-scenario sweep aggregates in O(1)
        memory.  A report constructed with the ``"unknown"`` placeholder
        protocol takes its name from the first observed run.
        """
        if self.total_runs == 0 and self.protocol == "unknown":
            self.protocol = result.protocol
        self.total_runs += 1
        verdict = result.verdict
        if verdict == "violated":
            self.atomicity_violations += 1
            if len(self.violation_witnesses) < max_witnesses:
                self.violation_witnesses.append(result.summary())
        elif verdict == "blocked":
            self.blocked_runs += 1
            if len(self.blocking_witnesses) < max_witnesses:
                self.blocking_witnesses.append(result.summary())
        if result.all_committed:
            self.committed_runs += 1
        if result.all_aborted:
            self.aborted_runs += 1
        if not result.stores_agree:
            self.store_divergences += 1


def summarize_runs(
    results: Iterable[RunSummary],
    *,
    protocol: Optional[str] = None,
    max_witnesses: int = 5,
) -> AtomicityReport:
    """Fold a batch of runs into an :class:`AtomicityReport`."""
    report = AtomicityReport(protocol=protocol or "unknown")
    for result in results:
        report.observe(result, max_witnesses=max_witnesses)
    return report
