"""AVAIL -- the availability / blocking comparison that motivates the paper.

Sections 1-2 argue that blocking is unacceptable because a blocked
transaction keeps its locks, making data unavailable to every other
transaction.  This experiment quantifies that argument: it runs the same
partition sweep under each protocol and compares blocking rates, lock
retention and decision latency.  Each sweep streams into
:class:`~repro.engine.sink.AtomicitySink` / :class:`~repro.engine.sink.BlockingSink`
aggregators, so the comparison scales to arbitrarily large grids without
materializing summaries.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.engine import AtomicitySink, BlockingSink
from repro.experiments.harness import ExperimentReport, stream_protocol_sinks

DEFAULT_PROTOCOLS: tuple[str, ...] = (
    "two-phase-commit",
    "three-phase-commit",
    "extended-two-phase-commit",
    "naive-extended-three-phase-commit",
    "terminating-three-phase-commit",
)


def run_availability_comparison(
    n_sites: int = 3,
    *,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    times: Optional[Iterable[float]] = None,
) -> ExperimentReport:
    """Compare blocking / lock retention across protocols on the same sweep."""
    report = ExperimentReport(
        experiment="AVAIL",
        title=f"Availability under simple partitions ({n_sites} sites)",
    )
    details = {}
    times = list(times) if times is not None else None
    for protocol in protocols:
        # Each protocol's sweep streams into the two report sinks; no summary
        # list is materialized even for large site counts.
        atomicity_sink = AtomicitySink(protocol=protocol)
        blocking_sink = BlockingSink(protocol=protocol)
        stream_protocol_sinks(
            protocol,
            sinks=(atomicity_sink, blocking_sink),
            n_sites=n_sites,
            times=times,
        )
        blocking = blocking_sink.report
        atomicity = atomicity_sink.report
        details[protocol] = {"blocking": blocking, "atomicity": atomicity}
        worst_latency = blocking.max_decision_latency
        mean_locks = blocking.mean_lock_hold_time
        report.table.append(
            {
                "protocol": protocol,
                "scenarios": blocking.total_runs,
                "blocking rate": f"{blocking.blocking_rate:.1%}",
                "mean blocked sites": f"{blocking.mean_blocked_sites:.2f}",
                "atomicity violations": atomicity.atomicity_violations,
                "mean lock-hold time (xT)": f"{mean_locks:.1f}" if mean_locks is not None else "-",
                "worst decision latency (xT)": (
                    f"{worst_latency:.1f}" if worst_latency is not None else "-"
                ),
            }
        )
    report.details = details
    terminating = details.get("terminating-three-phase-commit")
    blocking_rate = terminating["blocking"].blocking_rate if terminating else 0.0
    report.headline = (
        "The blocking protocols hold locks for the whole horizon whenever a partition strikes, "
        "while the termination protocol terminates every site "
        f"(blocking rate {blocking_rate:.0%}) at the cost of a bounded extra wait."
    )
    return report
