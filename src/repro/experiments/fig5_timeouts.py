"""FIG5 -- the commit protocol's own timeout intervals.

Fig. 5 derives the timeout intervals of the (three-phase) commit protocol:
the master needs to wait at most ``2T`` for the responses to a command and a
slave at most ``3T`` for the master's next command.  The experiment measures
both quantities over failure-free runs for several system sizes and latency
models and compares them against the bounds (the measured values must never
exceed them; with every message taking exactly ``T`` they are tight).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.timing import TimingMeasurement
from repro.core.termination import TerminationTimers
from repro.engine import SweepEngine, SweepTask
from repro.experiments.harness import ExperimentReport
from repro.protocols.runner import ScenarioSpec
from repro.sim.latency import ConstantLatency, UniformLatency


def run_fig5_timeouts(site_counts: Sequence[int] = (3, 4, 6)) -> ExperimentReport:
    """Measure the Fig. 5 round-trip and inter-command waits."""
    report = ExperimentReport(
        experiment="FIG5",
        title="Commit-protocol timeout intervals (master 2T, slave 3T)",
    )
    cases = [
        (n_sites, label, latency)
        for n_sites in site_counts
        for label, latency in (
            ("constant T", ConstantLatency(1.0)),
            ("uniform [0.25T, T]", UniformLatency(0.25, 1.0)),
        )
    ]
    tasks = [
        SweepTask(
            protocol="terminating-three-phase-commit",
            spec=ScenarioSpec(n_sites=n_sites, latency=latency, seed=n_sites),
        )
        for n_sites, _, latency in cases
    ]
    # Streamed execution: summaries arrive in task order, one at a time, so
    # they pair with `cases` without materializing a result list.
    sweep = SweepEngine().stream(tasks, measures=("timeouts",))
    measurements: list[TimingMeasurement] = []
    for (n_sites, label, latency), summary in zip(cases, sweep):
        timers = TerminationTimers(max_delay=latency.upper_bound)
        waits = summary.metrics["timeouts"]
        master = TimingMeasurement(
            name=f"master round trip (n={n_sites}, {label})",
            measured=waits["master_round_trip"] or 0.0,
            bound=timers.master_vote_timeout,
            unit=latency.upper_bound,
        )
        slave = TimingMeasurement(
            name=f"slave wait for next command (n={n_sites}, {label})",
            measured=waits["slave_wait"] or 0.0,
            bound=timers.slave_timeout,
            unit=latency.upper_bound,
        )
        measurements.extend([master, slave])
        report.table.append(
            {
                "sites": n_sites,
                "latency model": label,
                "master round trip (xT)": f"{master.measured_in_t:.2f}",
                "master bound (xT)": "2.0",
                "slave wait (xT)": f"{slave.measured_in_t:.2f}",
                "slave bound (xT)": "3.0",
                "within bounds": "yes" if master.within_bound and slave.within_bound else "NO",
            }
        )
    report.details = {"measurements": measurements}
    worst_master = max(m.measured_in_t for m in measurements if m.name.startswith("master"))
    worst_slave = max(m.measured_in_t for m in measurements if m.name.startswith("slave"))
    report.headline = (
        f"Worst measured master round trip {worst_master:.2f}T (bound 2T) and slave wait "
        f"{worst_slave:.2f}T (bound 3T): the Fig. 5 timeout intervals are sufficient and tight "
        "when every message takes the maximum delay."
    )
    return report
