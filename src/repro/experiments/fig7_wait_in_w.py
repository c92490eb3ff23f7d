"""FIG7 -- a slave's wait after timing out in state ``w``.

Fig. 7 bounds by ``6T`` the time a slave that timed out in ``w`` may have to
wait for the commit (relayed by the slave in ``G2`` that received a prepare)
-- which is why the protocol's action for a timeout in ``w`` is "wait a
further 6T, then abort".  The experiment sweeps partition scenarios,
collects every slave that timed out in ``w`` and eventually decided, and
measures the worst wait.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.analysis.timing import TimingMeasurement
from repro.core.termination import TerminationTimers
from repro.engine import ScenarioGrid, SweepEngine
from repro.experiments.harness import ExperimentReport
from repro.protocols.runner import ScenarioSpec
from repro.sim.latency import PerLinkLatency


def run_fig7_wait_in_w(
    n_sites: int = 4,
    *,
    times: Optional[Iterable[float]] = None,
) -> ExperimentReport:
    """Measure the worst wait between a timeout in ``w`` and the decision."""
    report = ExperimentReport(
        experiment="FIG7",
        title="Slave wait after timing out in w (bound 6T)",
    )
    timers = TerminationTimers(max_delay=1.0)
    # Constant-latency sweep plus the skewed-latency scenario in which a
    # G2 slave that never saw a prepare must wait for a relayed commit.
    protocol = "terminating-three-phase-commit"
    skewed = ScenarioSpec(latency=PerLinkLatency(1.0, {(1, n_sites): 1.5}))
    tasks = [
        *ScenarioGrid.from_partition_sweep(protocol, n_sites, times=times),
        *ScenarioGrid.from_partition_sweep(
            protocol, n_sites, times=[3.7, 3.9, 4.1], base_spec=skewed
        ),
    ]
    # Streamed: the fold below only ever holds one summary at a time.
    sweep = SweepEngine().stream(tasks, measures=("wait_in_w",))
    worst = 0.0
    samples = 0
    timed_out_without_decision = 0
    for summary in sweep:
        unit = summary.max_delay
        for wait in summary.metrics["wait_in_w"].values():
            if math.isinf(wait):
                timed_out_without_decision += 1
                continue
            samples += 1
            worst = max(worst, wait / unit)
    measurement = TimingMeasurement(
        name="timeout in w -> decision",
        measured=worst,
        bound=timers.wait_in_w,
        unit=1.0,
    )
    report.table.append(
        {
            "sites": n_sites,
            "slaves that timed out in w": samples,
            "never decided": timed_out_without_decision,
            "worst wait (xT)": f"{measurement.measured_in_t:.2f}",
            "paper bound (xT)": "6.0",
            "within bound": "yes" if measurement.within_bound else "NO",
        }
    )
    report.details = {"measurement": measurement, "samples": samples}
    report.headline = (
        f"No slave that timed out in w waited more than {measurement.measured_in_t:.2f}T for its "
        "decision -- within the 6T window after which the protocol aborts (Fig. 7)."
    )
    return report
