"""FIG9 -- a slave's wait after timing out in state ``p``.

Fig. 9 bounds by ``5T`` the time a slave that timed out in ``p`` (and sent
its probe) may have to wait for an UD(probe), a commit or an abort -- in
every case except (3.2.2.2), which is unbounded and is handled by the
Section 6 transient rule.  The experiment sweeps permanent-partition
scenarios (where case 3.2.2.2 cannot arise) and measures the worst wait.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.analysis.timing import TimingMeasurement, measure_wait_after_timeout_in_p
from repro.core.termination import TerminationTimers
from repro.experiments.harness import ExperimentReport, partition_grid, traced_runs


def run_fig9_wait_in_p(
    n_sites: int = 4,
    *,
    times: Optional[Iterable[float]] = None,
) -> ExperimentReport:
    """Measure the worst wait between a timeout in ``p`` and the decision."""
    report = ExperimentReport(
        experiment="FIG9",
        title="Slave wait after timing out in p (bound 5T for permanent partitions)",
    )
    timers = TerminationTimers(max_delay=1.0)
    worst = 0.0
    samples = 0
    blocked = 0
    # The non-transient protocol isolates the Fig. 9 bound itself: the 5T
    # fallback timer of Section 6 must never be what terminates a slave under
    # a *permanent* partition.
    grid = partition_grid(
        "terminating-three-phase-commit-no-transient", n_sites=n_sites, times=times
    )
    for result in traced_runs(grid):
        unit = result.max_delay
        for wait in measure_wait_after_timeout_in_p(result).values():
            if math.isinf(wait):
                blocked += 1
                continue
            samples += 1
            worst = max(worst, wait / unit)
    measurement = TimingMeasurement(
        name="timeout in p -> UD(probe)/commit/abort",
        measured=worst,
        bound=timers.wait_in_p,
        unit=1.0,
    )
    report.table.append(
        {
            "sites": n_sites,
            "slaves that timed out in p": samples,
            "never decided": blocked,
            "worst wait (xT)": f"{measurement.measured_in_t:.2f}",
            "paper bound (xT)": "5.0",
            "within bound": "yes" if measurement.within_bound else "NO",
        }
    )
    report.details = {"measurement": measurement, "samples": samples, "blocked": blocked}
    report.headline = (
        f"Under permanent simple partitions every slave that timed out in p heard an UD(probe), "
        f"commit or abort within {measurement.measured_in_t:.2f}T (bound 5T, Fig. 9); only the "
        "transient case 3.2.2.2 can exceed it."
    )
    return report
