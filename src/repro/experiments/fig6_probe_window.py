"""FIG6 -- the master's probe-collection window.

Fig. 6 argues that ``5T`` after receiving an undeliverable prepare message
the master has received every probe it is ever going to receive, so closing
the window then is safe.  The experiment sweeps partition scenarios that
open the window and measures the longest gap between the window opening and
the last probe arriving.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.timing import TimingMeasurement, measure_master_probe_window
from repro.core.termination import TerminationTimers
from repro.experiments.harness import ExperimentReport, partition_grid, traced_runs


def run_fig6_probe_window(
    n_sites: int = 4,
    *,
    times: Optional[Iterable[float]] = None,
) -> ExperimentReport:
    """Measure the worst observed UD(prepare) -> last probe gap."""
    report = ExperimentReport(
        experiment="FIG6",
        title="Master probe-collection window after an undeliverable prepare (bound 5T)",
    )
    timers = TerminationTimers(max_delay=1.0)
    grid = partition_grid("terminating-three-phase-commit", n_sites=n_sites, times=times)
    worst = 0.0
    windows = 0
    probes_seen = 0
    for result in traced_runs(grid):
        if result.trace.first("probe-window-open") is not None:
            windows += 1
        gap = measure_master_probe_window(result)
        if gap is None:
            continue
        probes_seen += 1
        worst = max(worst, gap)
    measurement = TimingMeasurement(
        name="UD(prepare) -> last probe at master",
        measured=worst,
        bound=timers.probe_window,
        unit=1.0,
    )
    report.table.append(
        {
            "sites": n_sites,
            "scenarios with a probe window": windows,
            "windows that received probes": probes_seen,
            "worst gap (xT)": f"{measurement.measured_in_t:.2f}",
            "paper bound (xT)": "5.0",
            "within bound": "yes" if measurement.within_bound else "NO",
        }
    )
    report.details = {"measurement": measurement, "windows": windows}
    report.headline = (
        f"The master never received a probe later than {measurement.measured_in_t:.2f}T after its "
        "first undeliverable prepare -- within the 5T window the protocol waits (Fig. 6)."
    )
    return report
