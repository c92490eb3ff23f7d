"""Analysis of protocol executions.

* :mod:`repro.analysis.atomicity` -- atomicity / consistency verdicts over
  batches of runs (the Theorem 9 property);
* :mod:`repro.analysis.blocking` -- blocking and lock-retention analysis (the
  availability motivation of Sections 1-2);
* :mod:`repro.analysis.timing` -- measurement of the paper's timing bounds
  (Figs. 5, 6, 7 and 9) from execution traces;
* :mod:`repro.analysis.scenarios` -- systematic partition-scenario
  generation (sweeps over partition time, split and votes; the splits
  themselves are :func:`repro.core.reachability.simple_splits`, the
  checker's partition order);
* :mod:`repro.analysis.cases` -- construction and classification of the
  Section 6 transient-partitioning cases.
"""

from repro.analysis.atomicity import AtomicityReport, check_atomicity, summarize_runs
from repro.analysis.blocking import BlockingReport, blocking_report
from repro.analysis.cases import CaseScenario, build_case_scenario, classify_run, section6_cases
from repro.analysis.scenarios import (
    ScenarioGrid,
    partition_sweep,
    simple_partition_schedules,
)
from repro.analysis.timing import (
    TimingMeasurement,
    measure_master_probe_window,
    measure_protocol_timeouts,
    measure_wait_after_timeout_in_p,
    measure_wait_after_timeout_in_w,
)
from repro.core.reachability import simple_splits

__all__ = [
    "AtomicityReport",
    "BlockingReport",
    "CaseScenario",
    "ScenarioGrid",
    "TimingMeasurement",
    "blocking_report",
    "build_case_scenario",
    "check_atomicity",
    "classify_run",
    "measure_master_probe_window",
    "measure_protocol_timeouts",
    "measure_wait_after_timeout_in_p",
    "measure_wait_after_timeout_in_w",
    "partition_sweep",
    "section6_cases",
    "simple_partition_schedules",
    "simple_splits",
    "summarize_runs",
]
