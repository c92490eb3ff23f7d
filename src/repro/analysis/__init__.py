"""Analysis of protocol executions.

* :mod:`repro.analysis.atomicity` -- the Theorem 9 property over batches of
  runs: a fold that counts each run's verdict class;
* :mod:`repro.analysis.blocking` -- blocking and lock-retention analysis (the
  availability motivation of Sections 1-2), folded the same way;
* :mod:`repro.analysis.timing` -- measurement of the paper's timing bounds
  (Figs. 5, 6, 7 and 9) from execution traces;
* :mod:`repro.analysis.scenarios` -- the partition-scenario axis (onset
  time x simple split; the splits themselves are
  :func:`repro.core.reachability.simple_splits`, the checker's partition
  order) that :class:`repro.engine.grid.ScenarioGrid` sweeps;
* :mod:`repro.analysis.cases` -- construction and classification of the
  Section 6 transient-partitioning cases.

The verdicts themselves are defined in exactly one place,
:class:`repro.protocols.runner.RunSummary`; the reports here only read them.
"""

from repro.analysis.atomicity import AtomicityReport, summarize_runs
from repro.analysis.blocking import BlockingReport, blocking_report
from repro.analysis.cases import CaseScenario, build_case_scenario, classify_run, section6_cases
from repro.analysis.scenarios import simple_partition_schedules
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
    "TimingMeasurement",
    "blocking_report",
    "build_case_scenario",
    "classify_run",
    "measure_master_probe_window",
    "measure_protocol_timeouts",
    "measure_wait_after_timeout_in_p",
    "measure_wait_after_timeout_in_w",
    "section6_cases",
    "simple_partition_schedules",
    "simple_splits",
    "summarize_runs",
]
