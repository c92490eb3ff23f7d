"""Experiment harness: one module per paper figure / result.

Every experiment exposes a ``run_*`` function returning a report object with
``rows()`` (tabular data) and ``format()`` (printable text); ``repro run``
prints their tables, the golden-table tests pin them, and the examples reuse
them.  See docs/paper-map.md for the experiment index.
"""

from repro.experiments.harness import ExperimentReport, sweep_protocol
from repro.experiments.fig1_two_phase import run_fig1_two_phase
from repro.experiments.fig2_extended_two_phase import run_fig2_extended_two_phase
from repro.experiments.fig3_three_phase import run_fig3_three_phase
from repro.experiments.fig5_timeouts import run_fig5_timeouts
from repro.experiments.fig6_probe_window import run_fig6_probe_window
from repro.experiments.fig7_wait_in_w import run_fig7_wait_in_w
from repro.experiments.fig8_termination import run_fig8_termination, run_termination_sweep
from repro.experiments.fig9_wait_in_p import run_fig9_wait_in_p
from repro.experiments.lemmas import run_lemma_checks, run_lemma3_sweep
from repro.experiments.modelcheck import (
    run_differential_validation,
    run_modelcheck_verification,
)
from repro.experiments.sec3_counterexamples import run_sec3_counterexamples
from repro.experiments.sec6_cases import run_sec6_cases
from repro.experiments.sec7_assumptions import run_sec7_assumptions
from repro.experiments.thm10_generalization import run_thm10_generalization
from repro.experiments.availability import run_availability_comparison
from repro.experiments.faults import run_fault_survival
from repro.experiments.message_overhead import run_message_overhead
from repro.experiments.multiple_partitioning import run_multiple_partitioning
from repro.experiments.throughput import (
    run_retry_recovery_comparison,
    run_throughput_comparison,
)

__all__ = [
    "ExperimentReport",
    "run_availability_comparison",
    "run_differential_validation",
    "run_fault_survival",
    "run_fig1_two_phase",
    "run_fig2_extended_two_phase",
    "run_fig3_three_phase",
    "run_fig5_timeouts",
    "run_fig6_probe_window",
    "run_fig7_wait_in_w",
    "run_fig8_termination",
    "run_fig9_wait_in_p",
    "run_lemma_checks",
    "run_lemma3_sweep",
    "run_message_overhead",
    "run_modelcheck_verification",
    "run_multiple_partitioning",
    "run_retry_recovery_comparison",
    "run_sec3_counterexamples",
    "run_sec6_cases",
    "run_sec7_assumptions",
    "run_termination_sweep",
    "run_thm10_generalization",
    "run_throughput_comparison",
    "sweep_protocol",
]
