"""Reproduction of Huang & Li (ICDE 1987).

``repro`` implements, end to end, the system described in *"A Termination
Protocol for Simple Network Partitioning in Distributed Database Systems"*
(Ching-Liang Huang and Victor O.K. Li, Proc. 3rd IEEE International
Conference on Data Engineering, 1987, pp. 455-465):

* a deterministic discrete-event simulator of a partitionable network
  (:mod:`repro.sim`),
* a small distributed-database substrate with write-ahead logging, locks and
  recovery (:mod:`repro.db`),
* the formal finite-state-automaton model of commit protocols with
  concurrency sets, sender sets, Rules (a)/(b) and the paper's lemmas
  (:mod:`repro.core`),
* executable commit protocols -- 2PC, extended 2PC, 3PC, the broken
  timeout-only 3PC, the paper's termination protocol, and a quorum baseline
  (:mod:`repro.protocols`),
* analysis tools for atomicity, blocking and worst-case timing
  (:mod:`repro.analysis`),
* workload generators and the experiment harness that regenerates every
  figure and case table in the paper (:mod:`repro.workloads`,
  :mod:`repro.experiments`).

Quickstart::

    from repro.experiments import run_termination_sweep

    report = run_termination_sweep(n_sites=4)
    assert report.atomicity_violations == 0
    assert report.blocked_runs == 0
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
