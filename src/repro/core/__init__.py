"""The paper's formal machinery and its primary contribution.

This package contains everything in the paper that is *protocol-independent
reasoning* rather than a timed execution:

* :mod:`repro.core.fsa` -- the Skeen & Stonebraker finite-state-automaton
  model of commit protocols (local states, read/send specifications,
  role automata, protocol specifications);
* :mod:`repro.core.catalog` -- the protocols of Figs. 1, 3 and 8 (two-phase
  commit, three-phase commit, modified three-phase commit) expressed in that
  model;
* :mod:`repro.core.relation` -- the local-step relation compiled from a
  protocol (plus its Rule (a)/(b) tables) and its move table, whose moves
  the simulator's FSA roles take and the explorer enumerates;
* :mod:`repro.core.reachability` -- exhaustive global-state exploration,
  failure-free or under a fault envelope;
* :mod:`repro.core.concurrency` -- concurrency sets ``C(s)``, sender sets
  ``S(s)`` and committable-state classification;
* :mod:`repro.core.rules` -- Rule (a) and Rule (b) augmentation with timeout
  and undeliverable-message transitions (reproducing Fig. 2 mechanically);
* :mod:`repro.core.lemmas` -- the structural checks of Lemma 1 and Lemma 2;
* :mod:`repro.core.termination` -- the decision logic of the termination
  protocol of Section 5.3 (the paper's contribution);
* :mod:`repro.core.transient` -- the Section 6 extension to transient
  partitioning (the 5T rule) and its case taxonomy;
* :mod:`repro.core.generalize` -- Theorem 10's generic construction.
"""

from repro.core import messages
from repro.core.catalog import (
    four_phase_commit,
    modified_three_phase_commit,
    quorum_commit,
    three_phase_commit,
    two_phase_commit,
)
from repro.core.concurrency import ConcurrencyAnalysis, analyze
from repro.core.fsa import (
    CommitProtocolSpec,
    ReadSpec,
    RoleAutomaton,
    SendSpec,
    Transition,
)
from repro.core.lemmas import LemmaReport, check_lemma1, check_lemma2, check_nonblocking_conditions
from repro.core.reachability import GlobalState, ReachabilityResult, explore
from repro.core.rules import AugmentedProtocol, FinalAction, augment_with_rules
from repro.core.termination import (
    MasterTerminationDecision,
    TerminationTimers,
    master_decision,
)
from repro.core.transient import PartitionCase, TransientPolicy, worst_case_wait
from repro.core.generalize import GeneralizationReport, check_theorem10_conditions, derive_termination_plan

__all__ = [
    "AugmentedProtocol",
    "CommitProtocolSpec",
    "ConcurrencyAnalysis",
    "FinalAction",
    "GeneralizationReport",
    "GlobalState",
    "LemmaReport",
    "MasterTerminationDecision",
    "PartitionCase",
    "ReachabilityResult",
    "ReadSpec",
    "RoleAutomaton",
    "SendSpec",
    "TerminationTimers",
    "Transition",
    "TransientPolicy",
    "analyze",
    "augment_with_rules",
    "check_lemma1",
    "check_lemma2",
    "check_nonblocking_conditions",
    "check_theorem10_conditions",
    "derive_termination_plan",
    "explore",
    "four_phase_commit",
    "master_decision",
    "messages",
    "modified_three_phase_commit",
    "quorum_commit",
    "three_phase_commit",
    "two_phase_commit",
    "worst_case_wait",
]
