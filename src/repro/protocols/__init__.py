"""Executable commit protocols running on the simulator and database substrate.

Each protocol provides a coordinator (master) role and a participant (slave)
role that the scenario runner attaches to simulated sites.  Every protocol
is a formal spec plus, optionally, the Rule (a)/(b) augmentation or
Theorem 10's termination construction, compiled into one local-step
relation and its move table, which one role class steps by:

* :mod:`repro.protocols.two_phase` -- plain 2PC (Fig. 1), blocking;
* :mod:`repro.protocols.extended_two_phase` -- 2PC augmented with the
  Rule (a)/(b) timeout and undeliverable-message transitions (Fig. 2);
* :mod:`repro.protocols.three_phase` -- plain 3PC (Fig. 3), blocking under
  partitions, and the paper's contribution: 3PC plus the Section 5.3
  termination protocol (the Fig. 8 ``w -> c`` relay included), with the
  optional Section 6 transient-partitioning rule;
* :mod:`repro.protocols.three_phase_naive` -- 3PC augmented with Rule (a)/(b)
  only (the Section 3 negative result);
* :mod:`repro.protocols.quorum` -- the quorum-commit skeleton, plain and with
  the Theorem 10 termination construction;
* :mod:`repro.protocols.fsa_role` -- :class:`~repro.protocols.fsa_role.FSARole`,
  the one role class, and the definition every protocol is;
* :mod:`repro.protocols.plan` -- the per-process compiled plan (spec,
  Rule (a)/(b) tables or Theorem 10 plan, local-step relation, move table)
  every role of a protocol shares;
* :mod:`repro.protocols.runner` -- the scenario runner shared by tests,
  examples and benchmarks;
* :mod:`repro.protocols.registry` -- name-based protocol lookup.
"""

from repro.protocols.base import (
    Decision,
    ProtocolContext,
    ProtocolDefinition,
    ProtocolMessage,
    RoleBase,
)
from repro.protocols.extended_two_phase import ExtendedTwoPhaseCommit
from repro.protocols.quorum import QuorumCommit, TerminatingQuorumCommit
from repro.protocols.registry import available_protocols, create_protocol
from repro.protocols.runner import ScenarioSpec, TransactionRunResult, run_scenario
from repro.protocols.three_phase import TerminatingThreePhaseCommit, ThreePhaseCommit
from repro.protocols.three_phase_naive import NaiveExtendedThreePhaseCommit
from repro.protocols.two_phase import TwoPhaseCommit

__all__ = [
    "Decision",
    "ExtendedTwoPhaseCommit",
    "NaiveExtendedThreePhaseCommit",
    "ProtocolContext",
    "ProtocolDefinition",
    "ProtocolMessage",
    "QuorumCommit",
    "RoleBase",
    "ScenarioSpec",
    "TerminatingQuorumCommit",
    "TerminatingThreePhaseCommit",
    "ThreePhaseCommit",
    "TransactionRunResult",
    "TwoPhaseCommit",
    "available_protocols",
    "create_protocol",
    "run_scenario",
]
