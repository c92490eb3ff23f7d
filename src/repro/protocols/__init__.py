"""Executable commit protocols running on the simulator and database substrate.

Every protocol of the paper's set is one row of the protocol table
(:mod:`repro.protocols.registry`): a formal spec from
:mod:`repro.core.catalog` plus exactly one
:class:`~repro.protocols.plan.Extension` -- none, Rule (a)/(b), or the
Section 5.3 termination protocol with or without the Section 6 transient
rule -- compiled into one local-step relation and its move table, which one
role class steps by:

* :mod:`repro.protocols.registry` -- the table of eight
  :class:`~repro.protocols.registry.Protocol` rows and name-based lookup;
* :mod:`repro.protocols.plan` -- the per-process compiled plan (spec,
  Rule (a)/(b) tables or Theorem 10 plan, local-step relation, move table)
  every role of a row shares;
* :mod:`repro.protocols.fsa_role` -- :class:`~repro.protocols.fsa_role.FSARole`,
  the one role class;
* :mod:`repro.protocols.base` -- the context a role is built from, the
  messages it exchanges and the decision it reaches;
* :mod:`repro.protocols.runner` -- the scenario runner shared by tests,
  examples and benchmarks.

``docs/paper-map.md`` maps each row to its figure or section.
"""

from repro.protocols.base import Decision, ProtocolContext, ProtocolMessage
from repro.protocols.plan import Extension
from repro.protocols.registry import Protocol, available_protocols, create_protocol
from repro.protocols.runner import ScenarioSpec, TransactionRunResult, run_scenario

__all__ = [
    "Decision",
    "Extension",
    "Protocol",
    "ProtocolContext",
    "ProtocolMessage",
    "ScenarioSpec",
    "TransactionRunResult",
    "available_protocols",
    "create_protocol",
    "run_scenario",
]
