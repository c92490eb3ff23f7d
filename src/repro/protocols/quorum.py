"""The quorum-commit skeleton and its Theorem 10 termination construction.

:class:`QuorumCommit` runs the failure-free skeleton of Skeen's quorum-based
commit protocol (reference [5] of the paper) on the simulator; like plain
3PC it blocks under partitions.

:class:`TerminatingQuorumCommit` applies Theorem 10: because the protocol
satisfies the Lemma 1/2 conditions, the Section 5.3 termination protocol
carries over by substituting the protocol's own promotion message
(``pre-commit``) for 3PC's ``prepare``.  The promotion message is not
hard-coded -- it is discovered by
:func:`repro.core.generalize.derive_termination_plan` (once per process, via
the compiled plan), which is the point of the Theorem 10 experiment.
"""

from __future__ import annotations

from repro.core.catalog import quorum_commit
from repro.protocols.base import ProtocolContext
from repro.protocols.fsa_role import FSAProtocolDefinition
from repro.protocols.plan import compiled_plan
from repro.protocols.three_phase_terminating import (
    TerminatingMasterRole,
    TerminatingSlaveRole,
)

#: Theorem 10's promotion message is a property of the role automata, not of
#: the cluster size, so it is derived on the smallest multi-slave instance.
_DERIVATION_SITES = 3


class QuorumCommit(FSAProtocolDefinition):
    """Plain quorum-commit skeleton (no timeouts, blocks under partitions)."""

    def __init__(self) -> None:
        super().__init__("quorum-commit", quorum_commit, augment=False)


class TerminatingQuorumCommit:
    """Quorum-commit made partition-resilient via Theorem 10's construction."""

    def __init__(self, *, transient_rule: bool = True) -> None:
        self.name = "terminating-quorum-commit"
        self.transient_rule = transient_rule

    @property
    def promotion_kind(self) -> str:
        """The message m selected by the generic construction (``pre-commit``)."""
        plan = compiled_plan(self.name, _DERIVATION_SITES, quorum_commit, terminate=True)
        return plan.termination.promotion_message

    def coordinator(self, ctx: ProtocolContext) -> TerminatingMasterRole:
        """Build the master role."""
        ctx.transient_rule = self.transient_rule
        return TerminatingMasterRole(ctx, promotion_kind=self.promotion_kind)

    def participant(self, ctx: ProtocolContext) -> TerminatingSlaveRole:
        """Build a slave role."""
        ctx.transient_rule = self.transient_rule
        return TerminatingSlaveRole(ctx, promotion_kind=self.promotion_kind)
