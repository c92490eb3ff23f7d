"""The quorum-commit skeleton and its Theorem 10 termination construction.

:class:`QuorumCommit` runs the failure-free skeleton of Skeen's quorum-based
commit protocol (reference [5] of the paper) on the simulator; like plain
3PC it blocks under partitions.

:class:`TerminatingQuorumCommit` applies Theorem 10: because the protocol
satisfies the Lemma 1/2 conditions, the Section 5.3 termination protocol
carries over by substituting the protocol's own promotion message
(``pre-commit``) for 3PC's ``prepare``.  The promotion message is not
hard-coded -- :func:`repro.core.generalize.derive_termination_plan`
discovers it (once per process, via the compiled plan) and
:func:`repro.core.relation.compile_termination` builds the same termination
entries around it as for terminating 3PC, which is the point of the
Theorem 10 experiment.
"""

from __future__ import annotations

from repro.core.catalog import quorum_commit
from repro.protocols.fsa_role import FSAProtocolDefinition


class QuorumCommit(FSAProtocolDefinition):
    """Plain quorum-commit skeleton (no timeouts, blocks under partitions)."""

    def __init__(self) -> None:
        super().__init__("quorum-commit", quorum_commit, augment=False)


class TerminatingQuorumCommit(FSAProtocolDefinition):
    """Quorum-commit made partition-resilient via Theorem 10's construction."""

    def __init__(self) -> None:
        super().__init__("terminating-quorum-commit", quorum_commit, terminate=True)
