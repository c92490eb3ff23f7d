"""Transient network partitioning (Section 6).

A partition is *transient* when the network recovers before all transactions
affected by the partition have terminated.  Section 6 enumerates every way a
simple partition can interleave with the three-phase commit protocol,
derives the worst-case time a slave that timed out in state ``p`` may have
to wait for an UD(probe) / commit / abort in each case, and observes that
only case (3.2.2.2) is unbounded -- which justifies the fix: a slave that
has waited ``5T`` in state ``p`` without hearing anything commits.

This module provides the case taxonomy and the paper's bound table; the
rule itself is compiled into the terminating protocols' relation by
:func:`repro.core.relation.compile_termination` (``transient_rule=True``).
"""

from __future__ import annotations

import enum
import math


class PartitionCase(enum.Enum):
    """Section 6's enumeration of partition/protocol interleavings.

    The member values are the paper's case labels.
    """

    NO_PREPARE_CROSSES = "1"
    SOME_PREPARE_SOME_NOT_ACK_LOST = "2.1"
    SOME_PREPARE_PROBE_LOST = "2.2.1"
    SOME_PREPARE_PROBES_PASS = "2.2.2"
    ALL_PREPARE_ACK_LOST = "3.1"
    ALL_PREPARE_ALL_COMMIT_PASS = "3.2.1"
    ALL_PREPARE_COMMIT_LOST_PROBE_LOST = "3.2.2.1"
    ALL_PREPARE_COMMIT_LOST_PROBES_PASS = "3.2.2.2"

    @property
    def label(self) -> str:
        """The paper's case label, e.g. ``"3.2.2.2"``."""
        return self.value


#: The paper's Section 6 table: worst-case wait (in multiples of T) for a
#: slave to receive an UD(probe), a commit or an abort after timing out in
#: state ``p``.  Cases 1 and 3.2.1 never leave a slave waiting in ``p``
#: (either no prepare was received, or the commit arrives), so the paper
#: does not list them.
WORST_CASE_WAIT_MULTIPLES: dict[PartitionCase, float] = {
    PartitionCase.SOME_PREPARE_SOME_NOT_ACK_LOST: 1.0,
    PartitionCase.SOME_PREPARE_PROBE_LOST: 4.0,
    PartitionCase.SOME_PREPARE_PROBES_PASS: 5.0,
    PartitionCase.ALL_PREPARE_ACK_LOST: 1.0,
    PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBE_LOST: 4.0,
    PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBES_PASS: math.inf,
}


def worst_case_wait(case: PartitionCase, max_delay: float = 1.0) -> float:
    """The paper's bound for ``case`` in absolute time units.

    Returns ``math.inf`` for case (3.2.2.2), the case only the transient
    extension (commit after waiting ``5T``) terminates, and ``0`` for the
    two cases in which no slave ever waits in state ``p``.
    """
    multiple = WORST_CASE_WAIT_MULTIPLES.get(case)
    if multiple is None:
        return 0.0
    if math.isinf(multiple):
        return math.inf
    return multiple * max_delay


def bounded_cases() -> tuple[PartitionCase, ...]:
    """Cases with a finite paper bound (everything except 3.2.2.2)."""
    return tuple(
        case
        for case, multiple in WORST_CASE_WAIT_MULTIPLES.items()
        if not math.isinf(multiple)
    )


def classify_interleaving(
    *,
    prepares_crossed: int,
    prepares_blocked: int,
    acks_blocked: int,
    commits_blocked: int,
    probes_blocked: int,
) -> PartitionCase:
    """Classify a concrete partition interleaving into Section 6's taxonomy.

    Args:
        prepares_crossed: prepare messages that reached slaves across the
            boundary ``B`` (i.e. slaves in ``G2`` that got a prepare).
        prepares_blocked: prepare messages addressed to ``G2`` that bounced.
        acks_blocked: ack messages from ``G2`` slaves that bounced.
        commits_blocked: commit messages addressed to ``G2`` that bounced.
        probes_blocked: probe messages from ``G2`` slaves that bounced.
    """
    if prepares_crossed == 0:
        return PartitionCase.NO_PREPARE_CROSSES
    if prepares_blocked > 0:
        # Case 2: some prepare messages crossed B, some did not.
        if acks_blocked > 0:
            return PartitionCase.SOME_PREPARE_SOME_NOT_ACK_LOST
        if probes_blocked > 0:
            return PartitionCase.SOME_PREPARE_PROBE_LOST
        return PartitionCase.SOME_PREPARE_PROBES_PASS
    # Case 3: every prepare message crossed B.
    if acks_blocked > 0:
        return PartitionCase.ALL_PREPARE_ACK_LOST
    if commits_blocked == 0:
        return PartitionCase.ALL_PREPARE_ALL_COMMIT_PASS
    if probes_blocked > 0:
        return PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBE_LOST
    return PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBES_PASS
