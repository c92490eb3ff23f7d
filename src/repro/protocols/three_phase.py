"""The three-phase commit protocol (Fig. 3), plain and terminating.

Skeen's non-blocking commit protocol: a buffering prepare phase between the
vote collection and the commit broadcast.  Without a termination protocol it
still blocks when the network partitions (the sites cannot tell what the
other side decided), which is the gap the paper fills.

:class:`TerminatingThreePhaseCommit` is the paper's contribution: Fig. 3's
automata plus the Section 5.3 termination protocol, built by Theorem 10's
construction with ``prepare`` as the promotion message -- the Fig. 8
``w -> c`` relay included -- and, unless switched off, the Section 6
transient-partitioning rule (without it the protocol is only correct for
permanent partitions).
"""

from __future__ import annotations

from repro.core.catalog import three_phase_commit
from repro.protocols.fsa_role import FSAProtocolDefinition


class ThreePhaseCommit(FSAProtocolDefinition):
    """Plain 3PC (no timeouts, no undeliverable handling)."""

    def __init__(self) -> None:
        super().__init__("three-phase-commit", three_phase_commit, augment=False)


class TerminatingThreePhaseCommit(FSAProtocolDefinition):
    """3PC plus the Section 5.3 termination protocol (and the Section 6 rule)."""

    def __init__(self, *, transient_rule: bool = True) -> None:
        suffix = "" if transient_rule else "-no-transient"
        super().__init__(
            f"terminating-three-phase-commit{suffix}",
            three_phase_commit,
            terminate=True,
            transient_rule=transient_rule,
        )
