"""Theorem 10: generalizing the termination protocol.

Theorem 10 states that *any* master/slave commit protocol can be made
resilient to multisite simple network partitioning provided

1. no local state has both a commit and an abort in its concurrency set
   (Lemma 1's condition),
2. no noncommittable local state has a commit in its concurrency set
   (Lemma 2's condition),
3. undeliverable messages are returned to the senders,
4. network partitioning and site failures never happen concurrently, and
5. masters never fail,

by substituting, for 3PC's ``prepare``, the message ``m`` that moves a slave
from a noncommittable state into a committable state.

:func:`check_theorem10_conditions` verifies the two structural conditions
against the computed concurrency sets (conditions 3-5 are environment
assumptions supplied by the caller), and :func:`derive_termination_plan`
extracts the protocol-specific ingredients -- the promotion message ``m``,
the acknowledgement the slave returns, and the states involved -- from
which :func:`repro.core.relation.compile_termination` builds the
termination protocol's relation entries (terminating 3PC and terminating
quorum commit alike).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.concurrency import ConcurrencyAnalysis, analyze
from repro.core.fsa import CommitProtocolSpec, MASTER, MASTER_ROLE, SLAVE_ROLE, Transition
from repro.core.lemmas import LemmaReport, check_nonblocking_conditions


class GeneralizationError(ValueError):
    """Raised when Theorem 10's construction does not apply to a protocol."""


@dataclass(frozen=True)
class TerminationPlan:
    """The protocol-specific ingredients of the generic termination protocol.

    Attributes:
        promotion_message: the paper's ``m`` -- the master-to-slave message
            whose receipt moves a slave from a noncommittable to a
            committable state (``prepare`` for 3PC, ``pre-commit`` for the
            quorum protocol).
        acknowledgement: the message the slave sends back in that transition
            (``ack`` in both catalogued protocols), used by the master to
            detect that it is still connected to those slaves.
        noncommittable_state: the slave state the promotion leaves.
        committable_state: the slave state the promotion enters.
        commit_message: the final commit broadcast.
        abort_message: the final abort broadcast.
    """

    promotion_message: str
    acknowledgement: Optional[str]
    noncommittable_state: str
    committable_state: str
    commit_message: str = "commit"
    abort_message: str = "abort"


@dataclass
class GeneralizationReport:
    """Outcome of checking Theorem 10's five conditions for a protocol."""

    spec_name: str
    n_sites: int
    lemma_report: LemmaReport
    messages_returned: bool
    no_concurrent_failures: bool
    master_never_fails: bool
    plan: Optional[TerminationPlan] = None
    commit_adjacency_violations: list[str] = field(default_factory=list)

    @property
    def structural_conditions_hold(self) -> bool:
        """Conditions 1-2 (the Lemma 1/2 conditions)."""
        return self.lemma_report.satisfies_both

    @property
    def environment_conditions_hold(self) -> bool:
        """Conditions 3-5 (modelling assumptions supplied by the caller)."""
        return self.messages_returned and self.no_concurrent_failures and self.master_never_fails

    @property
    def applicable(self) -> bool:
        """True when the generic termination construction applies."""
        return (
            self.structural_conditions_hold
            and self.environment_conditions_hold
            and self.plan is not None
            and not self.commit_adjacency_violations
        )


def _promotion_transitions(
    spec: CommitProtocolSpec, analysis: ConcurrencyAnalysis
) -> list[Transition]:
    """Slave transitions from a noncommittable state into a committable state
    triggered by a master message."""
    promotions = []
    for transition in spec.slave.transitions:
        if transition.read.source != MASTER:
            continue
        # The promotion lands in a *buffering* committable state: a final
        # commit state is not a candidate (the direct w->c transition added
        # by Fig. 8 exists only so the termination protocol can relay
        # commits, it is not the message m of Theorem 10's proof).
        if spec.slave.is_final(transition.target):
            continue
        source_committable = analysis.is_committable(SLAVE_ROLE, transition.source)
        target_committable = analysis.is_committable(SLAVE_ROLE, transition.target)
        if not source_committable and target_committable:
            promotions.append(transition)
    return promotions


def _commit_adjacency_violations(
    spec: CommitProtocolSpec, analysis: ConcurrencyAnalysis
) -> list[str]:
    """Check Theorem 10's proof obligation on states adjacent to commit states.

    "The only adjacent states of a commit state must be committable states
    and these committable states cannot be adjacent to an abort state."
    """
    violations: list[str] = []
    for role in (MASTER_ROLE, SLAVE_ROLE):
        automaton = spec.automaton(role)
        for commit_state in automaton.commit_states:
            for transition in automaton.transitions:
                if transition.target != commit_state:
                    continue
                predecessor = transition.source
                if not analysis.is_committable(role, predecessor):
                    violations.append(
                        f"{role}:{predecessor} precedes commit state {commit_state} "
                        "but is not committable"
                    )
                    continue
                for follow_on in automaton.transitions_from(predecessor):
                    if follow_on.target in automaton.abort_states:
                        violations.append(
                            f"{role}:{predecessor} is committable but can still abort "
                            f"via {follow_on}"
                        )
    return violations


def derive_termination_plan(
    spec: CommitProtocolSpec,
    n_sites: int = 3,
    *,
    analysis: Optional[ConcurrencyAnalysis] = None,
) -> TerminationPlan:
    """Extract the promotion message ``m`` and friends for ``spec``.

    Raises :class:`GeneralizationError` when no unique promotion message
    exists (which also means Theorem 10's construction does not apply).
    """
    analysis = analysis if analysis is not None else analyze(spec, n_sites)
    promotions = _promotion_transitions(spec, analysis)
    if not promotions:
        raise GeneralizationError(
            f"{spec.name} has no master message moving a slave from a noncommittable "
            "state to a committable state; Theorem 10's construction does not apply"
        )
    kinds = {transition.read.kind for transition in promotions}
    if len(kinds) > 1:
        raise GeneralizationError(
            f"{spec.name} has several candidate promotion messages {sorted(kinds)}; "
            "the construction requires a single message m"
        )
    promotion = promotions[0]
    acknowledgement = promotion.sends[0].kind if promotion.sends else None
    return TerminationPlan(
        promotion_message=promotion.read.kind,
        acknowledgement=acknowledgement,
        noncommittable_state=promotion.source,
        committable_state=promotion.target,
    )


def check_theorem10_conditions(
    spec: CommitProtocolSpec,
    n_sites: int = 3,
    *,
    messages_returned: bool = True,
    no_concurrent_failures: bool = True,
    master_never_fails: bool = True,
    analysis: Optional[ConcurrencyAnalysis] = None,
) -> GeneralizationReport:
    """Evaluate all five Theorem 10 conditions for ``spec``.

    The structural conditions (1-2) and the commit-adjacency obligation are
    computed from the protocol's reachable global states; the environment
    conditions (3-5) are passed in by the caller because they describe the
    deployment, not the protocol.
    """
    analysis = analysis if analysis is not None else analyze(spec, n_sites)
    lemma_report = check_nonblocking_conditions(spec, n_sites, analysis=analysis)
    report = GeneralizationReport(
        spec_name=spec.name,
        n_sites=n_sites,
        lemma_report=lemma_report,
        messages_returned=messages_returned,
        no_concurrent_failures=no_concurrent_failures,
        master_never_fails=master_never_fails,
        commit_adjacency_violations=_commit_adjacency_violations(spec, analysis),
    )
    if lemma_report.satisfies_both:
        try:
            report.plan = derive_termination_plan(spec, n_sites, analysis=analysis)
        except GeneralizationError:
            report.plan = None
    return report
