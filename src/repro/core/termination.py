"""Decision logic of the termination protocol (Section 5.3).

This module contains the *pure* logic of the paper's contribution, kept free
of any simulation concerns so that it can be unit-tested and property-tested
directly:

* :class:`TerminationTimers` -- the timeout structure of Figs. 5-7 and 9,
  expressed as multiples of ``T`` (the longest end-to-end propagation
  delay);
* :func:`master_decision` -- Lemma 4's ``N - UD = PB`` rule over the sets
  ``UD`` (slaves whose prepare message bounced) and ``PB`` (slaves that
  probed the master).

The termination protocol itself is a set of relation entries
(:func:`repro.core.relation.compile_termination`): the master's ``UD`` /
``PB`` bookkeeping lives in its per-site variables, and the entry that
closes the probe window calls :func:`master_decision`.  Named timers take
their intervals from :class:`TerminationTimers`; the exhaustive Theorem 9
sweep drives the whole protocol through every partition placement.

Note on the paper's notation: the paper defines ``N`` as the set of *sites*
``{1, ..., n}`` but its Lemma 4 uses ``N - UD = PB`` to compare *slave*
sets ("N - UD = PS = set of all slaves in G1"), and neither ``UD`` nor
``PB`` can ever contain the master.  We therefore implement the rule over
slave sets, which is the only reading under which the protocol and its
correctness proof are consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


class TerminationOutcome(enum.Enum):
    """The decision the termination protocol reaches for a partition group."""

    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True)
class TerminationTimers:
    """All timeout intervals of the paper, in simulated time units.

    Args:
        max_delay: the paper's ``T``.

    The defaults encode Fig. 5 (commit-protocol timeouts), Fig. 6 (master's
    probe-collection window), Fig. 7 (slave's wait after timing out in
    ``w``) and Fig. 9 / Section 6 (slave's wait after timing out in ``p``).
    """

    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_delay <= 0:
            raise ValueError(f"T must be positive, got {self.max_delay}")

    @property
    def master_vote_timeout(self) -> float:
        """Fig. 5: the master waits up to ``2T`` for votes (or acks)."""
        return 2.0 * self.max_delay

    @property
    def slave_timeout(self) -> float:
        """Fig. 5: a slave waits up to ``3T`` for the master's next message."""
        return 3.0 * self.max_delay

    @property
    def probe_window(self) -> float:
        """Fig. 6: the master collects probes for ``5T`` after an UD(prepare)."""
        return 5.0 * self.max_delay

    @property
    def wait_in_w(self) -> float:
        """Fig. 7: a slave that timed out in ``w`` waits ``6T`` for a commit."""
        return 6.0 * self.max_delay

    @property
    def wait_in_p(self) -> float:
        """Fig. 9 / Section 6: a slave that timed out in ``p`` waits ``5T``."""
        return 5.0 * self.max_delay

    def as_dict(self) -> dict[str, float]:
        """All timeouts keyed by name (used in reports)."""
        return {
            "T": self.max_delay,
            "master_vote_timeout": self.master_vote_timeout,
            "slave_timeout": self.slave_timeout,
            "probe_window": self.probe_window,
            "wait_in_w": self.wait_in_w,
            "wait_in_p": self.wait_in_p,
        }


@dataclass(frozen=True)
class MasterTerminationDecision:
    """The master's decision for its partition ``G1``, with its justification."""

    outcome: TerminationOutcome
    undeliverable: frozenset[int]
    probed: frozenset[int]
    expected_probers: frozenset[int]
    reason: str

    @property
    def commits(self) -> bool:
        """True when the decision is to commit ``G1``."""
        return self.outcome is TerminationOutcome.COMMIT


def master_decision(
    slaves: Iterable[int],
    undeliverable: Iterable[int],
    probed: Iterable[int],
) -> MasterTerminationDecision:
    """The Section 5.3 master rule.

    "If the probe messages that the master received are sent by exactly
    those slaves that do not have an undeliverable prepare message returned
    to the master, then there is no prepare message flowing through boundary
    B and the master can safely abort all the slaves in G1; else there is at
    least one prepare message flowing through boundary B and the master can
    safely commit all the slaves in G1."

    Args:
        slaves: all slaves of the transaction (the paper's ``N`` minus the
            master).
        undeliverable: the paper's ``UD`` -- slaves whose prepare bounced.
        probed: the paper's ``PB`` -- slaves whose probe the master received.
    """
    slave_set = frozenset(slaves)
    ud_set = frozenset(undeliverable) & slave_set
    pb_set = frozenset(probed) & slave_set
    expected = slave_set - ud_set
    if expected == pb_set:
        outcome = TerminationOutcome.ABORT
        reason = (
            "probes received from exactly the slaves whose prepare was delivered; "
            "no prepare crossed the boundary, G2 will abort, so G1 aborts"
        )
    else:
        outcome = TerminationOutcome.COMMIT
        reason = (
            "probe set differs from the reachable-slave set; some slave in G2 "
            "received a prepare and will commit G2, so G1 commits"
        )
    return MasterTerminationDecision(
        outcome=outcome,
        undeliverable=ud_set,
        probed=pb_set,
        expected_probers=expected,
        reason=reason,
    )
