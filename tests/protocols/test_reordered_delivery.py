"""Messages that overtake ``xact`` on a reordering link.

With a reordering :class:`LinkFault` on the master -> site 2 link, site 3
voting no and seed 0, the master's ``xact`` to site 2 is held back: the
timed protocols see site 2 time out in ``q`` before it arrives, and the
untimed ones see the master's ``abort`` arrive first.  Neither may crash
the run or leave site 2 undecided.
"""

import pytest

from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.failures import FaultPlan, LinkFault

REORDERED = ScenarioSpec(
    n_sites=3,
    no_voters=frozenset({3}),
    faults=FaultPlan(
        links=(LinkFault(src=1, dst=2, reorder=1.0, reorder_window=4.0),), seed=0
    ),
    seed=0,
)

ALL_ABORT = {1: "abort", 2: "abort", 3: "abort"}


@pytest.mark.parametrize(
    "name",
    [
        "extended-two-phase-commit",
        "naive-extended-three-phase-commit",
        "terminating-three-phase-commit",
        "terminating-three-phase-commit-no-transient",
        "terminating-quorum-commit",
    ],
)
def test_late_xact_after_a_decision_in_q_is_ignored(name):
    result = run_scenario(create_protocol(name), REORDERED)
    assert result.decisions == ALL_ABORT
    # Site 2 decided by timing out in q and never executed the transaction.
    assert result.states[2] == "q"
    assert result.votes[2] is None


@pytest.mark.parametrize("name", ["two-phase-commit", "three-phase-commit", "quorum-commit"])
def test_abort_delivered_before_xact_is_consumed_after_the_vote(name):
    result = run_scenario(create_protocol(name), REORDERED)
    assert result.decisions == ALL_ABORT
    assert result.states[2] == "a"
    assert result.votes[2] == "yes"
