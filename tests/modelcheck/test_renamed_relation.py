"""The explorer reads the protocol from its relation and nothing else.

A :class:`~repro.core.reachability.ModelSetup` takes one protocol input,
the :class:`~repro.core.relation.MoveTable`: initial states, the commit /
abort / final class of every local state and every edge come from the
compiled relation.  A relation that renames a state -- as
``compile_termination`` renames quorum commit's ``pc`` to ``p``, and as
candidate or mutated relations will -- must therefore be checked under the
new name, with the verdicts of the original.  If any of those facts were
read from a second source (the spec's automata), a renamed commit state
would no longer count as a commit and a violation would go unreported.
"""

import dataclasses
from types import MappingProxyType

import pytest

from repro.core import messages as m
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.core.reachability import ALL_FAULT_ENVELOPES, ModelSetup, UncheckableProtocolError
from repro.core.relation import MoveTable
from repro.modelcheck.checker import counterexample_path
from repro.modelcheck.protocols import checkable_plan, checkable_protocols
from repro.modelcheck.summary import INVARIANTS
from repro.protocols.registry import available_protocols, create_protocol

N_SITES = 3


def renamed_slave_commit(relation):
    """``relation`` with the slave's commit state renamed everywhere: the
    table key, every step's target and every resolution's target."""
    (old,) = [state for state, table in relation.slave.items() if table.decision == m.COMMIT]
    new = f"{old}-renamed"

    def target(effect):
        if effect is None or effect.target != old:
            return effect
        return dataclasses.replace(effect, target=new)

    slave = MappingProxyType({
        new if state == old else state: dataclasses.replace(
            table,
            steps=tuple(map(target, table.steps)),
            timeout=target(table.timeout),
            undeliverable=target(table.undeliverable),
        )
        for state, table in relation.slave.items()
    })
    return dataclasses.replace(relation, slave=slave), old, new


def outcome(setup, fault):
    """What a walk of ``setup`` under ``fault`` decides, name-free."""
    graph = setup.explore(fault)
    verdicts = {
        name: "holds" if counterexample_path(graph, name) is None else "violated"
        for name, _, _ in INVARIANTS
    }
    return verdicts, graph.state_count, len(graph.terminal), graph.edges_explored


@pytest.mark.parametrize("protocol", checkable_protocols())
def test_a_renamed_commit_state_keeps_every_verdict(protocol):
    relation = checkable_plan(protocol, N_SITES).relation
    renamed, old, new = renamed_slave_commit(relation)
    assert old not in renamed.slave and new in renamed.slave
    original = ModelSetup(MoveTable(relation, N_SITES))
    moved = ModelSetup(MoveTable(renamed, N_SITES))
    assert new in moved.names[1] and old not in moved.names[1]
    for fault in ALL_FAULT_ENVELOPES:
        assert outcome(moved, fault) == outcome(original, fault), fault


@pytest.mark.parametrize("protocol", checkable_protocols())
def test_every_plan_setup_starts_in_the_relations_initial_states(protocol):
    plan = create_protocol(protocol).plan(N_SITES)
    setup = plan.model_setup()
    initial = setup.decode(setup.initial)
    master, slave = plan.relation.initial[MASTER_ROLE], plan.relation.initial[SLAVE_ROLE]
    assert initial.locals == (master,) + (slave,) * (N_SITES - 1)
    assert [str(message) for message in initial.outstanding] == ["request[0->1]"]
    assert initial.voted == (False,) * N_SITES


@pytest.mark.parametrize(
    "protocol",
    sorted(set(available_protocols()) - set(checkable_protocols())),
)
def test_a_timed_relation_is_refused_not_explored(protocol):
    """Theorem 9's protocols are timer-driven: the untimed explorer must
    refuse them, not return a graph whose verdicts ignore the timers."""
    assert protocol.startswith("terminating-")
    with pytest.raises(UncheckableProtocolError, match=f"'{protocol}' is not model-checkable"):
        create_protocol(protocol).plan(3).model_setup().explore("partition")


@pytest.mark.parametrize("n_sites", (2, 3, 4))
@pytest.mark.parametrize("protocol", available_protocols())
def test_returned_messages_are_read_exactly_where_the_relation_reads_them(
    protocol, n_sites
):
    """Untimed relations read bounces exactly when they carry Rule (b)
    decisions, i.e. when the plan is augmented; the termination protocol
    reads its own bounces."""
    plan = create_protocol(protocol).plan(n_sites)
    expected = plan.augmentation is not None or not plan.relation.untimed
    assert plan.relation.reads_returned is expected


@pytest.mark.parametrize("protocol", available_protocols())
def test_each_tables_outcome_class_is_its_automaton_state_class(protocol):
    """Where the relation keeps the spec's state names, its commit / abort
    classes are the automata's."""
    plan = create_protocol(protocol).plan(N_SITES)
    for role in (MASTER_ROLE, SLAVE_ROLE):
        automaton = plan.spec.automaton(role)
        for state, table in plan.relation.role(role).items():
            if state not in automaton.states:
                continue  # a Section 5.3 name (quorum commit's p)
            expected = (
                m.COMMIT if state in automaton.commit_states
                else m.ABORT if state in automaton.abort_states
                else None
            )
            assert table.decision == expected, (role, state)
