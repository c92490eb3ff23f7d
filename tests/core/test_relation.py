"""The compiled local-step relation both interpreters execute."""

import dataclasses
import re
from collections.abc import Mapping

import pytest

from repro.core import messages as m
from repro.core.catalog import (
    modified_three_phase_commit,
    quorum_commit,
    three_phase_commit,
    two_phase_commit,
)
from repro.core.fsa import (
    ANY_SLAVE,
    EACH_SLAVE,
    MASTER,
    MASTER_ROLE,
    OPERATOR,
    ReadSpec,
    SendSpec,
    Transition,
)
from repro.core.generalize import derive_termination_plan
from repro.core.relation import (
    ANY_SITE,
    ARRIVAL,
    OPERATOR_SITE,
    PHASE,
    PROBE_WINDOW,
    STATE_TIMER,
    TIMEOUT,
    UNDELIVERABLE,
    WAIT_IN_P,
    WAIT_IN_W,
    Action,
    LocalTable,
    ProtocolRelation,
    Timer,
    compile_relation,
    compile_termination,
    satisfying_senders,
)
from repro.core.rules import augment_with_rules


class TestSteps:
    def test_slave_vote_steps_carry_their_vote_and_witness(self):
        relation = compile_relation(two_phase_commit())
        yes, no = relation.slave[m.INITIAL].steps
        assert (yes.vote, yes.target, yes.votes_yes, yes.decision) == ("yes", m.WAIT, True, None)
        assert (no.vote, no.target, no.votes_yes, no.decision) == ("no", m.ABORTED, False, m.ABORT)
        assert yes.sends == ((m.YES, True),) and no.sends == ((m.NO, True),)

    def test_master_sends_resolve_to_the_other_slaves(self):
        relation = compile_relation(three_phase_commit())
        (request,) = relation.master[m.INITIAL].steps
        assert (request.kind, request.source, request.sends) == (
            m.REQUEST,
            OPERATOR,
            ((m.XACT, False),),
        )
        commit = relation.master[m.PREPARED].steps[0]
        assert commit.decision == m.COMMIT and commit.votes_yes

    def test_only_a_slave_entering_prepared_journals(self):
        relation = compile_relation(three_phase_commit())
        assert [s.journals_prepare for s in relation.slave[m.WAIT].steps] == [True, False]
        assert not any(s.journals_prepare for s in relation.master[m.WAIT].steps)

    def test_unaugmented_protocols_have_no_timers_or_decisions(self):
        relation = compile_relation(two_phase_commit())
        for table in (*relation.master.values(), *relation.slave.values()):
            assert table.timer is None
            assert table.timeout is None and table.undeliverable is None
        assert relation.untimed


class TestResolutions:
    def test_rule_a_and_b_of_extended_two_phase_commit(self):
        spec = two_phase_commit()
        relation = compile_relation(spec, augment_with_rules(spec, 3))
        slave_wait = relation.slave[m.WAIT]
        assert slave_wait.timer == Timer(STATE_TIMER, "slave_timeout")
        assert relation.master[m.WAIT].timer == Timer(STATE_TIMER, "master_vote_timeout")
        assert relation.untimed  # the explorer abstracts the state timer as Rule (a)
        assert (slave_wait.timeout.decision, slave_wait.timeout.target) == (m.COMMIT, m.COMMITTED)
        assert slave_wait.timeout.sends == ()  # a slave decides silently
        assert slave_wait.undeliverable.decision == m.ABORT
        master_wait = relation.master[m.WAIT].timeout
        assert master_wait.sends == ((m.ABORT, False),)  # the master broadcasts

    def test_final_states_are_untimed(self):
        spec = two_phase_commit()
        relation = compile_relation(spec, augment_with_rules(spec, 3))
        for role in (relation.master, relation.slave):
            for state in (m.COMMITTED, m.ABORTED):
                assert role[state].final and role[state].timer is None
                assert role[state].timeout is None and role[state].undeliverable is None

    def test_compiling_is_deterministic(self):
        spec = two_phase_commit()
        augmentation = augment_with_rules(spec, 3)
        assert compile_relation(spec, augmentation) == compile_relation(spec, augmentation)
        assert compile_relation(spec).role(MASTER_ROLE) == compile_relation(spec).master


class TestSatisfyingSenders:
    PEERS = (3, 4)

    @pytest.mark.parametrize(
        "source, present, expected",
        [
            (MASTER, {1, 3}, ((1,),)),
            (MASTER, {3}, ()),
            (ANY_SLAVE, {4, 1, 3}, ((3,), (4,))),
            (ANY_SLAVE, {1}, ()),
            (EACH_SLAVE, {3, 4, 1}, ((3, 4),)),
            (EACH_SLAVE, {3}, ()),
            (OPERATOR, {OPERATOR_SITE}, ((OPERATOR_SITE,),)),
            (OPERATOR, {1}, ()),
            (ANY_SITE, {OPERATOR_SITE, 3, 1}, ((1,), (3,))),
            (ANY_SITE, set(), ()),
        ],
    )
    def test_choices_in_fixed_order(self, source, present, expected):
        assert satisfying_senders(source, present, 1, self.PEERS) == expected

    def test_each_slave_with_no_peers_is_vacuously_satisfied(self):
        assert satisfying_senders(EACH_SLAVE, set(), 1, ()) == ((),)

    def test_unknown_source_is_rejected(self):
        with pytest.raises(ValueError, match="unknown read source"):
            satisfying_senders("everyone", {1}, 1, self.PEERS)


class TestTheorem10Construction:
    """compile_termination: Section 5.3's protocol around the promotion m."""

    @staticmethod
    def terminating(spec_factory, *, transient_rule=True):
        spec = spec_factory()
        plan = derive_termination_plan(spec, 3)
        return compile_termination(spec, plan, transient_rule=transient_rule)

    def test_three_phase_commit_gains_fig8_steps_and_the_termination_actions(self):
        relation = self.terminating(three_phase_commit)
        fig8 = modified_three_phase_commit().slave
        steps = {
            (state, step.kind, step.target)
            for state, table in relation.slave.items()
            for step in table.steps
        }
        catalog = {(t.source, t.read.kind, t.target) for t in fig8.transitions}
        # Fig. 8's steps, w -> c included, plus reading a relayed abort
        # wherever the catalog reads none.
        relayed_aborts = {(m.INITIAL, m.ABORT, m.ABORTED), (m.PREPARED, m.ABORT, m.ABORTED)}
        assert steps - catalog == relayed_aborts
        assert catalog <= steps
        wait, prepared = relation.slave[m.WAIT].actions, relation.slave[m.PREPARED].actions
        assert set(wait) == {
            (TIMEOUT, PHASE), (TIMEOUT, WAIT_IN_W.name), (UNDELIVERABLE, m.YES),
            (ARRIVAL, m.PREPARE),
        }
        assert set(prepared) == {
            (TIMEOUT, PHASE), (TIMEOUT, WAIT_IN_P.name), (UNDELIVERABLE, m.ACK),
            (UNDELIVERABLE, m.PROBE),
        }
        assert set(relation.master[m.PREPARED].actions) == {
            (TIMEOUT, PHASE), (TIMEOUT, PROBE_WINDOW.name), (UNDELIVERABLE, m.PREPARE),
            (ARRIVAL, m.PROBE),
        }
        assert all((ARRIVAL, m.PROBE) in t.actions for t in relation.master.values())
        assert not relation.untimed and relation.refusal is None

    def test_the_transient_rule_is_one_expiry(self):
        with_rule = self.terminating(three_phase_commit)
        without = self.terminating(three_phase_commit, transient_rule=False)
        assert (TIMEOUT, WAIT_IN_P.name) not in without.slave[m.PREPARED].actions
        (probe,) = without.slave[m.PREPARED].actions[TIMEOUT, PHASE]
        assert probe.arms == ()
        assert with_rule.master == without.master

    def test_quorum_commit_is_the_same_construction_with_pre_commit(self):
        """Theorem 10 by construction: the terminating quorum-commit relation
        is the terminating 3PC relation with prepare renamed to pre-commit
        (both name the states m joins as Section 5.3 does: w and p)."""
        t3pc = self.terminating(three_phase_commit)
        tqc = self.terminating(quorum_commit)
        assert _renamed(t3pc, {m.PREPARE: m.PRE_COMMIT}) == tqc
        assert t3pc != tqc


def _renamed(value, names):
    """``value`` with every message kind and label word in ``names`` renamed."""
    if isinstance(value, str):
        return re.sub(r"[\w-]+", lambda word: names.get(word.group(), word.group()), value)
    if isinstance(value, Transition):
        return Transition(
            value.source,
            ReadSpec(names.get(value.read.kind, value.read.kind), value.read.source),
            tuple(SendSpec(names.get(s.kind, s.kind), s.target) for s in value.sends),
            value.target,
        )
    if isinstance(value, (LocalTable, Action)):
        return dataclasses.replace(
            value,
            **{f.name: _renamed(getattr(value, f.name), names) for f in dataclasses.fields(value)},
        )
    if isinstance(value, ProtocolRelation):
        return dataclasses.replace(
            value, master=_renamed(value.master, names), slave=_renamed(value.slave, names)
        )
    if isinstance(value, Mapping):
        return {_renamed(key, names): _renamed(item, names) for key, item in value.items()}
    if isinstance(value, tuple) and not isinstance(value, Timer):
        return tuple(_renamed(item, names) for item in value)
    return value
