"""The compiled local-step relation both interpreters execute."""

import pytest

from repro.core import messages as m
from repro.core.catalog import three_phase_commit, two_phase_commit
from repro.core.fsa import ANY_SLAVE, EACH_SLAVE, MASTER, MASTER_ROLE, OPERATOR
from repro.core.relation import OPERATOR_SITE, compile_relation, satisfying_senders
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
            assert not table.timed
            assert table.timeout is None and table.undeliverable is None


class TestResolutions:
    def test_rule_a_and_b_of_extended_two_phase_commit(self):
        spec = two_phase_commit()
        relation = compile_relation(spec, augment_with_rules(spec, 3))
        slave_wait = relation.slave[m.WAIT]
        assert slave_wait.timed
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
                assert role[state].final and not role[state].timed
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
        ],
    )
    def test_choices_in_fixed_order(self, source, present, expected):
        assert satisfying_senders(source, present, 1, self.PEERS) == expected

    def test_each_slave_with_no_peers_is_vacuously_satisfied(self):
        assert satisfying_senders(EACH_SLAVE, set(), 1, ()) == ((),)

    def test_unknown_source_is_rejected(self):
        with pytest.raises(ValueError, match="unknown read source"):
            satisfying_senders("everyone", {1}, 1, self.PEERS)
