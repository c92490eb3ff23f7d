"""Tests for the termination protocol's decision logic and timers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import messages as m
from repro.core.catalog import three_phase_commit
from repro.core.generalize import derive_termination_plan
from repro.core.relation import (
    ARRIVAL,
    PROBE_WINDOW,
    TIMEOUT,
    UD,
    UNDELIVERABLE,
    WINDOW,
    compile_termination,
    holds,
    site_variables,
    write,
)
from repro.core.termination import (
    TerminationOutcome,
    TerminationTimers,
    master_decision,
)
from repro.core.transient import (
    PartitionCase,
    TransientPolicy,
    bounded_cases,
    classify_interleaving,
    worst_case_wait,
)


class TestTerminationTimers:
    def test_default_multiples_of_t(self):
        timers = TerminationTimers(max_delay=1.0)
        assert timers.master_vote_timeout == 2.0
        assert timers.slave_timeout == 3.0
        assert timers.probe_window == 5.0
        assert timers.wait_in_w == 6.0
        assert timers.wait_in_p == 5.0

    def test_scaling_with_t(self):
        timers = TerminationTimers(max_delay=2.5)
        assert timers.master_vote_timeout == 5.0
        assert timers.wait_in_w == 15.0

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            TerminationTimers(max_delay=0.0)

    def test_as_dict_contains_every_interval(self):
        entries = TerminationTimers(1.0).as_dict()
        assert set(entries) == {
            "T",
            "master_vote_timeout",
            "slave_timeout",
            "probe_window",
            "wait_in_w",
            "wait_in_p",
        }


class TestMasterDecisionRule:
    """The Section 5.3 rule: abort iff probes came from exactly the reachable slaves."""

    def test_no_prepare_crossed_boundary_aborts(self):
        """All G1 slaves probe, all G2 prepares bounced -> abort (Lemma 4)."""
        decision = master_decision(slaves=[2, 3, 4], undeliverable=[4], probed=[2, 3])
        assert decision.outcome is TerminationOutcome.ABORT
        assert not decision.commits

    def test_prepare_crossed_boundary_commits(self):
        """Slave 4's prepare bounced but slave 3 (in G2) received its prepare
        and therefore never probes -> probe set differs -> commit."""
        decision = master_decision(slaves=[2, 3, 4], undeliverable=[4], probed=[2])
        assert decision.outcome is TerminationOutcome.COMMIT

    def test_probe_from_ud_slave_forces_commit(self):
        """A probe from a slave whose prepare bounced means the sets differ."""
        decision = master_decision(slaves=[2, 3], undeliverable=[3], probed=[2, 3])
        assert decision.outcome is TerminationOutcome.COMMIT

    def test_all_prepares_delivered_and_all_probe_aborts(self):
        decision = master_decision(slaves=[2, 3], undeliverable=[], probed=[2, 3])
        assert decision.outcome is TerminationOutcome.ABORT

    def test_decision_records_sets_and_reason(self):
        decision = master_decision(slaves=[2, 3, 4], undeliverable=[4], probed=[2, 3])
        assert decision.undeliverable == frozenset({4})
        assert decision.probed == frozenset({2, 3})
        assert decision.expected_probers == frozenset({2, 3})
        assert "abort" in decision.reason

    def test_non_slave_ids_are_ignored(self):
        decision = master_decision(slaves=[2, 3], undeliverable=[99], probed=[2, 3])
        assert decision.outcome is TerminationOutcome.ABORT

    @given(
        slaves=st.sets(st.integers(min_value=2, max_value=12), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_property_rule_matches_set_equation(self, slaves, data):
        undeliverable = data.draw(st.sets(st.sampled_from(sorted(slaves))))
        probed = data.draw(st.sets(st.sampled_from(sorted(slaves))))
        decision = master_decision(slaves, undeliverable, probed)
        expected_abort = (slaves - undeliverable) == probed
        assert decision.commits == (not expected_abort)


class TestMasterTerminationTracker:
    """The master's UD / PB bookkeeping, as the relation entries of its
    prepared state apply it to its site variables."""

    @pytest.fixture(scope="class")
    def prepared(self):
        spec = three_phase_commit()
        relation = compile_termination(spec, derive_termination_plan(spec, 3))
        return relation.master[m.PREPARED]

    @staticmethod
    def fire(actions, variables, site):
        """Apply the first enabled action's writes, as the role would."""
        action = next(a for a in actions if a.guard is None or holds(a.guard, variables))
        write(action.writes, variables, site)
        return action

    def bounce(self, prepared, variables, slave):
        return self.fire(prepared.actions[UNDELIVERABLE, m.PREPARE], variables, slave)

    def probe(self, prepared, variables, slave):
        return self.fire(prepared.actions[ARRIVAL, m.PROBE], variables, slave)

    def close(self, prepared, variables):
        return self.fire(prepared.actions[TIMEOUT, PROBE_WINDOW.name], variables, 1)

    def test_window_lifecycle(self, prepared):
        variables = site_variables((2, 3, 4))
        assert not variables[WINDOW]
        opened = self.bounce(prepared, variables, 4)
        assert variables[WINDOW] and PROBE_WINDOW in opened.arms
        self.probe(prepared, variables, 2)
        self.probe(prepared, variables, 3)
        closed = self.close(prepared, variables)
        assert not variables[WINDOW]
        assert closed.decision == m.ABORT

    def test_additional_undeliverables_accumulate(self, prepared):
        variables = site_variables((2, 3, 4))
        self.bounce(prepared, variables, 4)
        self.bounce(prepared, variables, 3)
        self.probe(prepared, variables, 2)
        # reachable slaves = {2}; probes = {2} -> abort
        assert self.close(prepared, variables).decision == m.ABORT
        assert variables[UD] == {3, 4}

    def test_missing_probe_means_commit(self, prepared):
        variables = site_variables((2, 3, 4))
        self.bounce(prepared, variables, 4)
        self.probe(prepared, variables, 2)
        # slave 3's prepare was delivered across the boundary; it never probes
        assert self.close(prepared, variables).decision == m.COMMIT

    def test_unknown_slave_rejected(self, prepared):
        """Lemma 4 compares slave sets: a site that is not a slave never counts."""
        variables = site_variables((2, 3))
        self.bounce(prepared, variables, 3)
        self.probe(prepared, variables, 2)
        self.probe(prepared, variables, 9)
        assert self.close(prepared, variables).decision == m.ABORT


class TestTransientTaxonomy:
    def test_paper_bounds(self):
        assert worst_case_wait(PartitionCase.SOME_PREPARE_SOME_NOT_ACK_LOST, 1.0) == 1.0
        assert worst_case_wait(PartitionCase.SOME_PREPARE_PROBE_LOST, 1.0) == 4.0
        assert worst_case_wait(PartitionCase.SOME_PREPARE_PROBES_PASS, 1.0) == 5.0
        assert worst_case_wait(PartitionCase.ALL_PREPARE_ACK_LOST, 1.0) == 1.0
        assert worst_case_wait(PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBE_LOST, 1.0) == 4.0
        assert math.isinf(
            worst_case_wait(PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBES_PASS, 1.0)
        )

    def test_bounds_scale_with_t(self):
        assert worst_case_wait(PartitionCase.SOME_PREPARE_PROBE_LOST, 2.0) == 8.0

    def test_cases_without_a_wait_return_zero(self):
        assert worst_case_wait(PartitionCase.NO_PREPARE_CROSSES, 1.0) == 0.0
        assert worst_case_wait(PartitionCase.ALL_PREPARE_ALL_COMMIT_PASS, 1.0) == 0.0

    def test_bounded_cases_excludes_3222(self):
        cases = bounded_cases()
        assert PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBES_PASS not in cases
        assert PartitionCase.SOME_PREPARE_PROBES_PASS in cases

    def test_case_labels_match_paper(self):
        assert PartitionCase.SOME_PREPARE_PROBES_PASS.label == "2.2.2"
        assert PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBES_PASS.label == "3.2.2.2"


class TestClassifyInterleaving:
    def test_case_1(self):
        case = classify_interleaving(
            prepares_crossed=0,
            prepares_blocked=2,
            acks_blocked=0,
            commits_blocked=0,
            probes_blocked=0,
        )
        assert case is PartitionCase.NO_PREPARE_CROSSES

    def test_case_2_1(self):
        case = classify_interleaving(
            prepares_crossed=1,
            prepares_blocked=1,
            acks_blocked=1,
            commits_blocked=0,
            probes_blocked=0,
        )
        assert case is PartitionCase.SOME_PREPARE_SOME_NOT_ACK_LOST

    def test_case_2_2_1(self):
        case = classify_interleaving(
            prepares_crossed=1,
            prepares_blocked=1,
            acks_blocked=0,
            commits_blocked=0,
            probes_blocked=1,
        )
        assert case is PartitionCase.SOME_PREPARE_PROBE_LOST

    def test_case_2_2_2(self):
        case = classify_interleaving(
            prepares_crossed=1,
            prepares_blocked=1,
            acks_blocked=0,
            commits_blocked=0,
            probes_blocked=0,
        )
        assert case is PartitionCase.SOME_PREPARE_PROBES_PASS

    def test_case_3_1(self):
        case = classify_interleaving(
            prepares_crossed=2,
            prepares_blocked=0,
            acks_blocked=1,
            commits_blocked=0,
            probes_blocked=0,
        )
        assert case is PartitionCase.ALL_PREPARE_ACK_LOST

    def test_case_3_2_1(self):
        case = classify_interleaving(
            prepares_crossed=2,
            prepares_blocked=0,
            acks_blocked=0,
            commits_blocked=0,
            probes_blocked=0,
        )
        assert case is PartitionCase.ALL_PREPARE_ALL_COMMIT_PASS

    def test_case_3_2_2_1(self):
        case = classify_interleaving(
            prepares_crossed=2,
            prepares_blocked=0,
            acks_blocked=0,
            commits_blocked=1,
            probes_blocked=1,
        )
        assert case is PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBE_LOST

    def test_case_3_2_2_2(self):
        case = classify_interleaving(
            prepares_crossed=2,
            prepares_blocked=0,
            acks_blocked=0,
            commits_blocked=1,
            probes_blocked=0,
        )
        assert case is PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBES_PASS


class TestTransientPolicy:
    def test_enabled_policy_commits_on_expiry(self):
        policy = TransientPolicy(enabled=True, timers=TerminationTimers(1.0))
        assert policy.expiry_action() == "commit"
        assert policy.wait_in_p == 5.0

    def test_disabled_policy_keeps_waiting(self):
        policy = TransientPolicy(enabled=False, timers=TerminationTimers(1.0))
        assert policy.expiry_action() == "wait"
