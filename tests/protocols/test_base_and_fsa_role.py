"""Unit tests for the role plumbing (base class and generic FSA roles)."""

import pytest

from repro.core import messages as m
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.protocols.base import Decision, ProtocolMessage, RoleBase
from repro.protocols.extended_two_phase import ExtendedTwoPhaseCommit
from repro.protocols.fsa_role import FSAProtocolDefinition
from repro.protocols.two_phase import TwoPhaseCommit
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario

from tests.protocols.conftest import make_context


class TestProtocolContext:
    def test_derived_views(self):
        _, ctx = make_context(site=2, n_sites=4)
        assert ctx.site == 2
        assert ctx.slaves == (2, 3, 4)
        assert ctx.others == (1, 3, 4)
        assert not ctx.is_master
        assert ctx.max_delay == 1.0

    def test_master_context(self):
        _, ctx = make_context(site=1)
        assert ctx.is_master
        assert 1 not in ctx.others


class TestRoleBase:
    def test_decide_is_idempotent_and_applies_to_db(self):
        cluster, ctx = make_context(site=1)
        role = RoleBase(ctx, initial_state="q")
        role.cast_vote()
        role.decide(Decision.COMMIT, reason="test")
        role.decide(Decision.COMMIT, reason="again")
        assert role.decision is Decision.COMMIT
        assert ctx.db.decision("t-ctx") == "commit"
        assert role.conflicting_decisions == 0

    def test_conflicting_decision_recorded_not_applied(self):
        cluster, ctx = make_context(site=1)
        role = RoleBase(ctx, initial_state="q")
        role.cast_vote()
        role.decide(Decision.ABORT)
        role.decide(Decision.COMMIT)
        assert role.decision is Decision.ABORT
        assert role.conflicting_decisions == 1
        assert cluster.trace.count("conflicting-decision") == 1

    def test_forced_no_vote(self):
        cluster, ctx = make_context(site=2)
        ctx.no_voters = frozenset({2})
        role = RoleBase(ctx, initial_state="q")
        assert role.cast_vote() == "no"
        assert role.vote == "no"

    def test_unwrap_filters_other_transactions(self):
        _, ctx = make_context(site=1)
        role = RoleBase(ctx, initial_state="q")
        own = ProtocolMessage(kind=m.YES, transaction_id="t-ctx", sender=2)
        other = ProtocolMessage(kind=m.YES, transaction_id="another", sender=2)
        assert role.unwrap(own)[0] is own
        assert role.unwrap(other)[0] is None
        assert role.unwrap("not-a-protocol-message")[0] is None

    def test_broadcast_decision_targets_other_participants(self):
        cluster, ctx = make_context(site=1)
        role = RoleBase(ctx, initial_state="q")
        role.broadcast_decision(Decision.ABORT)
        sends = cluster.trace.filter("send", site=1)
        assert {record.get("destination") for record in sends} == {2, 3}


class TestFSAProtocolDefinition:
    def test_spec_is_cached(self):
        assert TwoPhaseCommit().plan(3).spec is TwoPhaseCommit().plan(3).spec

    def test_augmentation_cached_per_size(self):
        first = ExtendedTwoPhaseCommit().plan(3).augmentation
        second = ExtendedTwoPhaseCommit().plan(3).augmentation
        assert first is second and first.n_sites == 3
        assert ExtendedTwoPhaseCommit().plan(2).augmentation.n_sites == 2

    def test_unaugmented_definition_returns_none(self):
        assert TwoPhaseCommit().plan(3).augmentation is None

    def test_roles_follow_protocol_spec_states(self):
        definition = TwoPhaseCommit()
        _, master_ctx = make_context(site=1)
        _, slave_ctx = make_context(site=2)
        master = definition.coordinator(master_ctx)
        slave = definition.participant(slave_ctx)
        assert master.role == MASTER_ROLE
        assert slave.role == SLAVE_ROLE
        assert master.state == m.INITIAL
        assert slave.state == m.INITIAL

    def test_four_phase_protocol_runs_failure_free(self):
        """The generic FSA role executes the extra buffering round too."""
        from repro.core.catalog import four_phase_commit

        definition = FSAProtocolDefinition("four-phase-commit", four_phase_commit)
        result = run_scenario(definition, ScenarioSpec(n_sites=3))
        assert result.all_committed
        assert result.max_decision_latency() == pytest.approx(7.0)


class TestMessageObjects:
    def test_protocol_message_str(self):
        message = ProtocolMessage(kind=m.PROBE, transaction_id="t9", sender=4)
        assert "probe" in str(message)
        assert "t9" in str(message)

    def test_xact_payload_carries_transaction(self):
        result = run_scenario(create_protocol("two-phase-commit"), ScenarioSpec(n_sites=2))
        sends = result.trace.filter("send", predicate=lambda r: r.get("payload") == m.XACT)
        assert sends
