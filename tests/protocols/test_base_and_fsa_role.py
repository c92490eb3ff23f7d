"""Unit tests for the role plumbing: the context, FSARole and protocol rows."""

import pytest

from repro.core import messages as m
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.protocols.base import Decision, ProtocolMessage
from repro.protocols.registry import Protocol, create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario

from tests.protocols.conftest import make_context

TWO_PC = create_protocol("two-phase-commit")


class TestProtocolContext:
    def test_derived_views(self):
        _, ctx = make_context(site=2, n_sites=4)
        assert ctx.others == (1, 3, 4)

    def test_master_context(self):
        _, ctx = make_context(site=1)
        assert 1 not in ctx.others


class TestFSARole:
    def test_decide_is_idempotent_and_applies_to_db(self):
        cluster, ctx = make_context(site=1)
        role = TWO_PC.role(ctx)
        role.cast_vote()
        role.decide(Decision.COMMIT, reason="test")
        role.decide(Decision.COMMIT, reason="again")
        assert role.decision is Decision.COMMIT
        assert ctx.db.decision("t-ctx") == "commit"
        assert role.conflicting_decisions == 0

    def test_conflicting_decision_recorded_not_applied(self):
        cluster, ctx = make_context(site=1)
        role = TWO_PC.role(ctx)
        role.cast_vote()
        role.decide(Decision.ABORT)
        role.decide(Decision.COMMIT)
        assert role.decision is Decision.ABORT
        assert role.conflicting_decisions == 1
        assert cluster.trace.count("conflicting-decision") == 1

    def test_forced_no_vote(self):
        cluster, ctx = make_context(site=2)
        ctx.no_voters = frozenset({2})
        role = TWO_PC.role(ctx)
        assert role.cast_vote() == "no"
        assert role.vote == "no"

    def test_unwrap_filters_other_transactions(self):
        _, ctx = make_context(site=1)
        role = TWO_PC.role(ctx)
        own = ProtocolMessage(kind=m.YES, transaction_id="t-ctx", sender=2)
        other = ProtocolMessage(kind=m.YES, transaction_id="another", sender=2)
        assert role.unwrap(own)[0] is own
        assert role.unwrap(other)[0] is None
        assert role.unwrap("not-a-protocol-message")[0] is None

    def test_broadcast_targets_the_given_sites(self):
        cluster, ctx = make_context(site=1)
        role = TWO_PC.role(ctx)
        role.broadcast(ctx.others, m.ABORT)
        sends = cluster.trace.filter("send", site=1)
        assert {record.get("destination") for record in sends} == {2, 3}


class TestProtocolRow:
    def test_spec_is_cached(self):
        assert TWO_PC.plan(3).spec is create_protocol("two-phase-commit").plan(3).spec

    def test_augmentation_cached_per_size(self):
        extended = create_protocol("extended-two-phase-commit")
        first = extended.plan(3).augmentation
        second = extended.plan(3).augmentation
        assert first is second and first.n_sites == 3
        assert extended.plan(2).augmentation.n_sites == 2

    def test_unaugmented_row_returns_none(self):
        assert TWO_PC.plan(3).augmentation is None

    def test_roles_follow_protocol_spec_states(self):
        _, master_ctx = make_context(site=1)
        _, slave_ctx = make_context(site=2)
        master = TWO_PC.role(master_ctx)
        slave = TWO_PC.role(slave_ctx)
        assert master.role == MASTER_ROLE
        assert slave.role == SLAVE_ROLE
        assert master.state == m.INITIAL
        assert slave.state == m.INITIAL

    def test_four_phase_protocol_runs_failure_free(self):
        """The generic FSA role executes the extra buffering round too."""
        from repro.core.catalog import four_phase_commit

        protocol = Protocol("four-phase-commit", four_phase_commit)
        result = run_scenario(protocol, ScenarioSpec(n_sites=3))
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
