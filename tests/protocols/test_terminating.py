"""Tests for the paper's termination protocol (Theorem 9) and its ablations."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages as m
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.core.relation import UNDELIVERABLE
from repro.protocols.fsa_role import FSARole
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.latency import PerLinkLatency
from repro.sim.partition import PartitionSchedule

from tests.protocols.conftest import sweep_partitions

T3PC = "terminating-three-phase-commit"


def slave_table(state, n_sites=3):
    """The terminating 3PC slave's relation entries in ``state``."""
    return create_protocol(T3PC).plan(n_sites).relation.slave[state]


class TestTheorem9Resilience:
    """Exhaustive sweeps over partition time x split x vote pattern."""

    def test_no_violation_and_no_blocking_three_sites(self):
        results = sweep_partitions(
            "terminating-three-phase-commit",
            n_sites=3,
            no_voter_options=(frozenset(), frozenset({2})),
        )
        assert all(not r.atomicity_violated for r in results)
        assert all(not r.blocked for r in results)

    def test_no_violation_and_no_blocking_four_sites(self):
        results = sweep_partitions(
            "terminating-three-phase-commit",
            n_sites=4,
            times=[0.5, 1.25, 2.25, 2.75, 3.25, 3.75, 4.25, 5.5],
        )
        assert all(not r.atomicity_violated for r in results)
        assert all(not r.blocked for r in results)

    def test_no_locks_left_after_any_swept_scenario(self):
        results = sweep_partitions("terminating-three-phase-commit", n_sites=3)
        for result in results:
            assert not any(result.locks_held_at_end.values()), result.summary()

    def test_committed_runs_install_the_value_everywhere(self):
        results = sweep_partitions("terminating-three-phase-commit", n_sites=3)
        for result in results:
            if result.all_committed:
                assert result.stores_agree

    @settings(deadline=None, max_examples=25)
    @given(
        at=st.floats(min_value=0.1, max_value=8.0),
        g2_size=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_random_partitions_never_break_atomicity(self, at, g2_size, seed):
        n_sites = 4
        g2 = tuple(range(n_sites - g2_size + 1, n_sites + 1))
        g1 = tuple(s for s in range(1, n_sites + 1) if s not in g2)
        partition = PartitionSchedule.simple(at, g1, g2)
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=n_sites, partition=partition, seed=seed),
        )
        assert not result.atomicity_violated
        assert not result.blocked


class TestTerminationDecisions:
    def test_partition_before_any_prepare_aborts_everyone(self):
        """Idea 2 of Section 5.2: master times out in w -> abort G1; G2 aborts too."""
        partition = PartitionSchedule.simple(1.25, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=partition),
        )
        assert result.all_aborted

    def test_partition_cutting_prepare_aborts_everyone(self):
        """No prepare crossed the boundary: N - UD = PB, master aborts (Lemma 4)."""
        partition = PartitionSchedule.simple(2.5, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=partition),
        )
        assert result.all_aborted
        windows = result.trace.filter("probe-window-closed")
        assert len(windows) == 1
        assert windows[0].get("outcome") == "abort"

    def test_partition_after_prepare_delivery_commits_everyone(self):
        """A prepare crossed the boundary: the G2 slave leads its partition to commit."""
        partition = PartitionSchedule.simple(3.5, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=partition),
        )
        assert result.all_committed

    def test_ud_ack_makes_g2_slave_the_committer(self):
        """Section 5.2 idea 6(1): a returned ack tells a prepared slave it is in G2."""
        partition = PartitionSchedule.simple(3.5, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=partition),
        )
        decisions = result.trace.filter("decision", site=3)
        (returned_ack,) = slave_table(m.PREPARED).actions[UNDELIVERABLE, m.ACK]
        assert decisions[0].get("reason") == returned_ack.label

    def test_mixed_partition_with_prepare_crossing_commits_everyone(self):
        """Some prepares crossed B, some did not: the probe sets differ, G1
        commits, and the prepared G2 slave relays the commit to its peers."""
        latency = PerLinkLatency(1.0, {(1, 4): 1.5})
        partition = PartitionSchedule.simple(3.7, [1, 2], [3, 4])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=4, partition=partition, latency=latency),
        )
        assert result.all_committed, result.summary()
        windows = result.trace.filter("probe-window-closed")
        assert windows and windows[0].get("outcome") == "commit"

    def test_relayed_commit_reaches_slave_still_in_w(self):
        """The Fig. 8 w -> c transition in action."""
        latency = PerLinkLatency(1.0, {(1, 4): 1.5})
        partition = PartitionSchedule.simple(3.7, [1, 2], [3, 4])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=4, partition=partition, latency=latency),
        )
        transitions = result.trace.filter("transition", site=4)
        (relay,) = [s for s in slave_table(m.WAIT, 4).steps if s.kind == m.COMMIT]
        assert "Fig. 8" in relay.label
        assert [r.get("reason") for r in transitions if r.get("source") == m.WAIT] == [relay.label]

    def test_master_timeout_in_p_commits_when_no_prepare_bounced(self):
        """Idea 3 of Section 5.2: all prepares delivered, acks cut -> commit."""
        partition = PartitionSchedule.simple(3.5, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=partition),
        )
        assert result.decisions[1] == "commit"

    def test_slave_whose_yes_bounced_aborts_everyone(self):
        """w_i (2): an undeliverable yes vote aborts the whole transaction."""
        partition = PartitionSchedule.simple(1.5, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=partition),
        )
        assert result.all_aborted
        decisions = result.trace.filter("decision", site=3)
        (returned_yes,) = slave_table(m.WAIT).actions[UNDELIVERABLE, m.YES]
        assert decisions[0].get("reason") == returned_yes.label


class TestTransientPartitioning:
    def test_case_3222_blocks_without_the_transient_rule(self):
        """Section 6: the only unbounded case -- commit lost, probes pass B."""
        partition = PartitionSchedule.transient(4.25, 5.25, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit-no-transient"),
            ScenarioSpec(n_sites=3, partition=partition, horizon=80.0),
        )
        assert result.blocked
        assert 3 in result.blocked_sites

    def test_case_3222_commits_with_the_transient_rule(self):
        partition = PartitionSchedule.transient(4.25, 5.25, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=partition, horizon=80.0),
        )
        assert result.all_committed
        # the isolated slave commits 5T after it timed out in p (at 6T)
        assert result.decision_times[3] == pytest.approx(11.0)

    def test_transient_sweep_is_consistent(self):
        results = sweep_partitions(
            "terminating-three-phase-commit",
            n_sites=3,
            heal_after=2.0,
            horizon=80.0,
        )
        assert all(not r.atomicity_violated for r in results)
        assert all(not r.blocked for r in results)


class TestAblations:
    def test_dropping_the_w_to_c_transition_breaks_the_protocol(self):
        """Section 5.3's "fly in the ointment": without the Fig. 8 transition a
        slave in w misses the only commit it will ever receive and aborts.

        The ablation removes the w -> c step from the compiled table."""
        plan = create_protocol(T3PC).plan(4)
        slave = dict(plan.relation.slave)
        wait = slave[m.WAIT]
        slave[m.WAIT] = dataclasses.replace(
            wait, steps=tuple(s for s in wait.steps if s.kind != m.COMMIT)
        )
        ablated = dataclasses.replace(
            plan, relation=dataclasses.replace(plan.relation, slave=slave)
        )

        class NoWToC:
            name = "no-w-to-c"

            def coordinator(self, ctx):
                return FSARole(ctx, ablated, MASTER_ROLE)

            def participant(self, ctx):
                return FSARole(ctx, ablated, SLAVE_ROLE)

        protocol = NoWToC()
        latency = PerLinkLatency(1.0, {(1, 4): 1.5})
        partition = PartitionSchedule.simple(3.7, [1, 2], [3, 4])
        result = run_scenario(
            protocol, ScenarioSpec(n_sites=4, partition=partition, latency=latency)
        )
        assert result.atomicity_violated
        assert 4 in result.aborted_sites

    def test_with_the_transition_the_same_scenario_is_consistent(self):
        latency = PerLinkLatency(1.0, {(1, 4): 1.5})
        partition = PartitionSchedule.simple(3.7, [1, 2], [3, 4])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=4, partition=partition, latency=latency),
        )
        assert not result.atomicity_violated


class TestTheorem10Quorum:
    def test_terminating_quorum_uses_pre_commit_as_promotion(self):
        plan = create_protocol("terminating-quorum-commit").plan(3)
        assert plan.termination.promotion_message == "pre-commit"
        (promotion,) = [s for s in plan.relation.slave[m.WAIT].steps if s.source == "master"]
        assert promotion.kind == "pre-commit" and promotion.journals_prepare

    def test_terminating_quorum_survives_partition_sweep(self):
        results = sweep_partitions("terminating-quorum-commit", n_sites=3)
        assert all(not r.atomicity_violated for r in results)
        assert all(not r.blocked for r in results)

    def test_plain_quorum_blocks_under_partition(self):
        partition = PartitionSchedule.simple(2.5, [1, 2], [3])
        result = run_scenario(
            create_protocol("quorum-commit"), ScenarioSpec(n_sites=3, partition=partition)
        )
        assert result.blocked


class TestConcurrentFailuresAssumption:
    """Section 7: with a site failure during the partition, atomicity can break --
    this is why assumptions 3-4 are needed."""

    def test_only_prepared_g2_slave_crashing_breaks_atomicity(self):
        """Scenario (1) of Section 7: the only G2 slave holding a prepare dies
        before it can lead G2 to commit, so the rest of G2 aborts while G1 commits."""
        from repro.sim.failures import CrashSchedule
        from repro.sim.latency import PerLinkLatency

        latency = PerLinkLatency(1.0, {(1, 4): 1.5})
        partition = PartitionSchedule.simple(3.7, [1, 2], [3, 4])
        crashes = CrashSchedule.single(3, at=4.0)
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=4, partition=partition, crashes=crashes, latency=latency),
        )
        committed = set(result.committed_sites)
        assert {1, 2} <= committed
        assert 4 in result.aborted_sites or 4 in result.blocked_sites
