"""Tests for the scenario runner and failure-free protocol behaviour."""

import dataclasses

import pytest

from repro.protocols.plan import Extension
from repro.protocols.registry import available_protocols, create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.failures import CrashSchedule
from repro.sim.latency import ConstantLatency
from repro.sim.partition import PartitionSchedule

ALL_PROTOCOLS = available_protocols()


class TestRegistry:
    def test_all_expected_protocols_registered(self):
        names = available_protocols()
        assert "two-phase-commit" in names
        assert "extended-two-phase-commit" in names
        assert "three-phase-commit" in names
        assert "naive-extended-three-phase-commit" in names
        assert "terminating-three-phase-commit" in names
        assert "terminating-quorum-commit" in names

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            create_protocol("paxos")

    def test_rows_are_shared_and_frozen(self):
        row = create_protocol("two-phase-commit")
        assert create_protocol("two-phase-commit") is row
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.extension = Extension.RULES


class TestFailureFreeRuns:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_every_protocol_commits_without_failures(self, name):
        result = run_scenario(create_protocol(name), ScenarioSpec(n_sites=3))
        assert result.all_committed, result.summary()
        assert not result.blocked
        assert not result.atomicity_violated

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_every_protocol_aborts_with_a_no_voter(self, name):
        result = run_scenario(
            create_protocol(name), ScenarioSpec(n_sites=3, no_voters=frozenset({3}))
        )
        assert result.all_aborted, result.summary()
        assert not result.atomicity_violated

    @pytest.mark.parametrize("n_sites", [2, 3, 5, 8])
    def test_terminating_protocol_scales_with_sites(self, n_sites):
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"), ScenarioSpec(n_sites=n_sites)
        )
        assert result.all_committed

    def test_committed_value_installed_at_every_site(self):
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, write_key="stock", write_value=42),
        )
        assert all(value == 42 for value in result.values_at_end.values())
        assert result.stores_agree

    def test_aborted_transaction_leaves_initial_values(self):
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(
                n_sites=3,
                no_voters=frozenset({2}),
                initial_data={"balance": 7},
                write_value=999,
            ),
        )
        assert all(value == 7 for value in result.values_at_end.values())

    def test_two_phase_commit_latency_is_three_t(self):
        result = run_scenario(create_protocol("two-phase-commit"), ScenarioSpec(n_sites=3))
        assert result.max_decision_latency() == pytest.approx(3.0)

    def test_three_phase_commit_latency_is_five_t(self):
        result = run_scenario(create_protocol("three-phase-commit"), ScenarioSpec(n_sites=3))
        assert result.max_decision_latency() == pytest.approx(5.0)

    def test_latency_scales_with_t(self):
        result = run_scenario(
            create_protocol("three-phase-commit"),
            ScenarioSpec(n_sites=3, latency=ConstantLatency(2.0)),
        )
        assert result.max_decision_latency() == pytest.approx(10.0)

    def test_three_phase_sends_more_messages_than_two_phase(self):
        two = run_scenario(create_protocol("two-phase-commit"), ScenarioSpec(n_sites=4))
        three = run_scenario(create_protocol("three-phase-commit"), ScenarioSpec(n_sites=4))
        assert three.messages_sent > two.messages_sent

    def test_no_locks_held_after_termination(self):
        result = run_scenario(create_protocol("terminating-three-phase-commit"), ScenarioSpec())
        assert not any(result.locks_held_at_end.values())


class TestScenarioSpec:
    def test_default_latency_is_unit(self):
        assert ScenarioSpec().effective_latency().upper_bound == 1.0

    def test_default_horizon_is_forty_t(self):
        assert ScenarioSpec().effective_horizon() == 40.0
        assert ScenarioSpec(latency=ConstantLatency(2.0)).effective_horizon() == 80.0

    def test_explicit_horizon_respected(self):
        assert ScenarioSpec(horizon=12.5).effective_horizon() == 12.5

    def test_run_scenario_keyword_overrides(self):
        result = run_scenario(create_protocol("two-phase-commit"), n_sites=4)
        assert len(result.participants) == 4

    def test_crash_of_an_unknown_site_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"site\(s\) \[7\] outside 1..3"):
            ScenarioSpec(n_sites=3, crashes=CrashSchedule.single(7, 1.0))

    def test_negative_crash_time_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="negative event time"):
            ScenarioSpec(n_sites=3, crashes=CrashSchedule.single(2, -1.0))


class TestResultProperties:
    def test_summary_mentions_protocol_and_verdict(self):
        result = run_scenario(create_protocol("two-phase-commit"), ScenarioSpec(n_sites=2))
        assert "two-phase-commit" in result.summary()
        assert "consistent" in result.summary()

    def test_blocked_summary(self):
        partition = PartitionSchedule.simple(0.5, [1], [2, 3])
        result = run_scenario(
            create_protocol("two-phase-commit"), ScenarioSpec(n_sites=3, partition=partition)
        )
        assert result.blocked
        assert "blocked" in result.summary()

    def test_decision_latency_accessors(self):
        result = run_scenario(create_protocol("three-phase-commit"), ScenarioSpec(n_sites=3))
        assert result.decision_latency(1) == pytest.approx(4.0)
        assert result.decision_latency(2) == pytest.approx(5.0)
        assert result.max_decision_latency() == pytest.approx(5.0)

    def test_votes_recorded(self):
        result = run_scenario(
            create_protocol("three-phase-commit"),
            ScenarioSpec(n_sites=3, no_voters=frozenset({2})),
        )
        assert result.votes[2] == "no"
        assert result.votes[3] in ("yes", None)

    def test_trace_available_for_analysis(self):
        result = run_scenario(create_protocol("terminating-three-phase-commit"), ScenarioSpec())
        assert result.trace.count("decision") == 3
        assert result.trace.count("send") > 0
