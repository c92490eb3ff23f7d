"""Tests for global-state reachability, concurrency sets and sender sets.

These tests pin the facts the paper states in Sections 2-3 against the
mechanically computed sets:

* the slave wait state of 2PC has both a commit and an abort in its
  concurrency set;
* in 3PC, ``abort in C(w_slave)``, ``commit in C(p_slave)`` and
  ``p_master in C(w_slave)`` (the exact facts behind the Section 3
  counterexample);
* committability matches the paper's classification.
"""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages as m
from repro.core.catalog import (
    four_phase_commit,
    quorum_commit,
    three_phase_commit,
    two_phase_commit,
)
from repro.core.concurrency import analyze, format_analysis
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.core.reachability import ExplorationError, explore


class TestExploration:
    def test_requires_at_least_two_sites(self):
        with pytest.raises(ValueError):
            explore(two_phase_commit(), 1)

    def test_two_phase_three_sites_state_count_is_finite(self):
        result = explore(two_phase_commit(), 3)
        assert 10 < result.state_count < 200

    def test_initial_state_has_only_the_request_outstanding(self):
        result = explore(two_phase_commit(), 3)
        assert len(result.initial.outstanding) == 1
        assert next(iter(result.initial.outstanding)).kind == m.REQUEST

    def test_every_final_global_state_is_consistent(self):
        """In failure-free executions no global state mixes commit and abort."""
        for spec in (two_phase_commit(), three_phase_commit(), quorum_commit()):
            result = explore(spec, 3)
            for state in result.final_states():
                decisions = set()
                for site in range(1, 4):
                    automaton = spec.master if site == 1 else spec.slave
                    local = state.local(site)
                    if local in automaton.commit_states:
                        decisions.add("commit")
                    if local in automaton.abort_states:
                        decisions.add("abort")
                assert decisions != {"commit", "abort"}, f"{spec.name}: {state}"

    def test_commit_terminal_state_reachable(self):
        result = explore(three_phase_commit(), 3)
        assert any(
            all(state.local(site) == m.COMMITTED for site in range(1, 4))
            for state in result.states
        )

    def test_abort_terminal_state_reachable(self):
        result = explore(three_phase_commit(), 3)
        assert any(
            all(state.local(site) == m.ABORTED for site in range(1, 4))
            for state in result.states
        )

    def test_max_states_guard(self):
        with pytest.raises(ExplorationError):
            explore(four_phase_commit(), 4, max_states=5)

    def test_global_state_accessors(self):
        result = explore(two_phase_commit(), 2)
        state = result.initial
        assert state.n_sites == 2
        assert state.local(1) == m.INITIAL
        assert not state.all_voted()
        assert state.messages_to(1, m.REQUEST)
        assert "q" in str(state)

    def test_role_of(self):
        result = explore(two_phase_commit(), 3)
        assert result.role_of(1) == MASTER_ROLE
        assert result.role_of(2) == SLAVE_ROLE


class TestTwoPhaseConcurrency:
    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze(two_phase_commit(), 3)

    def test_slave_wait_has_commit_and_abort_concurrent(self, analysis):
        """The fact behind Lemma 1's indictment of 2PC."""
        assert analysis.has_commit_in_concurrency_set(SLAVE_ROLE, m.WAIT)
        assert analysis.has_abort_in_concurrency_set(SLAVE_ROLE, m.WAIT)

    def test_master_wait_has_no_commit_concurrent(self, analysis):
        assert not analysis.has_commit_in_concurrency_set(MASTER_ROLE, m.WAIT)

    def test_commit_states_are_committable(self, analysis):
        assert analysis.is_committable(MASTER_ROLE, m.COMMITTED)
        assert analysis.is_committable(SLAVE_ROLE, m.COMMITTED)

    def test_wait_states_are_noncommittable(self, analysis):
        assert not analysis.is_committable(MASTER_ROLE, m.WAIT)
        assert not analysis.is_committable(SLAVE_ROLE, m.WAIT)

    def test_sender_set_of_master_wait_is_slave_q(self, analysis):
        assert analysis.sender_set(MASTER_ROLE, m.WAIT) == {(SLAVE_ROLE, m.INITIAL)}

    def test_sender_set_of_slave_wait_is_master_wait(self, analysis):
        assert analysis.sender_set(SLAVE_ROLE, m.WAIT) == {(MASTER_ROLE, m.WAIT)}

    def test_format_analysis_mentions_both_roles(self, analysis):
        text = format_analysis(analysis)
        assert "master:w" in text
        assert "slave:w" in text
        assert "noncommittable" in text


class TestThreePhaseConcurrency:
    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze(three_phase_commit(), 3)

    def test_abort_in_concurrency_set_of_slave_wait(self, analysis):
        """Section 3: ``abort in C(w3)``."""
        assert analysis.has_abort_in_concurrency_set(SLAVE_ROLE, m.WAIT)

    def test_no_commit_in_concurrency_set_of_slave_wait(self, analysis):
        assert not analysis.has_commit_in_concurrency_set(SLAVE_ROLE, m.WAIT)

    def test_commit_in_concurrency_set_of_slave_prepared(self, analysis):
        """Section 3: ``commit in C(p2)``."""
        assert analysis.has_commit_in_concurrency_set(SLAVE_ROLE, m.PREPARED)

    def test_master_prepared_concurrent_with_slave_wait(self, analysis):
        """Section 3: ``p2 in C(w3)`` (stated with sites swapped for roles)."""
        assert (MASTER_ROLE, m.PREPARED) in analysis.concurrency_set(SLAVE_ROLE, m.WAIT)
        assert (SLAVE_ROLE, m.PREPARED) in analysis.concurrency_set(SLAVE_ROLE, m.WAIT)

    def test_no_state_mixes_commit_and_abort_in_concurrency_set(self, analysis):
        for role, state in analysis.local_states():
            both = analysis.has_commit_in_concurrency_set(
                role, state
            ) and analysis.has_abort_in_concurrency_set(role, state)
            assert not both, f"{role}:{state}"

    def test_prepared_states_are_committable(self, analysis):
        """Matches the paper's committable classification of 3PC."""
        assert analysis.is_committable(MASTER_ROLE, m.PREPARED)
        assert analysis.is_committable(SLAVE_ROLE, m.PREPARED)

    def test_wait_and_initial_are_noncommittable(self, analysis):
        for role in (MASTER_ROLE, SLAVE_ROLE):
            assert not analysis.is_committable(role, m.INITIAL)
            assert not analysis.is_committable(role, m.WAIT)

    def test_slave_prepared_receives_from_master_prepared(self, analysis):
        assert (MASTER_ROLE, m.PREPARED) in analysis.sender_set(SLAVE_ROLE, m.PREPARED)


class TestScalingWithSites:
    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_lemma_relevant_facts_stable_across_sizes(self, n_sites):
        analysis = analyze(three_phase_commit(), n_sites)
        assert not analysis.has_commit_in_concurrency_set(SLAVE_ROLE, m.WAIT)
        assert analysis.is_committable(SLAVE_ROLE, m.PREPARED)

    @pytest.mark.parametrize("n_sites", [3, 4, 5])
    def test_two_phase_defect_present_at_every_multisite_size(self, n_sites):
        analysis = analyze(two_phase_commit(), n_sites)
        assert analysis.has_commit_in_concurrency_set(SLAVE_ROLE, m.WAIT)
        # another slave may still vote no while this one waits -> abort concurrent
        assert analysis.has_abort_in_concurrency_set(SLAVE_ROLE, m.WAIT)

    def test_two_site_two_phase_wait_has_no_abort_concurrent(self):
        """With a single slave there is no other voter, which is exactly why the
        extended 2PC of Fig. 2 is resilient for two sites but not more."""
        analysis = analyze(two_phase_commit(), 2)
        assert analysis.has_commit_in_concurrency_set(SLAVE_ROLE, m.WAIT)
        assert not analysis.has_abort_in_concurrency_set(SLAVE_ROLE, m.WAIT)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=2, max_value=5))
    def test_property_state_count_grows_with_sites(self, n_sites):
        smaller = explore(two_phase_commit(), n_sites).state_count
        larger = explore(two_phase_commit(), n_sites + 1).state_count
        assert larger > smaller


_DERIVATION_SCRIPT = """
from repro.core.concurrency import ConcurrencyAnalysis
from repro.protocols.plan import Extension, compiled_plan
from repro.protocols.registry import available_protocols, create_protocol

calls = []
is_commit_state = ConcurrencyAnalysis.is_commit_state

def spy(self, local):
    calls.append(local)
    return is_commit_state(self, local)

ConcurrencyAnalysis.is_commit_state = spy
for protocol in map(create_protocol, available_protocols()):
    if protocol.extension is not Extension.NONE:
        compiled_plan(protocol, 3)
print(calls)
"""


def test_rule_derivation_work_is_hash_seed_independent():
    """Concurrency sets are scanned in sorted order, so deriving every
    extended protocol's plan asks the same ``is_commit_state`` questions,
    in the same order, under any hash seed."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for seed in ("5", "6"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", _DERIVATION_SCRIPT],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"[(")
