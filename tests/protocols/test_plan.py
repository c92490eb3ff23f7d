"""The per-process compiled plan: shared, immutable, one per (name, n)."""

import dataclasses

import pytest

from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.core.catalog import two_phase_commit
from repro.core.rules import FinalAction, augment_with_rules
from repro.modelcheck import resolve_protocol
from repro.protocols.registry import create_protocol

from tests.protocols.conftest import make_context

EXTENDED = ("extended-two-phase-commit", "naive-extended-three-phase-commit")


class TestSharing:
    @pytest.mark.parametrize("n_sites", [3, 4])
    @pytest.mark.parametrize("name", EXTENDED)
    def test_checker_and_simulator_roles_hold_the_same_augmentation(self, name, n_sites):
        spec, augmentation = resolve_protocol(name, n_sites)
        definition = create_protocol(name)
        _, master_ctx = make_context(site=1, n_sites=n_sites)
        _, slave_ctx = make_context(site=2, n_sites=n_sites)
        master = definition.coordinator(master_ctx)
        slave = definition.participant(slave_ctx)
        assert augmentation is not None
        assert master.augmentation is augmentation
        assert slave.augmentation is augmentation
        assert master.spec is spec and slave.spec is spec

    def test_transition_index_matches_the_automaton(self):
        plan = create_protocol("three-phase-commit").plan(3)
        for role in (MASTER_ROLE, SLAVE_ROLE):
            tables = plan.role(role)
            automaton = plan.spec.automaton(role)
            assert set(tables.transitions_from) == set(automaton.states)
            for state in automaton.states:
                assert tables.transitions_from[state] == automaton.transitions_from(state)
            assert tables.final_states == automaton.final_states


class TestImmutability:
    """One caller must not be able to poison every later scenario."""

    def test_augmentation_tables_reject_writes(self):
        augmentation = create_protocol("extended-two-phase-commit").plan(3).augmentation
        key = (SLAVE_ROLE, "w")
        with pytest.raises(TypeError):
            augmentation.timeout_action[key] = FinalAction.COMMIT
        with pytest.raises(TypeError):
            augmentation.undeliverable_action[key] = FinalAction.COMMIT
        with pytest.raises(TypeError):
            del augmentation.timeout_action[key]
        with pytest.raises(AttributeError):
            augmentation.ambiguous.add(key)
        with pytest.raises(dataclasses.FrozenInstanceError):
            augmentation.timeout_action = {}

    def test_augmentation_copies_the_tables_it_is_given(self):
        derived = augment_with_rules(two_phase_commit(), 3)
        source = dict(derived.timeout_action)
        copy = dataclasses.replace(derived, timeout_action=source)
        source.clear()
        assert copy.timeout_action == derived.timeout_action

    def test_plan_and_role_tables_reject_writes(self):
        plan = create_protocol("extended-two-phase-commit").plan(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.augmentation = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.master.final_states = frozenset()
        with pytest.raises(TypeError):
            plan.slave.transitions_from["w"] = ()
