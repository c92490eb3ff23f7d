"""The per-process compiled plan: shared, immutable, one per (name, n)."""

import dataclasses

import pytest

from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.core.catalog import two_phase_commit
from repro.core.relation import compile_relation
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
        plan = definition.plan(n_sites)
        assert augmentation is not None
        assert plan.augmentation is augmentation and plan.spec is spec
        # Both roles interpret the plan's relation, and the checker's
        # explorer compiles the same relation from the same inputs.
        assert master.relation is plan.relation and slave.relation is plan.relation
        assert compile_relation(spec, augmentation) == plan.relation

    def test_transition_index_matches_the_automaton(self):
        plan = create_protocol("three-phase-commit").plan(3)
        for role in (MASTER_ROLE, SLAVE_ROLE):
            tables = plan.relation.role(role)
            automaton = plan.spec.automaton(role)
            assert set(tables) == set(automaton.states)
            for state in automaton.states:
                steps = tables[state].steps
                assert tuple(s.transition for s in steps) == automaton.transitions_from(state)
                assert tables[state].final == automaton.is_final(state)


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
            plan.relation.master = {}
        with pytest.raises(TypeError):
            plan.relation.slave["w"] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.relation.slave["w"].timeout = None
