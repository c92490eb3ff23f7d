"""The protocol set as one table: what every registered name is made of.

Each row is a protocol of the paper's set and the shape of its compiled
plan at n = 3: the catalog spec it runs, whether the plan carries the
Rule (a)/(b) augmentation, whether it carries a Theorem 10 termination
plan, whether the compiled relation is untimed, and whether the model
checker accepts it.  Reads only the public registry, plan and checker
surfaces, so it holds however the rows are implemented.
"""

import pytest

from repro.modelcheck.protocols import checkable_protocols
from repro.protocols.registry import available_protocols, create_protocol

# name: (spec name, augmented, terminating, untimed, checkable)
TABLE = {
    "two-phase-commit": ("two-phase-commit", False, False, True, True),
    "extended-two-phase-commit": ("two-phase-commit", True, False, True, True),
    "three-phase-commit": ("three-phase-commit", False, False, True, True),
    "naive-extended-three-phase-commit": ("three-phase-commit", True, False, True, True),
    "terminating-three-phase-commit": ("three-phase-commit", False, True, False, False),
    "terminating-three-phase-commit-no-transient": (
        "three-phase-commit", False, True, False, False,
    ),
    "quorum-commit": ("quorum-commit", False, False, True, True),
    "terminating-quorum-commit": ("quorum-commit", False, True, False, False),
}


def test_the_table_names_exactly_the_registered_protocols():
    assert sorted(TABLE) == available_protocols()


@pytest.mark.parametrize("name", sorted(TABLE))
def test_row(name):
    spec_name, augmented, terminating, untimed, checkable = TABLE[name]
    plan = create_protocol(name).plan(3)
    assert plan.spec.name == spec_name
    assert (plan.augmentation is not None) is augmented
    assert (plan.termination is not None) is terminating
    assert plan.relation.untimed is untimed
    assert (name in checkable_protocols()) is checkable
