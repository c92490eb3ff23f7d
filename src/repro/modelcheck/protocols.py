"""Which simulator protocols the model checker can check, and how.

The simulator registry (:mod:`repro.protocols.registry`) and the FSA
catalog (:mod:`repro.core.catalog`) use different vocabularies: the
simulator's ``extended-two-phase-commit`` is the catalog's 2PC automata
*plus* the Rule (a)/(b) augmentation of :mod:`repro.core.rules`.  This
module is the bridge: it names the simulator protocols that have a finite
FSA model and hands the checker the *same* compiled plan
(:mod:`repro.protocols.plan`) the simulator's roles execute, so
``repro modelcheck`` and the differential harness accept exactly the names
``repro sweep`` does and check exactly the tables it runs.

The terminating protocols (cooperative termination via surviving-site
probes) are out of scope: their probe exchange is a timed gossip loop, not
an FSA transition relation, so there is no finite global graph to
enumerate.  Asking for one raises a :class:`UncheckableProtocolError`
naming the checkable alternatives.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fsa import CommitProtocolSpec
from repro.core.rules import AugmentedProtocol
from repro.protocols.registry import create_protocol

#: The simulator-registry names whose roles execute an FSA spec.
_CHECKABLE = frozenset(
    {
        "two-phase-commit",
        "extended-two-phase-commit",
        "three-phase-commit",
        "naive-extended-three-phase-commit",
        "quorum-commit",
    }
)


class UncheckableProtocolError(ValueError):
    """Raised for protocols without a finite FSA global graph to explore."""

    def __init__(self, name: str):
        super().__init__(
            f"protocol {name!r} is not model-checkable; "
            f"checkable protocols: {', '.join(checkable_protocols())}"
        )
        self.name = name


def checkable_protocols() -> list[str]:
    """The simulator-registry names the checker accepts, sorted."""
    return sorted(_CHECKABLE)


def resolve_protocol(
    name: str, n_sites: int
) -> tuple[CommitProtocolSpec, Optional[AugmentedProtocol]]:
    """Resolve a simulator protocol name for the checker.

    Returns the FSA protocol spec and, for the extended variants, the
    Rule (a)/(b) augmentation instantiated for ``n_sites`` (``None`` for the
    plain protocols, whose simulator roles ignore timeouts and bounces).
    Both are the shared objects of the protocol's compiled plan.
    """
    if name not in _CHECKABLE:
        raise UncheckableProtocolError(name)
    plan = create_protocol(name).plan(n_sites)
    return plan.spec, plan.augmentation
