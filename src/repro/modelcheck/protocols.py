"""Which simulator protocols the model checker can check, and how.

The simulator registry (:mod:`repro.protocols.registry`) and the FSA
catalog (:mod:`repro.core.catalog`) use different vocabularies: the
simulator's ``extended-two-phase-commit`` is the catalog's 2PC automata
*plus* the Rule (a)/(b) augmentation of :mod:`repro.core.rules`.  This
module is the bridge: it hands the checker the *same* compiled plan
(:mod:`repro.protocols.plan`) the simulator's roles execute, so
``repro modelcheck`` and the differential harness accept exactly the names
``repro sweep`` does and check exactly the tables it runs.

Checkability is read off that plan, not listed: a protocol is checkable
exactly when its compiled relation is
:attr:`~repro.core.relation.ProtocolRelation.untimed` -- it uses no named
timer and no site variable.  The explorer enumerates steps and
Rule (a)/(b) decisions over untimed global states; the terminating
protocols' probe window, waits and transient rule are timer-driven, guarded
actions, and enumerating them without explicit time would give unsound
verdicts.  Asking for one raises an :class:`UncheckableProtocolError`
saying so and naming the checkable alternatives.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fsa import CommitProtocolSpec
from repro.core.rules import AugmentedProtocol
from repro.protocols.registry import available_protocols, create_protocol

#: Checkability is a property of the relation's entries, not of n: probe
#: it on the instance most checks use.
_PROBE_SITES = 3

_TIMED = (
    "its termination protocol is timer-driven (named timers and site "
    "variables), which the untimed explorer cannot enumerate soundly; "
    "checking it needs explicit time"
)


class UncheckableProtocolError(ValueError):
    """Raised for protocols whose relation the untimed explorer cannot check."""

    def __init__(self, name: str, reason: str):
        super().__init__(
            f"protocol {name!r} is not model-checkable: {reason}; "
            f"checkable protocols: {', '.join(checkable_protocols())}"
        )
        self.name = name


def checkable_protocols() -> list[str]:
    """The simulator-registry names the checker accepts, sorted."""
    return [
        name
        for name in available_protocols()
        if create_protocol(name).plan(_PROBE_SITES).relation.untimed
    ]


def resolve_protocol(
    name: str, n_sites: int
) -> tuple[CommitProtocolSpec, Optional[AugmentedProtocol]]:
    """Resolve a simulator protocol name for the checker.

    Returns the FSA protocol spec and, for the extended variants, the
    Rule (a)/(b) augmentation instantiated for ``n_sites`` (``None`` for the
    plain protocols, whose simulator roles ignore timeouts and bounces).
    Both are the shared objects of the protocol's compiled plan.
    """
    if name not in available_protocols():
        raise UncheckableProtocolError(name, "unknown protocol")
    plan = create_protocol(name).plan(n_sites)
    if not plan.relation.untimed:
        raise UncheckableProtocolError(name, _TIMED)
    return plan.spec, plan.augmentation
