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
verdicts.  The one rule is :func:`~repro.core.reachability.refuse_timed`,
which :class:`~repro.core.reachability.ModelSetup` also applies: it raises
an :class:`UncheckableProtocolError` naming the protocol and saying why.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fsa import CommitProtocolSpec
from repro.core.reachability import UncheckableProtocolError, refuse_timed
from repro.core.rules import AugmentedProtocol
from repro.protocols.plan import ProtocolPlan
from repro.protocols.registry import available_protocols, create_protocol

#: Checkability is a property of the relation's entries, not of n: probe
#: it on the instance most checks use.
_PROBE_SITES = 3


def _checkable(name: str) -> bool:
    try:
        refuse_timed(create_protocol(name).plan(_PROBE_SITES).relation)
    except UncheckableProtocolError:
        return False
    return True


def checkable_protocols() -> list[str]:
    """The simulator-registry names the checker accepts, sorted."""
    return [name for name in available_protocols() if _checkable(name)]


def checkable_plan(name: str, n_sites: int) -> ProtocolPlan:
    """The compiled plan of a checkable simulator protocol for ``n_sites``."""
    if name not in available_protocols():
        raise UncheckableProtocolError(name, "unknown protocol")
    plan = create_protocol(name).plan(n_sites)
    refuse_timed(plan.relation)
    return plan


def resolve_protocol(
    name: str, n_sites: int
) -> tuple[CommitProtocolSpec, Optional[AugmentedProtocol]]:
    """The FSA spec and, for the extended variants, the Rule (a)/(b)
    augmentation (``None`` for the plain protocols) of :func:`checkable_plan`:
    a shim that only ``bench/probes.py`` and tests feed to the spec+augmentation
    ``explore_model``; ROADMAP item 5(f) deletes both."""
    plan = checkable_plan(name, n_sites)
    return plan.spec, plan.augmentation
