"""Name-based lookup of the executable protocols.

The registry is the pickling boundary of the sweep engine: tasks carry a
protocol *name*, never a protocol object, so chunks ship to worker
processes (and other machines) as plain data and each worker instantiates
its own roles via :func:`create_protocol`.

Invariants:

* Names are stable identifiers -- they key the result cache's spec hashes
  (renaming a protocol invalidates its cached sweeps, by design).
* :func:`available_protocols` enumerates in sorted name order, which fixes
  the protocol axis order of every ``--protocol all`` sweep.
* Definitions are fresh; compiled plans are shared, immutable, one per
  (name, n) per process.  Every lookup constructs a new, trivially cheap
  :class:`~repro.protocols.base.ProtocolDefinition` and no role state
  crosses scenarios; the spec, its local-step relation and the Rule (a)/(b) /
  Theorem 10 tables come from :func:`repro.protocols.plan.compiled_plan`.

The names cover the paper's protocol cast: 2PC (Fig. 1), extended 2PC
(Fig. 2), 3PC (Fig. 3), the naive extended 3PC of Section 3, the
terminating 3PC of Sections 5-6 (with and without the transient rule), and
quorum commit plain plus its Theorem 10 termination construction.  Every
definition is an :class:`~repro.protocols.fsa_role.FSAProtocolDefinition`:
the eight differ only in their spec and in which extension (none,
Rule (a)/(b), or the termination protocol with or without the transient
rule) the compiled relation carries.
"""

from __future__ import annotations

from typing import Callable

from repro.protocols.base import ProtocolDefinition
from repro.protocols.extended_two_phase import ExtendedTwoPhaseCommit
from repro.protocols.quorum import QuorumCommit, TerminatingQuorumCommit
from repro.protocols.three_phase import TerminatingThreePhaseCommit, ThreePhaseCommit
from repro.protocols.three_phase_naive import NaiveExtendedThreePhaseCommit
from repro.protocols.two_phase import TwoPhaseCommit

_REGISTRY: dict[str, Callable[[], ProtocolDefinition]] = {
    "two-phase-commit": TwoPhaseCommit,
    "extended-two-phase-commit": ExtendedTwoPhaseCommit,
    "three-phase-commit": ThreePhaseCommit,
    "naive-extended-three-phase-commit": NaiveExtendedThreePhaseCommit,
    "terminating-three-phase-commit": TerminatingThreePhaseCommit,
    "terminating-three-phase-commit-no-transient": lambda: TerminatingThreePhaseCommit(
        transient_rule=False
    ),
    "quorum-commit": QuorumCommit,
    "terminating-quorum-commit": TerminatingQuorumCommit,
}


def available_protocols() -> list[str]:
    """Names of every registered protocol."""
    return sorted(_REGISTRY)


def create_protocol(name: str) -> ProtocolDefinition:
    """Instantiate the protocol registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from exc
    return factory()
