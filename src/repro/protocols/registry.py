"""The protocol table: the paper's eight protocols, one frozen row each.

In the paper every protocol is a set of finite-state automata plus exactly
one extension, so every row is a name, the catalog spec it runs and one
:class:`~repro.protocols.plan.Extension`.  :meth:`Protocol.plan` is the
row's shared compiled plan for n sites
(:func:`repro.protocols.plan.compiled_plan`) and :meth:`Protocol.role`
builds the master's or a slave's :class:`~repro.protocols.fsa_role.FSARole`
on it.

The registry is the pickling boundary of the sweep engine: tasks carry a
protocol *name*, never a row, so chunks ship to worker processes (and other
machines) as plain data and each worker looks its rows up via
:func:`create_protocol`.

Invariants:

* Names are stable identifiers -- they key the result cache's spec hashes
  (renaming a protocol invalidates its cached sweeps, by design).
* :func:`available_protocols` enumerates in sorted name order, which fixes
  the protocol axis order of every ``--protocol all`` sweep.
* Rows are frozen and shared; roles are fresh per scenario, so no role
  state crosses scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.catalog import quorum_commit, three_phase_commit, two_phase_commit
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE, CommitProtocolSpec
from repro.protocols.base import ProtocolContext
from repro.protocols.fsa_role import FSARole
from repro.protocols.plan import Extension, ProtocolPlan, compiled_plan


@dataclass(frozen=True)
class Protocol:
    """One protocol: a catalog spec plus the one extension it carries."""

    name: str
    spec_factory: Callable[[], CommitProtocolSpec]
    extension: Extension = Extension.NONE

    def plan(self, n_sites: int) -> ProtocolPlan:
        """The shared compiled plan of this protocol for ``n_sites`` sites."""
        return compiled_plan(self, n_sites)

    def role(self, ctx: ProtocolContext) -> FSARole:
        """Build the role of ``ctx``'s site: the master's or a slave's."""
        role = MASTER_ROLE if ctx.node.node_id == ctx.master else SLAVE_ROLE
        return FSARole(ctx, self.plan(len(ctx.participants)), role)


_TABLE = (
    # Fig. 1: plain 2PC; slaves block in w under a partition.
    Protocol("two-phase-commit", two_phase_commit),
    # Fig. 2: Rule (a)/(b) make 2PC resilient for two sites only (Sec. 3).
    Protocol("extended-two-phase-commit", two_phase_commit, Extension.RULES),
    # Fig. 3: plain 3PC; non-blocking for site failures, blocks under partitions.
    Protocol("three-phase-commit", three_phase_commit),
    # Sec. 3, Lemma 3: Rule (a)/(b) alone cannot make 3PC resilient.
    Protocol("naive-extended-three-phase-commit", three_phase_commit, Extension.RULES),
    # Secs. 5.3 and 6: the paper's contribution, Fig. 8's w -> c relay included.
    Protocol("terminating-three-phase-commit", three_phase_commit, Extension.TERMINATION),
    # Sec. 5.3 without the Sec. 6 rule: correct for permanent partitions only.
    Protocol(
        "terminating-three-phase-commit-no-transient",
        three_phase_commit,
        Extension.TERMINATION_PERMANENT,
    ),
    # Skeen 1982 quorum-commit skeleton; blocks under partitions like 3PC.
    Protocol("quorum-commit", quorum_commit),
    # Theorem 10: the Sec. 5.3 protocol with the derived promotion message.
    Protocol("terminating-quorum-commit", quorum_commit, Extension.TERMINATION),
)

_REGISTRY = {protocol.name: protocol for protocol in _TABLE}


def available_protocols() -> list[str]:
    """Names of every registered protocol."""
    return sorted(_REGISTRY)


def create_protocol(name: str) -> Protocol:
    """The protocol row registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from exc
