"""Concurrency sets, sender sets and committable-state classification.

These are the three notions Section 2-3 of the paper builds on:

* the **concurrency set** ``C(s)`` of a local state ``s`` is the set of local
  states potentially concurrent with it in some execution;
* the **sender set** ``S(s)`` is the set of local states that send messages
  receivable in ``s``;
* a local state is **committable** if its occupancy by any site implies that
  all sites have voted yes on committing the transaction.

All three are computed from the reachable global-state graph produced by
:mod:`repro.core.reachability`, for a given number of participating sites,
straight from its packed rows (no global state is decoded).
Local states are identified by ``(role, state-name)`` pairs because all
slaves run the same automaton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.fsa import CommitProtocolSpec, MASTER_ROLE, SLAVE_ROLE
from repro.core.reachability import ReachabilityResult, explore

LocalStateId = tuple[str, str]  # (role, state name)


@dataclass
class ConcurrencyAnalysis:
    """The derived sets for one protocol instantiated with ``n_sites`` sites."""

    spec: CommitProtocolSpec
    n_sites: int
    concurrency: dict[LocalStateId, set[LocalStateId]] = field(default_factory=dict)
    senders: dict[LocalStateId, set[LocalStateId]] = field(default_factory=dict)
    committable: dict[LocalStateId, bool] = field(default_factory=dict)
    occupied: set[LocalStateId] = field(default_factory=set)
    global_state_count: int = 0

    # ------------------------------------------------------------------
    # classification helpers
    # ------------------------------------------------------------------
    def is_commit_state(self, local: LocalStateId) -> bool:
        """True when ``local`` is a commit state of its role."""
        role, state = local
        return state in self.spec.automaton(role).commit_states

    def is_abort_state(self, local: LocalStateId) -> bool:
        """True when ``local`` is an abort state of its role."""
        role, state = local
        return state in self.spec.automaton(role).abort_states

    def concurrency_set(self, role: str, state: str) -> set[LocalStateId]:
        """The paper's ``C(s)`` for the local state ``state`` of ``role``."""
        return set(self.concurrency.get((role, state), set()))

    def sender_set(self, role: str, state: str) -> set[LocalStateId]:
        """The paper's ``S(s)``."""
        return set(self.senders.get((role, state), set()))

    def is_committable(self, role: str, state: str) -> bool:
        """True when ``(role, state)`` is committable (Section 3's definition)."""
        return self.committable.get((role, state), False)

    def has_commit_in_concurrency_set(self, role: str, state: str) -> bool:
        """True when ``C((role, state))`` contains some commit state.

        Scans ``C`` in sorted order, so the states it checks before the
        first hit do not depend on the hash seed.
        """
        return any(map(self.is_commit_state, sorted(self.concurrency.get((role, state), ()))))

    def has_abort_in_concurrency_set(self, role: str, state: str) -> bool:
        """True when ``C((role, state))`` contains some abort state (scanned
        in sorted order, like :meth:`has_commit_in_concurrency_set`)."""
        return any(map(self.is_abort_state, sorted(self.concurrency.get((role, state), ()))))

    def local_states(self) -> tuple[LocalStateId, ...]:
        """Every (role, state) of the protocol, reachable or not."""
        return self.spec.local_states()


def analyze(
    spec: CommitProtocolSpec,
    n_sites: int,
    *,
    reachability: Optional[ReachabilityResult] = None,
) -> ConcurrencyAnalysis:
    """Compute concurrency sets, sender sets and committability for ``spec``.

    Args:
        spec: the commit protocol.
        n_sites: number of participating sites used for the instantiation.
        reachability: a pre-computed reachability result (computed afresh
            when omitted).
    """
    result = reachability if reachability is not None else explore(spec, n_sites)
    analysis = ConcurrencyAnalysis(
        spec=spec, n_sites=n_sites, global_state_count=result.state_count
    )

    # Concurrency sets and committability come straight from occupancies,
    # read off the packed rows: only the distinct (local-state vector,
    # all-voted) pairs matter.
    everyone = (1 << n_sites) - 1
    occupancies = {(row[:n_sites], row[n_sites] == everyone) for row in result.rows}
    site_ids = [
        [(result.role_of(site), name) for name in result.local_names(site)]
        for site in range(1, n_sites + 1)
    ]
    committable_so_far: dict[LocalStateId, bool] = {}
    for vector, all_voted in occupancies:
        locals_ = [ids[local] for ids, local in zip(site_ids, vector)]
        for position, local in enumerate(locals_):
            analysis.occupied.add(local)
            cell = analysis.concurrency.setdefault(local, set())
            cell.update(locals_[:position])
            cell.update(locals_[position + 1 :])
            # Committable: every occupancy must have all sites voted yes.
            previous = committable_so_far.get(local, True)
            committable_so_far[local] = previous and all_voted
    # States never occupied are not committable by (vacuous) convention;
    # callers should check `occupied` when it matters.
    for local in spec.local_states():
        analysis.concurrency.setdefault(local, set())
        analysis.senders.setdefault(local, set())
        analysis.committable[local] = committable_so_far.get(local, False)

    # Sender sets come from the reception relation recorded during exploration.
    for receiver, senders in result.receptions.items():
        analysis.senders.setdefault(receiver, set()).update(senders)

    return analysis


def format_analysis(analysis: ConcurrencyAnalysis) -> str:
    """Human-readable summary of the analysis (used by examples and docs)."""
    lines = [
        f"protocol: {analysis.spec.name} (n={analysis.n_sites}, "
        f"{analysis.global_state_count} reachable global states)",
    ]
    for role in (MASTER_ROLE, SLAVE_ROLE):
        automaton = analysis.spec.automaton(role)
        for state in sorted(automaton.states):
            local = (role, state)
            if local not in analysis.occupied:
                continue
            concurrency = ", ".join(
                f"{r}:{s}" for r, s in sorted(analysis.concurrency_set(role, state))
            )
            senders = ", ".join(
                f"{r}:{s}" for r, s in sorted(analysis.sender_set(role, state))
            )
            committable = "committable" if analysis.is_committable(role, state) else "noncommittable"
            lines.append(
                f"  {role}:{state:<3} [{committable}]  C(s) = {{{concurrency}}}  S(s) = {{{senders}}}"
            )
    return "\n".join(lines)
