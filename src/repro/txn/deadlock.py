"""Deadlock handling for the concurrent-transaction scheduler.

Strict 2PL with incremental (operation-by-operation) lock acquisition can
deadlock: transaction A holds ``k1`` and waits for ``k2`` while B holds
``k2`` and waits for ``k1``.  The scheduler supports the two classic
remedies, individually or together, via :class:`DeadlockPolicy`:

* **waits-for cycle detection** -- after every request that queues, the
  scheduler checks whether the new waiter can reach itself in the union
  waits-for graph (every edge a queued request adds touches its owner, so
  an acyclic graph gains a cycle only through the new waiter).  Only then
  -- or while an earlier search left acyclicity unknown -- is the union of
  the per-site :meth:`~repro.db.locks.LockManager.waits_for` graphs built
  (:func:`merge_waits_for`) and searched (:func:`find_cycle`); one cycle
  member is aborted as the victim, chosen by the configured
  :class:`VictimPolicy` (:func:`select_victim`).  The functions here are
  that whole-graph path and the only victim-selection code; the
  waiter-rooted walk lives with the scheduler
  (``TransactionScheduler._break_deadlocks``).
* **lock-wait timeouts** -- a transaction whose lock wait exceeds
  ``wait_timeout`` simulated time units is aborted, which also clears
  waiters stuck behind a *blocked* commit protocol's locks (the paper's
  availability cost, Section 1-2).

:func:`find_cycle` and :func:`select_victim` are deterministic: nodes and
successors are visited in sorted order and every policy breaks ties by
admission index, so the same graph always yields the same cycle and the
same victim -- a requirement for worker-count-independent sweeps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Optional


class VictimPolicy(enum.Enum):
    """Which member of a waits-for cycle is aborted.

    Every policy is deterministic (ties break towards the youngest
    admission index) so sweeps stay byte-identical across worker counts:

    * ``YOUNGEST`` -- largest admission index; favours the transactions
      that have done the most work (the PR 3 default).
    * ``OLDEST`` -- smallest admission index; starves long-runners but
      bounds how long a lock chain can grow.
    * ``FEWEST_LOCKS`` -- the member holding the fewest locks across all
      sites forfeits the least acquired work.
    * ``MOST_RETRIES_WINS`` -- the member with the fewest prior attempts
      is sacrificed, so much-retried transactions eventually get through
      instead of being victimized forever (anti-starvation under retry
      storms).
    """

    YOUNGEST = "youngest"
    OLDEST = "oldest"
    FEWEST_LOCKS = "fewest-locks"
    MOST_RETRIES_WINS = "most-retries-wins"


def select_victim(
    cycle: Iterable[str],
    policy: VictimPolicy,
    *,
    index: Mapping[str, int],
    locks_held: Mapping[str, int],
    attempts: Mapping[str, int],
) -> str:
    """The cycle member :class:`VictimPolicy` sacrifices.

    Args:
        cycle: transaction ids forming the waits-for cycle.
        index: admission index per transaction (unique, so every policy's
            tiebreak is total).
        locks_held: locks currently held across all sites, per transaction.
        attempts: 1-based attempt number per transaction.
    """
    members = sorted(cycle)
    if not members:
        raise ValueError("cannot select a victim from an empty cycle")
    if policy is VictimPolicy.YOUNGEST:
        return max(members, key=lambda txn: index[txn])
    if policy is VictimPolicy.OLDEST:
        return min(members, key=lambda txn: index[txn])
    if policy is VictimPolicy.FEWEST_LOCKS:
        return min(members, key=lambda txn: (locks_held[txn], -index[txn]))
    if policy is VictimPolicy.MOST_RETRIES_WINS:
        return min(members, key=lambda txn: (attempts[txn], -index[txn]))
    raise ValueError(f"unknown victim policy {policy!r}")


@dataclass(frozen=True)
class DeadlockPolicy:
    """How the scheduler breaks (or bounds) lock waits.

    Attributes:
        detect_cycles: run waits-for cycle detection after every queued
            request and abort one transaction of any cycle found.
        wait_timeout: abort a transaction whose current lock wait exceeds
            this many simulated time units (``None`` disables timeouts).
        victim: which cycle member the detector aborts.
    """

    detect_cycles: bool = True
    wait_timeout: Optional[float] = None
    victim: VictimPolicy = VictimPolicy.YOUNGEST

    def __post_init__(self) -> None:
        if self.wait_timeout is not None and self.wait_timeout <= 0:
            raise ValueError(f"wait_timeout must be positive, got {self.wait_timeout}")


def merge_waits_for(
    graphs: Mapping[int, Mapping[str, AbstractSet[str]]]
) -> dict[str, set[str]]:
    """Union per-site waits-for maps into one global graph."""
    merged: dict[str, set[str]] = {}
    for site in sorted(graphs):
        for owner, waits in graphs[site].items():
            merged.setdefault(owner, set()).update(waits)
    return merged


def find_cycle(edges: Mapping[str, AbstractSet[str]]) -> Optional[list[str]]:
    """Return one waits-for cycle as a node list, or ``None``.

    Deterministic: iterates start nodes and successors in sorted order, so
    identical graphs produce identical cycles.  The returned list contains
    each cycle member once (no repeated closing node).
    """
    successors = {node: sorted(targets) for node, targets in edges.items()}
    visited: set[str] = set()
    for start in sorted(successors):
        if start in visited:
            continue
        # Iterative DFS with an explicit path to recover the cycle.
        pending: list[tuple[str, int]] = [(start, 0)]
        path: list[str] = []
        on_path: set[str] = set()
        while pending:
            node, next_index = pending.pop()
            if next_index == 0:
                path.append(node)
                on_path.add(node)
            advanced = False
            succ = successors.get(node, [])
            for index in range(next_index, len(succ)):
                target = succ[index]
                if target in on_path:
                    return path[path.index(target):]
                if target in visited:
                    continue
                pending.append((node, index + 1))
                pending.append((target, 0))
                advanced = True
                break
            if not advanced:
                visited.add(node)
                on_path.discard(node)
                path.pop()
    return None
