"""The lock-contention transaction scheduler.

:class:`TransactionScheduler` admits a stream of update transactions
against one shared :class:`~repro.sim.cluster.Cluster` and runs one
commit-protocol instance per in-flight transaction on the same sites: each
site's :class:`~repro.sim.node.Node` keys its roles and timers by
transaction id.  It models the paper's setting end-to-end:

1. **Execution phase (strict 2PL growth).**  At admission a transaction
   requests its locks operation by operation -- shared for reads,
   exclusive for writes, ``op_delay`` apart -- through the sites' FIFO
   lock queues (:meth:`~repro.db.site.DatabaseSite.request_lock`).
   Conflicts *wait* rather than abort; incremental acquisition means lock
   cycles can form and are broken per the
   :class:`~repro.txn.deadlock.DeadlockPolicy` (waits-for cycle detection
   with youngest-victim abort, and/or lock-wait timeouts).
2. **Commit phase.**  Once every lock is granted, the scheduler builds the
   protocol's coordinator / participant roles, attaches them to the
   participants' nodes under the transaction's id and starts them;
   messages travel the real network, so partitions hit the commit
   protocols exactly as in the single-transaction runner.  Once every
   participant has decided, the scheduler retires the transaction's roles
   (:meth:`~repro.sim.node.Node.retire`).
3. **Termination.**  Decisions release locks
   (:meth:`~repro.db.site.DatabaseSite.commit` / ``abort``), which
   promotes queued waiters and resumes their acquisition -- the chain
   through which a *blocked* protocol's retained locks throttle every
   transaction behind it, the Section 1-2 availability argument made
   measurable.
4. **Retry.**  An aborted attempt (deadlock or timeout victim, crash
   write-off, or a commit-phase protocol abort) re-enters the scheduler
   as a fresh attempt after a seeded exponential backoff, until the
   :class:`~repro.txn.retry.RetryPolicy` budget is exhausted -- the
   open-loop behaviour real clients exhibit, and the mechanism by which
   retry storms amplify a blocking protocol's goodput collapse.

Site crashes are modelled end to end: a crash wipes the site's volatile
lock table (:meth:`~repro.db.site.DatabaseSite.crash`) and writes off
every execution-phase transaction touching the site; a recovery replays
the WAL (:meth:`~repro.db.site.DatabaseSite.recover`) *before* any role
or re-admitted lock request observes the site, then accepts new lock
traffic on the fresh table.

Everything is driven by the deterministic simulation kernel: given the
same transactions, arrival times and seed, a run is bit-for-bit
reproducible (the determinism suite compares whole
:class:`~repro.txn.summary.ThroughputSummary` records across worker
counts).

Lock *transport* is selectable.  The default (``lock_transport="direct"``)
places lock requests directly at the sites -- the historical modelling
shortcut, byte-identical to previous releases.  With
``lock_transport="network"`` every remote lock request travels the
simulated network as a message from the transaction's master site to the
participant, and the grant travels back the same way: partitions bounce
the request (the attempt aborts, cause ``partition``), message-loss faults
silently eat requests or grants (the lock-wait timeout picks up the
pieces), and the retransmission layer -- when enabled in the fault plan --
repairs lock traffic exactly as it repairs protocol traffic.  Fault plans
with message-level faults auto-select the network transport (see
:class:`~repro.txn.runner.ThroughputSpec`), because a fault model that
cannot touch lock acquisition would overstate availability.  See
``docs/concurrency.md`` for this and the other modelling choices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.termination import TerminationTimers
from repro.db.locks import LockMode, LockRequest
from repro.db.site import DatabaseSite, SiteState
from repro.db.transactions import OpKind, Transaction
from repro.protocols.base import Decision, ProtocolContext
from repro.protocols.registry import Protocol
from repro.sim.cluster import Cluster
from repro.sim.events import Event
from repro.sim.network import Undeliverable
from repro.txn.deadlock import (
    DeadlockPolicy,
    find_cycle,
    merge_waits_for,
    select_victim,
)
from repro.txn.retry import AbortCause, RetryPolicy, attempt_id
from repro.txn.summary import TransactionOutcome, TransactionVerdict


class TxnPhase(enum.Enum):
    """Where a transaction is in the scheduler's pipeline."""

    WAITING = "waiting"    # execution phase: acquiring locks
    RUNNING = "running"    # commit protocol in flight
    DONE = "done"          # terminated (or written off by the scheduler)


#: Valid values for ``TransactionScheduler(lock_transport=...)``.
LOCK_TRANSPORTS = ("direct", "network")


class LockRequestMessage:
    """A remote lock request on the wire (``lock_transport="network"``).

    Sent from the transaction's master site to the participant that owns
    the key; the participant places the request in its local lock table.
    """

    __slots__ = ("transaction_id", "key", "mode")
    kind = "lock-request"

    def __init__(self, transaction_id: str, key: str, mode: LockMode) -> None:
        self.transaction_id = transaction_id
        self.key = key
        self.mode = mode


class LockGrantMessage:
    """A lock grant travelling back from the participant to the master."""

    __slots__ = ("transaction_id", "site", "key")
    kind = "lock-grant"

    def __init__(self, transaction_id: str, site: int, key: str) -> None:
        self.transaction_id = transaction_id
        self.site = site
        self.key = key


class RemoteLockWait:
    """Master-side marker for a lock request that is out on the network.

    Stands in for the :class:`~repro.db.locks.LockRequest` in
    ``TransactionState.pending_request`` while the request (or its grant)
    is in flight; ``enqueued_at`` is the send time, so the measured lock
    wait includes the network round trip.
    """

    __slots__ = ("site", "key", "mode", "enqueued_at")

    def __init__(self, site: int, key: str, mode: LockMode, enqueued_at: float) -> None:
        self.site = site
        self.key = key
        self.mode = mode
        self.enqueued_at = enqueued_at


#: One lock request of a transaction's growth phase: ``(site, key, mode)``.
LockStep = tuple[int, str, LockMode]
#: A strict-2PL growth schedule: one step per lock request.
LockPlan = tuple[LockStep, ...]


@dataclass(slots=True)
class TransactionState:
    """Scheduler-side bookkeeping for one admitted transaction.

    Slotted: a run keeps every attempt's state readable after it closes.
    """

    transaction: Transaction
    index: int
    admitted_at: float
    #: Shared by every attempt of one logical transaction (a retry reruns
    #: the same operations).
    plan: LockPlan
    next_op: int = 0
    phase: TxnPhase = TxnPhase.WAITING
    #: The queued local LockRequest, or a RemoteLockWait marker while a
    #: network-transport request / grant is in flight.
    pending_request: Optional[Any] = None
    pending_site: Optional[int] = None
    timeout_event: Optional[Event] = None
    lock_wait: float = 0.0
    all_granted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Site -> local decision; ``None`` until the first site decides.
    decisions: Optional[dict[int, Decision]] = None
    verdict: Optional[TransactionVerdict] = None
    abort_reason: str = ""
    #: :class:`~repro.txn.retry.AbortCause` value of this attempt's abort.
    abort_cause: str = ""
    #: Base (workload) transaction id shared by every attempt.
    logical_id: str = ""
    #: 1-based attempt number of this admission.
    attempt: int = 1
    #: True when a later attempt was scheduled to supersede this abort.
    retried: bool = False

    @property
    def transaction_id(self) -> str:
        """Shortcut for the transaction id."""
        return self.transaction.transaction_id


class TransactionScheduler:
    """Admits, locks, runs and accounts concurrent transactions on a cluster.

    Args:
        cluster: the shared simulated deployment.
        protocol: the protocol row used for every transaction.
        db_sites: one :class:`~repro.db.site.DatabaseSite` per cluster site.
        policy: deadlock handling configuration.
        retry: re-admission policy for aborted attempts (default: none,
            the PR 3 write-off behaviour).
        op_delay: simulated execution time of one data operation (the gap
            between successive lock requests of a transaction; values > 0
            let acquisition interleave, which is what makes lock cycles
            possible).
        timers: protocol timeout structure (defaults to the cluster's ``T``).
        seed: seeds the retry-backoff jitter (the workload seed, so one
            spec pins the whole retry schedule).
        lock_transport: ``"direct"`` (the default: lock requests are placed
            straight into the sites' lock tables) or ``"network"`` (remote
            lock requests and grants travel the simulated network, so
            partitions and message faults cut lock acquisition; see the
            module docstring).
    """

    def __init__(
        self,
        cluster: Cluster,
        protocol: Protocol,
        db_sites: dict[int, DatabaseSite],
        *,
        policy: Optional[DeadlockPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        op_delay: float = 0.0,
        timers: Optional[TerminationTimers] = None,
        seed: int = 0,
        lock_transport: str = "direct",
    ) -> None:
        if op_delay < 0:
            raise ValueError(f"op_delay must be >= 0, got {op_delay}")
        if lock_transport not in LOCK_TRANSPORTS:
            raise ValueError(
                f"lock_transport must be one of {LOCK_TRANSPORTS}, got {lock_transport!r}"
            )
        self.cluster = cluster
        self.protocol = protocol
        self.db_sites = db_sites
        self.policy = policy or DeadlockPolicy()
        self.retry = retry or RetryPolicy()
        self.op_delay = op_delay
        self.timers = timers or TerminationTimers(max_delay=cluster.max_delay)
        self.seed = seed
        self.lock_transport = lock_transport
        for site in cluster.site_ids():
            node = cluster.node(site)
            node.crash_listeners.append(
                lambda _site=site: self._on_site_crashed(_site)
            )
            node.recover_listeners.append(
                lambda _site=site: self._on_site_recovered(_site)
            )
            if lock_transport == "network":
                node.message_listeners.append(
                    lambda payload, envelope, _site=site: self._on_lock_message(
                        _site, payload, envelope
                    )
                )
        for site, db in sorted(db_sites.items()):
            db.locks.on_grant = (
                lambda request, _site=site: self._on_lock_granted(_site, request)
            )
        #: Every attempt's state, in admission order.
        self.states: dict[str, TransactionState] = {}
        #: Logical id -> its attempts, in the logical transactions' admission order.
        self._attempts: dict[str, list[TransactionState]] = {}
        #: One tuple per distinct lock-plan step, shared by every plan; keyed
        #: by ``(site, key, is_write)``, since hashing a ``LockMode`` is a
        #: Python-level ``Enum.__hash__`` call.
        self._plan_steps: dict[tuple[int, str, bool], LockStep] = {}
        self.waiting = 0
        self.running = 0
        self.peak_waiting = 0
        self.peak_in_flight = 0
        self.deadlock_aborts = 0
        self.timeout_aborts = 0
        self.crash_writeoffs = 0
        self.retries = 0
        self.crashes = 0
        self.recoveries = 0
        self.wal_redone = 0
        # Retry backlog: aborted attempts sitting in backoff, scheduled but
        # not yet re-admitted.  Observability-only (never summarized): the
        # peak says how deep the resubmission queue got under a retry storm.
        self.retry_backlog = 0
        self.peak_retry_backlog = 0
        # Deadlock-detector accounting (observability-only, folded into the
        # metrics registry after the run): checks made, one per queued
        # request; how many the in-edge pre-filter did not settle; and how
        # many needed the whole-graph search (see _break_deadlocks).
        self.deadlock_checks = 0
        self.deadlock_walks = 0
        self.deadlock_full_searches = 0
        # True while the waits-for graph is not known to be acyclic; see
        # _break_deadlocks.
        self._cycle_search_due = False

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.cluster.sim.now

    def submit(self, transaction: Transaction, *, at: float) -> None:
        """Schedule ``transaction`` for admission at simulated time ``at``."""
        self.cluster.sim.schedule_at(at, self._admit, arg=transaction)

    def submit_all(self, transactions, *, arrivals) -> None:
        """Submit a transaction stream with its per-transaction arrival times."""
        for transaction, at in zip(transactions, arrivals):
            self.submit(transaction, at=at)

    @property
    def admitted(self) -> int:
        """Logical transactions admitted so far (attempts collapse to one)."""
        return len(self._attempts)

    def outcomes(self) -> list[TransactionOutcome]:
        """Per-*logical*-transaction outcomes in admission order.

        Retries collapse: every attempt of a transaction contributes its
        lock wait, the final attempt supplies the verdict and timestamps,
        and ``attempts`` counts the admissions.  A transaction whose next
        retry was scheduled but had not been re-admitted when the horizon
        struck is still *in flight* -- reported stalled, not aborted.
        """
        out = []
        for position, (logical_id, attempts) in enumerate(self._attempts.items()):
            final = attempts[-1]
            verdict = final.verdict or TransactionVerdict.STALLED
            abort_reason = final.abort_reason
            abort_cause = final.abort_cause
            if final.retried:
                verdict = TransactionVerdict.STALLED
                abort_reason = f"retry {final.attempt + 1} pending at horizon"
                abort_cause = ""
            out.append(
                TransactionOutcome(
                    transaction_id=logical_id,
                    index=position,
                    verdict=verdict,
                    admitted_at=attempts[0].admitted_at,
                    all_granted_at=final.all_granted_at,
                    started_at=final.started_at,
                    finished_at=final.finished_at,
                    lock_wait=sum(state.lock_wait for state in attempts),
                    abort_reason=abort_reason,
                    abort_cause=abort_cause,
                    attempts=len(attempts),
                )
            )
        return out

    # ------------------------------------------------------------------
    # admission + lock acquisition (execution phase)
    # ------------------------------------------------------------------
    def _admit(
        self,
        transaction: Transaction,
        *,
        logical_id: Optional[str] = None,
        attempt: int = 1,
        plan: Optional[LockPlan] = None,
    ) -> None:
        transaction_id = transaction.transaction_id
        if transaction_id in self.states:
            raise ValueError(f"transaction {transaction_id} already admitted")
        logical = logical_id or transaction_id
        state = TransactionState(
            transaction=transaction,
            index=len(self.states),
            admitted_at=self.now,
            plan=self._lock_plan(transaction) if plan is None else plan,
            logical_id=logical,
            attempt=attempt,
        )
        self.states[transaction_id] = state
        if attempt > 1:
            # Counted at admission, not when the retry is scheduled, so
            # summary.retries == sum(attempts - 1): a re-admission the
            # horizon cut off is in-flight, not a retry that happened.
            self.retries += 1
            self.retry_backlog -= 1
        self._attempts.setdefault(logical, []).append(state)
        self.waiting += 1
        self.peak_waiting = max(self.peak_waiting, self.waiting)
        self.cluster.trace.record(
            self.now, "admit", site=transaction.master, transaction=transaction_id
        )
        self._advance(state)

    def _lock_plan(self, transaction: Transaction) -> LockPlan:
        """The strict-2PL growth schedule: one request per operation, deduped.

        A read after a write on the same key is covered; a write after a
        read becomes an upgrade request (the lock manager handles it).
        Plans share their ``(site, key, mode)`` steps (:attr:`_plan_steps`).
        """
        plan: list[LockStep] = []
        held: dict[tuple[int, str], LockMode] = {}
        steps = self._plan_steps
        for op in transaction.operations:
            write = op.kind is OpKind.WRITE
            mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
            current = held.get((op.site, op.key))
            if current is not None and current.covers(mode):
                continue
            plan.append(steps.setdefault((op.site, op.key, write), (op.site, op.key, mode)))
            held[(op.site, op.key)] = mode
        return tuple(plan)

    def _advance(self, state: TransactionState) -> None:
        """Request the next locks; start the commit protocol when done."""
        while state.phase is TxnPhase.WAITING and state.next_op < len(state.plan):
            site, key, mode = state.plan[state.next_op]
            if self.cluster.node(site).crashed or self.db_sites[site].state is SiteState.CRASHED:
                # The execution phase cannot proceed at a crashed site;
                # write the transaction off instead of raising mid-event.
                self._abort_waiting(
                    state, cause=AbortCause.CRASH, reason=f"site {site} crashed"
                )
                return
            if self.lock_transport == "network" and site != state.transaction.master:
                self._request_remote_lock(state, site, key, mode)
                return
            request = self.db_sites[site].request_lock(
                state.transaction_id, key, mode, now=self.now
            )
            if request.granted is None:
                state.pending_request = request
                state.pending_site = site
                self._arm_wait_timeout(state)
                if self.policy.detect_cycles:
                    self._break_deadlocks(state.transaction_id)
                return
            if not self._operation_done(state):
                return
        if state.phase is TxnPhase.WAITING:
            self._start_protocol(state)

    def _operation_done(self, state: TransactionState) -> bool:
        """Step past a granted operation; False when the next lock request
        was deferred by ``op_delay`` (the operation's execution time)."""
        state.next_op += 1
        if self.op_delay > 0 and state.next_op < len(state.plan):
            self.cluster.sim.schedule(self.op_delay, self._advance, arg=state)
            return False
        return True

    def _on_lock_granted(self, site: int, request: LockRequest) -> None:
        state = self.states.get(request.owner)
        if state is None or state.phase is not TxnPhase.WAITING:
            return
        pending = state.pending_request
        if (
            type(pending) is RemoteLockWait
            and pending.site == site
            and pending.key == request.key
        ):
            # Network transport: a queued remote request was promoted; the
            # grant travels back to the master as a message.
            self._send_lock_grant(site, request)
            return
        if pending is not request:
            return
        state.pending_request = None
        state.pending_site = None
        state.lock_wait += request.wait_time
        self._cancel_wait_timeout(state)
        if self._operation_done(state):
            self._advance(state)

    # ------------------------------------------------------------------
    # network lock transport
    # ------------------------------------------------------------------
    def _request_remote_lock(
        self, state: TransactionState, site: int, key: str, mode: LockMode
    ) -> None:
        """Send the next lock request over the wire (network transport).

        The master node sends a :class:`LockRequestMessage` to the
        participant; until the grant message returns, the transaction waits
        on a :class:`RemoteLockWait` marker.  A partition bounce aborts the
        attempt; a silently lost request or grant is caught by the
        lock-wait timeout (when configured) or stalls the attempt at the
        horizon -- exactly the failure surface the direct transport hides.
        """
        master = state.transaction.master
        if self.cluster.node(master).crashed:
            self._abort_waiting(
                state, cause=AbortCause.CRASH, reason=f"master site {master} crashed"
            )
            return
        state.pending_request = RemoteLockWait(site, key, mode, self.now)
        state.pending_site = site
        self._arm_wait_timeout(state)
        self.cluster.node(master).send(
            site, LockRequestMessage(state.transaction_id, key, mode)
        )

    def _on_lock_message(self, site: int, payload: Any, envelope: Any) -> bool:
        """Node message listener for lock traffic at ``site``.

        Returns True when the delivery was lock-transport traffic (consumed
        here), False to let transaction routing proceed.
        """
        bounced = isinstance(payload, Undeliverable)
        inner = payload.payload if bounced else payload
        kind = type(inner)
        if kind is LockRequestMessage:
            if bounced:
                # The request came back UD to the master: the participant is
                # unreachable, so the attempt cannot grow its lock set.
                state = self.states.get(inner.transaction_id)
                if state is not None and state.phase is TxnPhase.WAITING:
                    self._abort_waiting(
                        state,
                        cause=AbortCause.PARTITION,
                        reason=(
                            f"lock request to site {payload.intended_destination}"
                            " undeliverable"
                        ),
                    )
            else:
                self._place_remote_lock(site, inner)
            return True
        if kind is LockGrantMessage:
            if not bounced:
                self._on_remote_grant(inner)
            # A bounced grant returns to the participant; the master's
            # lock-wait timeout (or the horizon) handles the silence.
            return True
        return False

    def _place_remote_lock(self, site: int, message: LockRequestMessage) -> None:
        """A lock request arrived at the participant: place it locally."""
        state = self.states.get(message.transaction_id)
        if state is None or state.phase is not TxnPhase.WAITING:
            # The attempt was aborted (or finished) while the request was in
            # flight; placing the lock now would leak it past the abort's
            # release pass.
            return
        pending = state.pending_request
        if (
            type(pending) is not RemoteLockWait
            or pending.site != site
            or pending.key != message.key
        ):
            # Stale or duplicated copy (the transaction already moved on).
            return
        if self.db_sites[site].state is SiteState.CRASHED:
            # Crash fan-out is writing the waiters off; nothing to place.
            return
        request = self.db_sites[site].request_lock(
            message.transaction_id, message.key, message.mode, now=self.now
        )
        if request.granted is not None:
            self._send_lock_grant(site, request)
            return
        if self.policy.detect_cycles:
            self._break_deadlocks(message.transaction_id)

    def _send_lock_grant(self, site: int, request: LockRequest) -> None:
        """Send a grant back from the participant to the master."""
        state = self.states.get(request.owner)
        if state is None:
            return
        self.cluster.node(site).send(
            state.transaction.master,
            LockGrantMessage(request.owner, site, request.key),
        )

    def _on_remote_grant(self, message: LockGrantMessage) -> None:
        """A grant arrived back at the master: resume lock acquisition."""
        state = self.states.get(message.transaction_id)
        if state is None or state.phase is not TxnPhase.WAITING:
            return
        pending = state.pending_request
        if (
            type(pending) is not RemoteLockWait
            or pending.site != message.site
            or pending.key != message.key
        ):
            # Duplicate grant copy for an operation already completed.
            return
        state.pending_request = None
        state.pending_site = None
        # The measured wait includes the network round trip -- that is the
        # wait the transaction actually experienced.
        state.lock_wait += max(0.0, self.now - pending.enqueued_at)
        self._cancel_wait_timeout(state)
        if self._operation_done(state):
            self._advance(state)

    # ------------------------------------------------------------------
    # deadlock handling
    # ------------------------------------------------------------------
    def _locks_held(self, transaction_id: str) -> int:
        """Locks ``transaction_id`` currently holds across every site."""
        return sum(
            self.db_sites[site].locks.held_count(transaction_id)
            for site in sorted(self.db_sites)
        )

    def _on_cycle(self, waiter: str) -> bool:
        """True when ``waiter`` can reach itself in the union waits-for graph.

        A cycle through ``waiter`` needs an edge into it, so unless some
        site reports one (:meth:`~repro.db.locks.LockManager.is_waited_on`)
        the answer is no without a walk.  Otherwise walks only the
        transactions reachable from ``waiter``, asking each site for one
        owner's edges (:meth:`~repro.db.locks.LockManager.waits_of`) instead
        of building every site's whole graph.
        """
        sites = [db.locks for db in self.db_sites.values()]
        if not any(locks.is_waited_on(waiter) for locks in sites):
            return False
        self.deadlock_walks += 1
        seen = {waiter}
        frontier = [waiter]
        while frontier:
            owner = frontier.pop()
            for locks in sites:
                for blocker in locks.waits_of(owner):
                    if blocker == waiter:
                        return True
                    if blocker not in seen:
                        seen.add(blocker)
                        frontier.append(blocker)
        return False

    def _break_deadlocks(self, waiter: str) -> None:
        """Abort one policy-chosen member of every waits-for cycle until none remain.

        Called after ``waiter`` queued a request.  Every edge that request
        added to the waits-for graph touches ``waiter`` -- its own waits, plus
        the waits *on* it of the requests a queue-jumping upgrade was inserted
        ahead of -- so while the graph was acyclic before, it has a cycle now
        iff ``waiter`` reaches itself, and the check costs the reachable
        nodes, not the graph (only the waiter's own locks and requests when
        no one waits on it).  The whole-graph search below runs only when the
        waiter does reach itself, or when ``_cycle_search_due`` says
        acyclicity is not known: it stays set from entry to the full search
        until a search finds no cycle, which covers checks nested inside a
        victim's abort and the stale-cycle return.  The full search alone picks cycles and victims,
        so both are what a search after every queued request would pick.

        ``deadlock_walks`` counts the checks the in-edge pre-filter of
        :meth:`_on_cycle` did not settle, so every full search is one of
        them: ``full_searches <= walks <= checks``.
        """
        self.deadlock_checks += 1
        if self._cycle_search_due:
            # Acyclicity is unknown, so no pre-filter can settle this check.
            self.deadlock_walks += 1
        elif not self._on_cycle(waiter):
            return
        self.deadlock_full_searches += 1
        self._cycle_search_due = True
        while True:
            graph = merge_waits_for(
                {site: db.locks.waits_for() for site, db in self.db_sites.items()}
            )
            cycle = find_cycle(graph)
            if cycle is None:
                self._cycle_search_due = False
                return
            if any(
                self.states[txn].phase is not TxnPhase.WAITING for txn in cycle
            ):
                # Stale cycle: a victim mid-abort still has queued requests
                # at sites its participant loop has not reached yet.  Those
                # edges dissolve when the in-flight abort completes; the
                # caller's loop (or the next queued request) re-checks --
                # with a full search, since the graph is left cyclic.
                return
            victim = select_victim(
                cycle,
                self.policy.victim,
                index={txn: self.states[txn].index for txn in cycle},
                locks_held={txn: self._locks_held(txn) for txn in cycle},
                attempts={txn: self.states[txn].attempt for txn in cycle},
            )
            self.cluster.trace.record(
                self.now,
                "deadlock",
                site=None,
                cycle=sorted(cycle),
                victim=victim,
            )
            self._abort_waiting(
                self.states[victim],
                cause=AbortCause.DEADLOCK,
                reason=f"deadlock victim (cycle of {len(cycle)})",
            )

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def _on_site_crashed(self, site: int) -> None:
        """Write off the execution-phase transactions that died with a site.

        Invoked as the site node's crash listener.  The site's
        volatile lock table is lost (:meth:`~repro.db.site.DatabaseSite
        .crash`), so every transaction still acquiring locks that touches
        the site -- whether it was queued there, already held locks there,
        or had yet to reach it -- can no longer commit under strict 2PL
        and is written off (and, under a retry policy, re-admitted later).
        Commit-phase transactions are left to their protocol roles.
        """
        self.crashes += 1
        db = self.db_sites[site]
        if db.state is not SiteState.CRASHED:
            db.crash()
        for state in list(self.states.values()):
            if (
                state.phase is TxnPhase.WAITING
                and site in state.transaction.participants
            ):
                self._abort_waiting(
                    state,
                    cause=AbortCause.CRASH,
                    reason=f"site {site} crashed during lock acquisition",
                )

    def _on_site_recovered(self, site: int) -> None:
        """Replay the WAL of a recovered site before re-admitting traffic.

        Runs as the site node's recovery listener, before its roles hear
        of it: by the time any protocol role or re-admitted lock request
        observes the site, replay has restored every durable decision
        (committed writes redone idempotently, aborted ones discarded) and
        the fresh lock table is accepting requests.
        """
        self.recoveries += 1
        db = self.db_sites[site]
        if db.state is not SiteState.CRASHED:
            return
        report = db.recover(now=self.now)
        self.wal_redone += len(report.redone)
        self.cluster.trace.record(
            self.now,
            "wal-replay",
            site=site,
            redone=len(report.redone),
            already_applied=len(report.already_applied),
            in_doubt=len(report.in_doubt),
        )

    def _arm_wait_timeout(self, state: TransactionState) -> None:
        if self.policy.wait_timeout is None:
            return
        self._cancel_wait_timeout(state)
        state.timeout_event = self.cluster.sim.schedule(
            self.policy.wait_timeout,
            self._on_wait_timeout,
            arg=(state, state.pending_request),
        )

    def _cancel_wait_timeout(self, state: TransactionState) -> None:
        if state.timeout_event is not None:
            state.timeout_event.cancel()
            state.timeout_event = None

    def _on_wait_timeout(self, waited: tuple[TransactionState, Any]) -> None:
        """Abort ``state`` if it still waits on the ``request`` the timer was armed for."""
        state, request = waited
        if state.phase is not TxnPhase.WAITING or state.pending_request is not request:
            return
        self.cluster.trace.record(
            self.now, "lock-wait-timeout", site=state.pending_site,
            transaction=state.transaction_id,
        )
        self._abort_waiting(
            state, cause=AbortCause.TIMEOUT, reason="lock-wait timeout"
        )

    def _abort_waiting(
        self, state: TransactionState, *, cause: AbortCause, reason: str
    ) -> None:
        """Abort a transaction still in its execution phase (victim path)."""
        if state.phase is not TxnPhase.WAITING:
            # Reentrant call (promotion cascades during this victim's own
            # cleanup can re-trigger detection paths): already handled.
            return
        if cause is AbortCause.DEADLOCK:
            self.deadlock_aborts += 1
        elif cause is AbortCause.TIMEOUT:
            self.timeout_aborts += 1
        elif cause is AbortCause.CRASH:
            self.crash_writeoffs += 1
        if state.pending_request is not None:
            state.lock_wait += max(0.0, self.now - state.pending_request.enqueued_at)
            state.pending_request = None
            state.pending_site = None
        self._cancel_wait_timeout(state)
        state.phase = TxnPhase.DONE
        state.verdict = TransactionVerdict.ABORTED
        state.abort_reason = reason
        state.abort_cause = cause.value
        state.finished_at = self.now
        self.waiting -= 1
        # The abort releases held locks and cancels queued requests at every
        # participant; only a site that journalled the attempt journals its
        # abort (presumed abort).  A crashed site's volatile lock state is
        # already gone; skip it.
        for site in state.transaction.participants:
            if self.db_sites[site].state is SiteState.CRASHED:
                continue
            self.db_sites[site].abort_victim(state.transaction_id, now=self.now)
        self._maybe_retry(state)

    # ------------------------------------------------------------------
    # victim retries
    # ------------------------------------------------------------------
    def _maybe_retry(self, state: TransactionState) -> None:
        """Re-admit an aborted attempt after backoff, while budget remains."""
        if not self.retry.enabled or state.attempt >= self.retry.max_attempts:
            return
        delay = self.retry.delay(
            failed_attempt=state.attempt,
            transaction_id=state.logical_id,
            seed=self.seed,
        )
        state.retried = True
        next_attempt = state.attempt + 1
        clone = Transaction.create(
            state.transaction.master,
            state.transaction.operations,
            transaction_id=attempt_id(state.logical_id, next_attempt),
        )
        self.cluster.trace.record(
            self.now,
            "retry",
            site=state.transaction.master,
            transaction=state.logical_id,
            attempt=next_attempt,
            due=self.now + delay,
        )
        retry = (clone, state.logical_id, next_attempt, state.plan)
        self.cluster.sim.schedule(delay, self._readmit, arg=retry)
        self.retry_backlog += 1
        self.peak_retry_backlog = max(self.peak_retry_backlog, self.retry_backlog)

    def _readmit(self, retry: tuple[Transaction, str, int, LockPlan]) -> None:
        """Admit the ``(clone, logical id, attempt, plan)`` a retry scheduled."""
        transaction, logical_id, attempt, plan = retry
        self._admit(transaction, logical_id=logical_id, attempt=attempt, plan=plan)

    # ------------------------------------------------------------------
    # commit phase
    # ------------------------------------------------------------------
    def _start_protocol(self, state: TransactionState) -> None:
        state.phase = TxnPhase.RUNNING
        state.all_granted_at = self.now
        state.started_at = self.now
        self.waiting -= 1
        self.running += 1
        self.peak_in_flight = max(self.peak_in_flight, self.running)
        transaction = state.transaction
        participants = transaction.participants
        for site in participants:
            node = self.cluster.node(site)
            ctx = ProtocolContext(
                node=node,
                db=self.db_sites[site],
                transaction=transaction,
                participants=participants,
                master=transaction.master,
                timers=self.timers,
            )
            role = self.protocol.role(ctx)
            node.attach(role, tag_timers=True)
            role.decision_listeners.append(
                lambda _role, decision, s=site, st=state: self._on_site_decided(
                    st, s, decision
                )
            )
        for site in participants:
            self.cluster.node(site).start(transaction.transaction_id)

    def _on_site_decided(
        self, state: TransactionState, site: int, decision: Decision
    ) -> None:
        decisions = state.decisions
        if decisions is None:
            decisions = state.decisions = {}
        decisions[site] = decision
        if len(decisions) < len(state.transaction.participants):
            return
        decided = set(decisions.values())
        if decided == {Decision.COMMIT}:
            state.verdict = TransactionVerdict.COMMITTED
        elif decided == {Decision.ABORT}:
            state.verdict = TransactionVerdict.ABORTED
            state.abort_reason = state.abort_reason or "protocol abort"
            # Commit-phase aborts are the protocol writing the transaction
            # off.  Attribute by what is wrong at decision time: a crashed
            # participant is a crash write-off, otherwise the partition
            # (or its timeout aftermath) forced the abort.
            crashed_participant = any(
                self.cluster.node(site).crashed
                or self.db_sites[site].state is SiteState.CRASHED
                for site in state.transaction.participants
            )
            cause = AbortCause.CRASH if crashed_participant else AbortCause.PARTITION
            state.abort_cause = cause.value
        else:
            state.verdict = TransactionVerdict.VIOLATED
        state.phase = TxnPhase.DONE
        state.finished_at = self.now
        self.running -= 1
        # Every participant has decided: retire the transaction's roles.
        # The deciding role may still broadcast its resolution; it keeps
        # its node, so the sends leave through the site.
        for participant in state.transaction.participants:
            self.cluster.node(participant).retire(state.transaction_id)
        if state.verdict is TransactionVerdict.ABORTED:
            self._maybe_retry(state)

    # ------------------------------------------------------------------
    # horizon accounting
    # ------------------------------------------------------------------
    def finalize(self, horizon: float) -> None:
        """Classify whatever is still in flight when the run horizon ends."""
        for state in self.states.values():
            if state.phase is TxnPhase.WAITING:
                state.verdict = TransactionVerdict.STALLED
                if state.pending_request is not None:
                    state.lock_wait += max(
                        0.0, horizon - state.pending_request.enqueued_at
                    )
            elif state.phase is TxnPhase.RUNNING:
                state.verdict = TransactionVerdict.BLOCKED

    def close(self) -> None:
        """Cut the run's reference cycles once its results are read.

        Drops the nodes' listeners and the lock managers' ``on_grant``
        hooks (each leads back to this scheduler), retires the transactions
        still in flight at the horizon, and forgets every pending lock-wait
        timeout event (its argument leads back to the state that holds it).
        :attr:`states`, :meth:`outcomes` and every counter stay readable;
        the scheduler cannot run again.  Called by
        :func:`repro.txn.runner.run_throughput_scenario` next to
        :meth:`repro.sim.cluster.Cluster.close`.  Idempotent.
        """
        for node in self.cluster.nodes.values():
            node.crash_listeners.clear()
            node.recover_listeners.clear()
            node.message_listeners.clear()
            for transaction_id in list(node.roles):
                node.retire(transaction_id)
        for db in self.db_sites.values():
            db.locks.on_grant = None
        for state in self.states.values():
            state.timeout_event = None

    def lock_hold_total(self, horizon: float) -> float:
        """Total lock-hold time across sites, charging still-held locks to
        the horizon (the unavailability a blocked protocol inflicts)."""
        total = 0.0
        for site in sorted(self.db_sites):
            stats = self.db_sites[site].locks.stats
            total += stats.total_hold_time
            for (_, _), since in stats.held_since.items():
                total += max(0.0, horizon - since)
        return total
