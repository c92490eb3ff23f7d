"""One database site.

A :class:`DatabaseSite` owns the storage, write-ahead log, lock table and
recovery manager for a single participating site, and exposes the operations
commit-protocol roles need:

* :meth:`execute` -- partially execute a transaction (acquire locks, stash
  the intended writes), producing the site's yes/no vote;
* :meth:`prepare` -- journal the prepared state (3PC's ``prepare`` step);
* :meth:`commit` / :meth:`abort` -- terminate the transaction locally,
  applying or discarding the writes and releasing locks;
* :meth:`abort_victim` -- abort an execution-phase victim, journalling
  nothing at a site that holds no record of it (presumed abort);
* :meth:`crash` / :meth:`recover` -- lose volatile state and replay the log.

The commit decision is *not* made here -- that is the job of the protocols in
:mod:`repro.protocols`; the site only guarantees local atomicity exactly as
Section 2 of the paper describes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.db.locks import LockConflict, LockManager, LockMode, LockRequest
from repro.db.recovery import RecoveryManager, RecoveryReport
from repro.db.storage import KeyValueStore
from repro.db.transactions import Transaction, TransactionStatus
from repro.db.wal import WriteAheadLog


class SiteState(enum.Enum):
    """Whether the site is up or crashed."""

    UP = "up"
    CRASHED = "crashed"


@dataclass(slots=True)
class _PendingTransaction:
    """Volatile per-transaction bookkeeping held while a transaction is open."""

    transaction: Transaction
    writes: dict[str, Any]
    status: TransactionStatus = TransactionStatus.ACTIVE
    vote: Optional[str] = None
    decided_at: Optional[float] = None
    blocked_since: Optional[float] = None


class DatabaseSite:
    """The database machinery of one participating site."""

    def __init__(self, site: int, *, initial_data: Optional[Mapping[str, Any]] = None) -> None:
        self.site = site
        self.store = KeyValueStore(initial_data)
        self.wal = WriteAheadLog(site)
        self.locks = LockManager(site)
        self.recovery = RecoveryManager(site, self.wal, self.store)
        self.state = SiteState.UP
        self._pending: dict[str, _PendingTransaction] = {}
        self._decisions: dict[str, str] = {}

    # ------------------------------------------------------------------
    # transaction execution
    # ------------------------------------------------------------------
    def execute(self, transaction: Transaction, *, now: float = 0.0) -> str:
        """Partially execute ``transaction`` and return the site's vote.

        The site votes ``"yes"`` when it can acquire all required locks and
        ``"no"`` otherwise (a unilateral abort).  Votes and the update
        information are journalled so that the site can survive a crash
        between voting and the final decision.
        """
        self._require_up()
        txn_id = transaction.transaction_id
        if txn_id in self._decisions:
            raise ValueError(f"transaction {txn_id} already terminated at site {self.site}")
        self.wal.log_begin(txn_id, time=now)
        writes = transaction.writes_at(self.site)
        try:
            for key in transaction.read_keys_at(self.site):
                self.locks.acquire(txn_id, key, LockMode.SHARED, now=now)
            for key in sorted(writes):
                self.locks.acquire(txn_id, key, LockMode.EXCLUSIVE, now=now)
        except LockConflict:
            self.locks.release_all(txn_id, now=now)
            self.wal.log_vote(txn_id, "no", time=now)
            self._pending[txn_id] = _PendingTransaction(
                transaction=transaction, writes=writes, vote="no"
            )
            return "no"
        self.wal.log_vote(txn_id, "yes", time=now)
        self._pending[txn_id] = _PendingTransaction(
            transaction=transaction, writes=writes, vote="yes"
        )
        return "yes"

    def request_lock(
        self, transaction_id: str, key: str, mode: LockMode, *, now: float = 0.0
    ) -> LockRequest:
        """Queueing lock acquisition for the concurrent-transaction scheduler.

        Unlike the :meth:`execute` path (which votes "no" on a conflict),
        a conflicting request *waits* in the site's FIFO lock queue and is
        granted when the holder terminates -- modelling the execution phase
        of a transaction under strict 2PL.  Once every requested lock is
        granted, :meth:`execute` re-acquires them idempotently and votes.
        """
        self._require_up()
        return self.locks.request(transaction_id, key, mode, now=now)

    def prepare(self, transaction_id: str, *, now: float = 0.0) -> None:
        """Journal the prepared state (the 3PC ``prepare`` step).

        Stale-tolerant: under at-least-once delivery a duplicated or
        retransmitted PREPARE can arrive after a crash wiped the volatile
        transaction state; it journals nothing.
        """
        self._require_up()
        pending = self._pending.get(transaction_id)
        if pending is None:
            return
        pending.status = TransactionStatus.PREPARED
        self.wal.log_prepare(transaction_id, pending.writes, time=now)

    def commit(self, transaction_id: str, *, now: float = 0.0) -> None:
        """Commit locally: durable decision, apply writes, release locks."""
        self._require_up()
        previous = self._decisions.get(transaction_id)
        if previous == "commit":
            return
        if previous == "abort":
            raise ValueError(
                f"site {self.site} cannot commit {transaction_id}: already aborted locally"
            )
        pending = self._pending.get(transaction_id)
        if pending is None:
            # Stale delivery: the writes died with a crash, so there is
            # nothing to apply -- recovery (WAL replay) owns the post-crash
            # outcome, not a late COMMIT command.
            return
        self.wal.log_commit(transaction_id, pending.writes, time=now)
        self.store.apply(transaction_id, pending.writes)
        self.wal.log_apply(transaction_id, time=now)
        self.locks.release_all(transaction_id, now=now)
        pending.status = TransactionStatus.COMMITTED
        pending.decided_at = now
        self._decisions[transaction_id] = "commit"

    def abort(self, transaction_id: str, *, now: float = 0.0) -> None:
        """Abort locally: durable decision, discard writes, release locks."""
        self._require_up()
        previous = self._decisions.get(transaction_id)
        if previous == "abort":
            return
        if previous == "commit":
            raise ValueError(
                f"site {self.site} cannot abort {transaction_id}: already committed locally"
            )
        pending = self._pending.get(transaction_id)
        self.wal.log_abort(transaction_id, time=now)
        self.locks.release_all(transaction_id, now=now)
        if pending is not None:
            pending.status = TransactionStatus.ABORTED
            pending.decided_at = now
        self._decisions[transaction_id] = "abort"

    def abort_victim(self, transaction_id: str, *, now: float = 0.0) -> None:
        """Abort an execution-phase victim: journal only what the site saw.

        A victim is a transaction that the scheduler wrote off while it was
        still acquiring locks -- a lock-wait timeout, a deadlock victim or a
        crash write-off.  A site that holds a pending record or any WAL
        record of the transaction aborts it exactly as :meth:`abort` does.
        A site with neither releases its locks, cancels its queued
        requests and remembers the decision in memory, but journals
        nothing: the participant half of presumed abort (Mohan, Lindsay &
        Obermarck, TODS 1986).  Recovery already reads "no record" as
        "never touched the store", so the store, and what recovery redoes
        or leaves in doubt, are the same as with an ABORT record.

        The crash argument: the decision is volatile, and recovery rebuilds
        decisions from the WAL alone, so a site that crashes has no durable
        trace of this abort (:meth:`crash` forgets it, and after
        :meth:`recover` :meth:`decision` reads ``None``).  That is safe because
        a victim never enters the commit protocol -- no role of this
        attempt ever asks a site to vote, prepare or commit it -- and a
        retry runs under a new attempt id, so nothing later can mistake the
        forgotten attempt for a live one.  The scheduler ignores late lock
        grants and lock messages of an attempt it has finished.
        """
        if transaction_id in self._pending or self.wal.mentions(transaction_id):
            self.abort(transaction_id, now=now)
            return
        self._require_up()
        self.locks.release_all(transaction_id, now=now)
        self._decisions[transaction_id] = "abort"

    def mark_blocked(self, transaction_id: str, *, now: float = 0.0) -> None:
        """Flag the transaction as blocked (still holding its locks)."""
        pending = self._pending.get(transaction_id)
        if pending is not None and pending.blocked_since is None:
            pending.status = TransactionStatus.BLOCKED
            pending.blocked_since = now

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state (pending transactions, locks, decisions).

        :meth:`recover` rebuilds every journalled decision from the WAL; an
        unjournalled one (a victim's presumed abort) is forgotten.  Queued
        lock requests are cancelled (their waiters observe the
        cancellation through :attr:`~repro.db.locks.LockRequest.cancelled`)
        and the grant callback survives onto the fresh lock table, so a
        scheduler wired via ``locks.on_grant`` keeps receiving grants after
        recovery.
        """
        self.state = SiteState.CRASHED
        self._pending.clear()
        self._decisions.clear()
        self.locks.cancel_all_pending()
        on_grant = self.locks.on_grant
        self.locks = LockManager(self.site)
        self.locks.on_grant = on_grant
        self.recovery = RecoveryManager(self.site, self.wal, self.store)

    def recover(self, *, now: float = 0.0) -> RecoveryReport:
        """Restart the site and replay the log."""
        self.state = SiteState.UP
        report = self.recovery.recover(now=now)
        for transaction_id in report.redone + report.already_applied:
            self._decisions[transaction_id] = "commit"
        for transaction_id in report.aborted:
            self._decisions[transaction_id] = "abort"
        return report

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def decision(self, transaction_id: str) -> Optional[str]:
        """Local decision for ``transaction_id`` (``None`` while undecided)."""
        return self._decisions.get(transaction_id)

    def vote(self, transaction_id: str) -> Optional[str]:
        """The vote this site cast for ``transaction_id``."""
        pending = self._pending.get(transaction_id)
        if pending is not None:
            return pending.vote
        return None

    def status(self, transaction_id: str) -> Optional[TransactionStatus]:
        """Lifecycle status of ``transaction_id`` at this site."""
        decision = self._decisions.get(transaction_id)
        if decision == "commit":
            return TransactionStatus.COMMITTED
        if decision == "abort":
            return TransactionStatus.ABORTED
        pending = self._pending.get(transaction_id)
        return pending.status if pending is not None else None

    def holds_locks(self, transaction_id: str) -> bool:
        """True when the transaction still holds locks at this site."""
        return transaction_id in self.locks.owners()

    def value(self, key: str, default: Any = None) -> Any:
        """Committed value of ``key`` at this site."""
        return self.store.get(key, default)

    def _require_up(self) -> None:
        if self.state is SiteState.CRASHED:
            raise RuntimeError(f"site {self.site} is crashed")

