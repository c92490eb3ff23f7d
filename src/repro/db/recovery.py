"""Crash recovery.

Implements the single-site recovery discipline from Section 2 of the paper:

* if a crash happened *before* the commit log record reached stable storage,
  the transaction is aborted on recovery;
* if it happened *after* the commit record but before the updates finished,
  the updates are (re)applied -- safely, because applies are idempotent.

Transactions that were prepared but have no decision record are left for the
commit protocol's own recovery/termination machinery; the report lists them
so callers can see exactly what was still in doubt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.storage import KeyValueStore
from repro.db.wal import WriteAheadLog


@dataclass
class RecoveryReport:
    """Outcome of one recovery pass."""

    redone: list[str] = field(default_factory=list)
    aborted: list[str] = field(default_factory=list)
    in_doubt: list[str] = field(default_factory=list)
    already_applied: list[str] = field(default_factory=list)

    @property
    def total_transactions(self) -> int:
        """Number of transactions the recovery pass looked at."""
        return (
            len(self.redone)
            + len(self.aborted)
            + len(self.in_doubt)
            + len(self.already_applied)
        )


class RecoveryManager:
    """Replays a site's write-ahead log into its store after a crash."""

    def __init__(self, site: int, wal: WriteAheadLog, store: KeyValueStore) -> None:
        self.site = site
        self.wal = wal
        self.store = store

    def recover(self, *, now: float = 0.0) -> RecoveryReport:
        """Bring the store in line with the log.

        Returns a :class:`RecoveryReport` describing what was redone, what
        was rolled back (by omission -- aborted transactions never touched
        the store), and what remains in doubt.
        """
        report = RecoveryReport()
        for transaction_id in self.wal.transactions():
            decision = self.wal.decision(transaction_id)
            if decision == "commit":
                self._redo_commit(transaction_id, report, now=now)
            elif decision == "abort":
                report.aborted.append(transaction_id)
            else:
                # No decision on stable storage.  Whether the transaction
                # eventually commits is up to the commit/termination protocol;
                # a site acting alone must not guess (that is the whole point
                # of the paper).
                report.in_doubt.append(transaction_id)
        return report

    def _redo_commit(self, transaction_id: str, report: RecoveryReport, *, now: float) -> None:
        writes = self.wal.prepared_writes(transaction_id) or {}
        if self.store.applied(transaction_id):
            report.already_applied.append(transaction_id)
            return
        self.store.apply(transaction_id, writes)
        if not self.wal.was_applied(transaction_id):
            self.wal.log_apply(transaction_id, time=now)
        report.redone.append(transaction_id)

    def in_doubt_transactions(self) -> list[str]:
        """Transactions with protocol activity but no durable decision."""
        return [
            transaction_id
            for transaction_id in self.wal.transactions()
            if self.wal.decision(transaction_id) is None
        ]

    def needs_redo(self, transaction_id: str) -> bool:
        """True when a committed transaction's writes are not yet in the store."""
        if self.wal.decision(transaction_id) != "commit":
            return False
        return not self.store.applied(transaction_id)
