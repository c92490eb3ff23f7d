"""Write-ahead log.

The paper's single-site recovery argument (Section 2) requires that a commit
log containing the update information reaches *stable storage* before the
updates are applied.  :class:`WriteAheadLog` models that stable storage: log
records survive crashes (the in-memory list is simply not cleared on crash),
and :class:`~repro.db.recovery.RecoveryManager` replays it on restart.

For the three-phase protocols the log also records the *prepare* point so a
recovering site knows whether it had voted / been prepared, mirroring how
real 3PC implementations journal their protocol state.
"""

from __future__ import annotations

import enum
from typing import Any, Iterator, Mapping, Optional


class LogRecordKind(enum.Enum):
    """Kinds of log records written by a site."""

    BEGIN = "begin"
    VOTE = "vote"
    PREPARE = "prepare"
    COMMIT = "commit"
    ABORT = "abort"
    APPLY = "apply"


class LogRecord:
    """One entry in a site's write-ahead log.

    A ``__slots__`` record rather than a dataclass: every prepare/commit/
    abort of every simulated run appends several of these, putting
    construction cost on the sweep hot path.  ``previous`` links the record
    to the same transaction's preceding record in the log that appended it
    (``None`` for the first, and for records built outside a log); it is
    the log's per-transaction index, not part of the record's value.
    """

    __slots__ = ("lsn", "kind", "transaction_id", "time", "payload", "previous")

    def __init__(
        self,
        lsn: int,
        kind: LogRecordKind,
        transaction_id: str,
        time: float = 0.0,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.lsn = lsn
        self.kind = kind
        self.transaction_id = transaction_id
        self.time = time
        self.payload = {} if payload is None else payload
        self.previous: Optional[LogRecord] = None

    def get(self, key: str, default: Any = None) -> Any:
        """Accessor into the record payload."""
        return self.payload.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogRecord):
            return NotImplemented
        return (
            self.lsn == other.lsn
            and self.kind == other.kind
            and self.transaction_id == other.transaction_id
            and self.time == other.time
            and self.payload == other.payload
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogRecord(lsn={self.lsn}, kind={self.kind}, "
            f"transaction_id={self.transaction_id!r}, time={self.time}, "
            f"payload={self.payload!r})"
        )


class WriteAheadLog:
    """An append-only, crash-surviving log for one site.

    Besides the log itself the WAL keeps a per-transaction index over the
    same record objects -- each transaction's newest record, every record
    linked to that transaction's previous one -- so the per-transaction
    queries (and through them :meth:`~repro.db.recovery.RecoveryManager
    .recover`) cost one transaction's records, not the whole log.
    """

    def __init__(self, site: int) -> None:
        self.site = site
        self._records: list[LogRecord] = []
        #: transaction id -> its newest record (older ones hang off
        #: ``LogRecord.previous``); dict order is first-seen order.
        self._newest: dict[str, LogRecord] = {}

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def append(
        self,
        kind: LogRecordKind,
        transaction_id: str,
        *,
        time: float = 0.0,
        **payload: Any,
    ) -> LogRecord:
        """Append a record and return it (the new record is durable at once)."""
        # `payload` is this call's own kwargs dict -- no defensive copy needed.
        record = LogRecord(len(self._records) + 1, kind, transaction_id, time, payload)
        self._records.append(record)
        record.previous = self._newest.get(transaction_id)
        self._newest[transaction_id] = record
        return record

    def log_begin(self, transaction_id: str, *, time: float = 0.0) -> LogRecord:
        """Record that the site started working on a transaction."""
        return self.append(LogRecordKind.BEGIN, transaction_id, time=time)

    def log_vote(self, transaction_id: str, vote: str, *, time: float = 0.0) -> LogRecord:
        """Record the site's yes/no vote."""
        return self.append(LogRecordKind.VOTE, transaction_id, time=time, vote=vote)

    def log_prepare(
        self, transaction_id: str, writes: Mapping[str, Any], *, time: float = 0.0
    ) -> LogRecord:
        """Record the prepared state together with the update information."""
        return self.append(
            LogRecordKind.PREPARE, transaction_id, time=time, writes=dict(writes)
        )

    def log_commit(
        self, transaction_id: str, writes: Mapping[str, Any], *, time: float = 0.0
    ) -> LogRecord:
        """The paper's "commit log": decision + update information, durable."""
        return self.append(
            LogRecordKind.COMMIT, transaction_id, time=time, writes=dict(writes)
        )

    def log_abort(self, transaction_id: str, *, time: float = 0.0) -> LogRecord:
        """Record an abort decision."""
        return self.append(LogRecordKind.ABORT, transaction_id, time=time)

    def log_apply(self, transaction_id: str, *, time: float = 0.0) -> LogRecord:
        """Record that the updates of a committed transaction were applied."""
        return self.append(LogRecordKind.APPLY, transaction_id, time=time)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def records(self, transaction_id: Optional[str] = None) -> tuple[LogRecord, ...]:
        """All records, optionally restricted to one transaction."""
        if transaction_id is None:
            return tuple(self._records)
        return tuple(reversed(list(self._newest_first(transaction_id))))

    def last_record(self, transaction_id: str) -> Optional[LogRecord]:
        """Most recent record for ``transaction_id``."""
        records = self.records(transaction_id)
        return records[-1] if records else None

    def decision(self, transaction_id: str) -> Optional[str]:
        """``"commit"`` / ``"abort"`` if the decision is on stable storage."""
        for record in self._newest_first(transaction_id):
            if record.kind is LogRecordKind.COMMIT:
                return "commit"
            if record.kind is LogRecordKind.ABORT:
                return "abort"
        return None

    def was_applied(self, transaction_id: str) -> bool:
        """True when an APPLY record exists for ``transaction_id``."""
        return any(
            record.kind is LogRecordKind.APPLY
            for record in self._newest_first(transaction_id)
        )

    def prepared_writes(self, transaction_id: str) -> Optional[dict[str, Any]]:
        """The writes journalled at prepare time, if any."""
        for record in self._newest_first(transaction_id):
            if record.kind in (LogRecordKind.PREPARE, LogRecordKind.COMMIT):
                writes = record.get("writes")
                if writes is not None:
                    return dict(writes)
        return None

    def transactions(self) -> list[str]:
        """Ids of all transactions mentioned in the log, in first-seen order."""
        return list(self._newest)

    def undecided_transactions(self) -> list[str]:
        """Transactions with a BEGIN/VOTE/PREPARE but no decision record."""
        return [txn for txn in self.transactions() if self.decision(txn) is None]

    def _newest_first(self, transaction_id: str) -> Iterator[LogRecord]:
        """``transaction_id``'s records, most recent first."""
        record = self._newest.get(transaction_id)
        while record is not None:
            yield record
            record = record.previous
