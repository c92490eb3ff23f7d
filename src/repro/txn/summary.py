"""Per-transaction outcomes and the per-scenario ``ThroughputSummary``.

A throughput scenario runs *many* concurrent transactions through one
cluster, so its result is not a per-site decision vector but a workload
aggregate: how many transactions committed / aborted / blocked, how long
they queued for locks, and the resulting goodput.  The records here are
plain picklable data with canonical JSON (sorted keys, ``kind`` tag), so
they flow through the existing sweep-engine machinery unchanged -- worker
processes return them, the on-disk result cache stores them (dispatched on
the ``kind`` field), :class:`~repro.engine.sink.JsonlSink` spills them
byte-identically across worker counts, and the determinism tests compare
them byte-for-byte.

This module deliberately imports nothing from :mod:`repro.engine`; the
engine imports *it* (one-way layering, like
:class:`~repro.engine.summary.RunSummary`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.core.canonical import canonical_json_bytes


class TransactionVerdict(enum.Enum):
    """Final classification of one transaction in a contended run."""

    COMMITTED = "committed"          # every participant committed
    ABORTED = "aborted"              # terminated without committing anywhere
    BLOCKED = "blocked"              # protocol started, some site never decided
    STALLED = "stalled"              # still waiting for locks at the horizon
    VIOLATED = "violated"            # mixed commit / abort across sites


@dataclass
class TransactionOutcome:
    """Per-transaction metrics emitted by the scheduler.

    Times are simulated-time; ``None`` marks phases never reached.
    ``lock_wait`` is the execution-phase queueing delay (admission to the
    final lock grant, or to abort / horizon for transactions that never got
    their locks) -- the paper's "data inaccessible to other transactions"
    cost, measured per transaction.
    """

    transaction_id: str
    index: int
    verdict: TransactionVerdict
    admitted_at: float
    all_granted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    lock_wait: float = 0.0
    abort_reason: str = ""
    #: :class:`~repro.txn.retry.AbortCause` value of the final abort
    #: ("" while committed / unfinished).
    abort_cause: str = ""
    #: Total admissions of this logical transaction (1 = no retries).
    attempts: int = 1

    @property
    def commit_latency(self) -> Optional[float]:
        """Protocol start to last participant decision (decided runs only)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


@dataclass
class ThroughputSummary:
    """The outcome of one contended-workload scenario, as plain data.

    Carries the same engine plumbing fields as
    :class:`~repro.engine.summary.RunSummary` (``protocol``, ``spec_hash``,
    ``seed``, ``metrics``) so :class:`~repro.engine.engine.SweepEngine`
    streams, caches and spills it through the existing sinks.
    """

    protocol: str
    spec_hash: str
    seed: int
    n_sites: int
    offered: int = 0
    committed: int = 0
    aborted: int = 0
    blocked: int = 0
    stalled: int = 0
    violated: int = 0
    # Retry accounting: committed == committed_first_try +
    # committed_after_retry; retries counts re-admissions (attempts - 1
    # summed over every logical transaction that retried).
    committed_first_try: int = 0
    committed_after_retry: int = 0
    retries: int = 0
    # Final-abort split by cause: aborted == aborted_deadlock +
    # aborted_timeout + aborted_crash + aborted_partition.  (PR 3 folded
    # all four into the single `aborted` counter.)
    aborted_deadlock: int = 0
    aborted_timeout: int = 0
    aborted_crash: int = 0
    aborted_partition: int = 0
    # Victim *events* (per attempt, so retried victims count again).
    deadlock_aborts: int = 0
    timeout_aborts: int = 0
    # Crash / recovery schedule accounting.
    crashes: int = 0
    recoveries: int = 0
    wal_redone: int = 0
    duration: float = 0.0
    max_delay: float = 1.0
    lock_wait_total: float = 0.0
    lock_hold_total: float = 0.0
    commit_latency_total: float = 0.0
    peak_in_flight: int = 0
    peak_waiting: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_bounced: int = 0
    messages_dropped: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # derived rates
    # ------------------------------------------------------------------
    @property
    def goodput(self) -> float:
        """Committed transactions per ``T`` of simulated time."""
        if self.duration <= 0:
            return 0.0
        return self.committed / (self.duration / (self.max_delay or 1.0))

    @property
    def mean_lock_wait(self) -> float:
        """Mean per-transaction lock-queueing delay, in units of ``T``."""
        if not self.offered:
            return 0.0
        return self.lock_wait_total / self.offered / (self.max_delay or 1.0)

    @property
    def exhausted(self) -> int:
        """Logical transactions that aborted with their attempt budget spent.

        Every final abort is an exhausted budget (a budget of 1 exhausts
        on the first abort), so this is an alias that names the open-loop
        reading of :attr:`aborted`.
        """
        return self.aborted

    @property
    def atomicity_violated(self) -> bool:
        """True when any transaction mixed commit and abort across sites."""
        return self.violated > 0

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"{self.protocol}: {self.committed}/{self.offered} committed "
            f"({self.goodput:.2f}/T, {self.committed_after_retry} after retry), "
            f"{self.aborted} aborted, "
            f"{self.blocked + self.stalled} blocked, "
            f"mean lock wait {self.mean_lock_wait:.2f} T"
        )

    # ------------------------------------------------------------------
    # canonical JSON (cache + JSONL spill format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """A JSON-ready dict; ``kind`` tags the record for cache dispatch."""
        return {
            "kind": "throughput",
            "protocol": self.protocol,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "n_sites": self.n_sites,
            "offered": self.offered,
            "committed": self.committed,
            "aborted": self.aborted,
            "blocked": self.blocked,
            "stalled": self.stalled,
            "violated": self.violated,
            "committed_first_try": self.committed_first_try,
            "committed_after_retry": self.committed_after_retry,
            "retries": self.retries,
            "aborted_deadlock": self.aborted_deadlock,
            "aborted_timeout": self.aborted_timeout,
            "aborted_crash": self.aborted_crash,
            "aborted_partition": self.aborted_partition,
            "deadlock_aborts": self.deadlock_aborts,
            "timeout_aborts": self.timeout_aborts,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "wal_redone": self.wal_redone,
            "duration": self.duration,
            "max_delay": self.max_delay,
            "lock_wait_total": self.lock_wait_total,
            "lock_hold_total": self.lock_hold_total,
            "commit_latency_total": self.commit_latency_total,
            "peak_in_flight": self.peak_in_flight,
            "peak_waiting": self.peak_waiting,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_bounced": self.messages_bounced,
            "messages_dropped": self.messages_dropped,
            "metrics": self.metrics,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ThroughputSummary":
        """Rebuild a summary from :meth:`to_json_dict` output."""
        data = {k: v for k, v in payload.items() if k != "kind"}
        data["metrics"] = dict(data.get("metrics", {}))
        return cls(**data)

    def to_json_bytes(self) -> bytes:
        """Canonical JSON bytes (shared contract: :mod:`repro.core.canonical`)."""
        return canonical_json_bytes(self.to_json_dict())

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "ThroughputSummary":
        """Inverse of :meth:`to_json_bytes`."""
        return cls.from_json_dict(json.loads(data.decode("utf-8")))
