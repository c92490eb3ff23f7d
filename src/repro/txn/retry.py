"""Victim retries: abort causes, attempt budgets and seeded backoff.

PR 3's scheduler wrote every deadlock / timeout / crash victim off
forever, which understates contention twice over: real open-loop clients
*resubmit* aborted work (retry storms amplify a blocking protocol's
goodput collapse), and a terminating protocol's partition write-offs come
back after the heal and drain the backlog (its availability advantage).
:class:`RetryPolicy` makes both measurable:

* every abort is tagged with an :class:`AbortCause` (deadlock victim,
  lock-wait timeout, crash write-off, or a commit-phase protocol abort --
  the partition write-off);
* an aborted transaction re-enters the scheduler as a fresh attempt
  (``<id>#r2``, ``#r3``, ...) after a seeded exponential backoff, until
  the bounded attempt budget (:attr:`RetryPolicy.max_attempts`) is
  exhausted;
* the per-outcome accounting (committed first try / committed after
  retry / exhausted, split by final abort cause) flows into
  :class:`~repro.txn.summary.ThroughputSummary`.

Backoff jitter is a pure function of ``(seed, transaction, attempt)`` --
string-seeded :class:`random.Random`, never ``hash()`` -- so retry
schedules are byte-identical across processes, worker counts and shards.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.obs.metrics import SIM_TIME_BUCKETS, get_active as _active_metrics


class AbortCause(enum.Enum):
    """Why a transaction attempt aborted (the retry/accounting split)."""

    DEADLOCK = "deadlock"      # waits-for cycle victim
    TIMEOUT = "timeout"        # lock-wait timeout victim
    CRASH = "crash"            # written off when a participant site crashed
    PARTITION = "partition"    # commit-phase protocol abort (partition write-off)


@dataclass(frozen=True)
class RetryPolicy:
    """How aborted transaction attempts are re-admitted.

    Attributes:
        max_attempts: total admissions per logical transaction (1 disables
            retries -- the PR 3 write-off behaviour).
        backoff: delay before the first retry, in simulated time units.
        backoff_factor: multiplier applied per further attempt
            (exponential backoff).
        jitter: fraction of the computed delay added as seeded noise in
            ``[0, jitter)``; 0 keeps backoff purely exponential.
    """

    max_attempts: int = 1
    backoff: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff <= 0:
            raise ValueError(f"backoff must be > 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def enabled(self) -> bool:
        """True when aborted attempts may be re-admitted at all."""
        return self.max_attempts > 1

    def delay(self, *, failed_attempt: int, transaction_id: str, seed: int) -> float:
        """Backoff before re-admitting after ``failed_attempt`` (1-based).

        Deterministic: the jitter RNG is seeded from a string of
        ``(seed, transaction_id, failed_attempt)``, so the same spec
        always produces the same retry schedule regardless of process,
        worker count or event interleaving.
        """
        if failed_attempt < 1:
            raise ValueError(f"failed_attempt must be >= 1, got {failed_attempt}")
        base = self.backoff * self.backoff_factor ** (failed_attempt - 1)
        if self.jitter == 0.0:
            delay = base
        else:
            rng = random.Random(f"retry:{seed}:{transaction_id}:{failed_attempt}")
            delay = base * (1.0 + self.jitter * rng.random())
        metrics = _active_metrics()
        if metrics is not None:
            # The issued-backoff distribution (simulated time): with the
            # retry-backlog peak, this is how long aborted work sat out.
            metrics.histogram(
                "txn.retry_backoff_simtime", bounds=SIM_TIME_BUCKETS
            ).observe(delay)
        return delay


def attempt_id(logical_id: str, attempt: int) -> str:
    """The scheduler-side transaction id of one attempt.

    Attempt 1 keeps the logical id (workload ids stay recognizable in
    traces and WAL records); later attempts append ``#rN``, which never
    collides with workload ids (``workload-txn-N``).
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return logical_id if attempt == 1 else f"{logical_id}#r{attempt}"
