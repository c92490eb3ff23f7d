"""Concurrent-transaction subsystem: contention, deadlocks, throughput.

The single-transaction runner measures the paper's availability argument
indirectly (lock-hold times of one transaction); this package measures it
directly by scheduling *many* commit-protocol instances concurrently over
one shared cluster:

* :mod:`repro.txn.scheduler` -- the lock-contention scheduler: strict-2PL
  execution phase through FIFO lock queues, deadlock handling, one
  coordinator role-set per in-flight transaction, crash write-offs and
  WAL-replaying recovery;
* :mod:`repro.txn.deadlock` -- waits-for cycle detection, pluggable
  :class:`~repro.txn.deadlock.VictimPolicy` selection and the configurable
  :class:`~repro.txn.deadlock.DeadlockPolicy`;
* :mod:`repro.txn.retry` -- :class:`~repro.txn.retry.RetryPolicy` victim
  re-admission with seeded exponential backoff, and the
  :class:`~repro.txn.retry.AbortCause` accounting split;
* :mod:`repro.txn.runner` / :mod:`repro.txn.summary` -- declarative
  :class:`~repro.txn.runner.ThroughputSpec` scenarios reduced to plain
  :class:`~repro.txn.summary.ThroughputSummary` records that flow through
  the sweep engine's workers, cache and streaming sinks;
* :mod:`repro.txn.kind` / :mod:`repro.txn.sink` -- the subsystem's
  spec-kind registration (executor, codec, and the
  :class:`~repro.txn.sink.ThroughputSink` default aggregate) with
  :mod:`repro.engine.registry`; the engine resolves everything above
  through the registry and imports nothing from this package.

The ``repro throughput`` CLI subcommand and
:mod:`repro.experiments.throughput` build the partition-onset x offered
load x read-fraction sweeps on top.
"""

from repro.txn.deadlock import (
    DeadlockPolicy,
    VictimPolicy,
    find_cycle,
    merge_waits_for,
    select_victim,
)
from repro.txn.retry import AbortCause, RetryPolicy
from repro.txn.runner import ThroughputRunResult, ThroughputSpec, run_throughput_scenario
from repro.txn.scheduler import TransactionScheduler, TransactionState, TxnPhase
from repro.txn.sink import ThroughputSink
from repro.txn.summary import ThroughputSummary, TransactionOutcome, TransactionVerdict

__all__ = [
    "AbortCause",
    "DeadlockPolicy",
    "RetryPolicy",
    "ThroughputRunResult",
    "ThroughputSink",
    "ThroughputSpec",
    "ThroughputSummary",
    "TransactionOutcome",
    "TransactionScheduler",
    "TransactionState",
    "TransactionVerdict",
    "TxnPhase",
    "VictimPolicy",
    "find_cycle",
    "merge_waits_for",
    "run_throughput_scenario",
    "select_victim",
]
