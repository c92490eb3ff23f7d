"""Throughput scenarios: a contended workload through one commit protocol.

A :class:`ThroughputSpec` is the concurrent-workload analogue of
:class:`~repro.protocols.runner.ScenarioSpec`: everything needed to run a
stream of update transactions against one cluster under one protocol and
one failure schedule, reduced to plain (picklable, stably hashable) data.
:func:`run_throughput_scenario` executes it deterministically -- workload
generation, arrivals, lock scheduling and the commit protocols all derive
from ``(spec, seed)`` alone -- and reduces the run to a
:class:`~repro.txn.summary.ThroughputSummary`.

The sweep engine executes these specs exactly like scenario specs (same
task lists, worker pools, result cache and streaming sinks); see
:func:`repro.engine.engine.execute_task` for the dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite
from repro.protocols.registry import Protocol, create_protocol
from repro.sim.cluster import Cluster
from repro.sim.failures import CrashSchedule, FaultPlan, normalize_fault_plan
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import OPTIMISTIC
from repro.sim.partition import PartitionSchedule
from repro.sim.trace import NullTrace
from repro.obs.metrics import SIM_TIME_BUCKETS, get_active as _active_metrics
from repro.txn.deadlock import DeadlockPolicy
from repro.txn.retry import AbortCause, RetryPolicy
from repro.txn.scheduler import TransactionScheduler
from repro.txn.summary import ThroughputSummary, TransactionVerdict
from repro.workloads.transactions import (
    ARRIVAL_PROCESSES,
    TransactionMix,
    WorkloadConfig,
    generate_arrivals,
    generate_transactions,
)


@dataclass
class ThroughputSpec:
    """Everything needed to run one contended workload through one protocol.

    Attributes:
        n_sites: participating sites (site 1 masters every transaction).
        n_transactions: transactions offered over the run.
        tx_rate: offered load, in transactions per ``T`` (the mean
            inter-arrival gap is ``T / tx_rate``).
        arrival: arrival process -- ``"uniform"`` (evenly spaced, the
            closed deterministic schedule) or ``"poisson"`` (open-loop
            seeded exponential gaps); either way the spec hash pins the
            whole arrival schedule.
        read_fraction / operations_per_site / n_keys /
        participants_per_transaction: workload shape (see
            :class:`~repro.workloads.transactions.WorkloadConfig`).
        hotspot: zipf-like key-skew exponent (0 = uniform keys; larger
            values concentrate traffic on a hot front of the keyspace).
        op_delay: simulated execution time per data operation; the gap
            between a transaction's successive lock requests.
        partition: partition / heal schedule (default: none).
        crashes: site crash / recovery schedule (default: none).  At a
            crash the site's waiters are written off and its lock table is
            lost; at recovery the WAL replays before new lock requests are
            admitted.
        latency: network latency model; its upper bound is the paper's ``T``.
        model: ``"optimistic"`` or ``"pessimistic"`` partition model.
        deadlock: deadlock-handling policy (including victim selection).
        retry: re-admission policy for aborted attempts (default: none).
        horizon: simulated-time limit; defaults to the admission span plus
            ``40 T`` of drain, far beyond every decision bound in the paper.
        seed: seed for workload generation, arrivals, retry jitter and the
            simulator RNG.
        faults: unified fault plan (message loss / duplication / reordering,
            omission and Byzantine sites, retransmission).  Hash-optional:
            ``None`` keeps the spec hash byte-identical to the pre-FaultPlan
            format.
        lock_transport: ``"direct"`` (lock requests placed straight at the
            sites, the historical modelling choice) or ``"network"`` (lock
            request / grant travel as messages, so partitions and loss
            faults cut lock acquisition too).  Auto-upgraded to
            ``"network"`` when a fault plan with message faults is present.
            Hash-optional at its ``"direct"`` default.
    """

    n_sites: int = 3
    n_transactions: int = 200
    tx_rate: float = 4.0
    arrival: str = "uniform"
    read_fraction: float = 0.2
    operations_per_site: int = 1
    n_keys: int = 8
    participants_per_transaction: Optional[int] = None
    hotspot: float = 0.0
    op_delay: float = 0.05
    partition: Optional[PartitionSchedule] = None
    crashes: Optional[CrashSchedule] = None
    latency: Optional[LatencyModel] = None
    model: str = OPTIMISTIC
    deadlock: DeadlockPolicy = field(default_factory=DeadlockPolicy)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    horizon: Optional[float] = None
    seed: int = 0
    faults: Optional[FaultPlan] = field(
        default=None, metadata={"hash_optional": True}
    )
    lock_transport: str = field(
        default="direct", metadata={"hash_optional": True}
    )

    def __post_init__(self) -> None:
        self.faults = normalize_fault_plan(self.faults)
        if self.faults is not None:
            self.faults.validate(self.n_sites)
            if self.faults.has_message_faults and self.lock_transport == "direct":
                # Message faults must be able to cut lock acquisition; a
                # direct (non-network) lock path would silently bypass them.
                self.lock_transport = "network"
        if self.lock_transport not in ("direct", "network"):
            raise ValueError(
                f"lock_transport must be 'direct' or 'network', "
                f"got {self.lock_transport!r}"
            )
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.n_transactions < 1:
            raise ValueError(f"n_transactions must be >= 1, got {self.n_transactions}")
        if self.tx_rate <= 0:
            raise ValueError(f"tx_rate must be > 0, got {self.tx_rate}")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_PROCESSES}, got {self.arrival!r}"
            )
        if self.n_keys < 1:
            raise ValueError(f"n_keys must be >= 1, got {self.n_keys}")
        if self.op_delay < 0:
            raise ValueError(f"op_delay must be >= 0, got {self.op_delay}")
        if self.crashes is not None:
            self.crashes.validate(self.n_sites)
        # Build the workload config eagerly (mix ranges, participant counts,
        # master bounds, hotspot exponent) so bad specs fail at
        # construction, not mid-sweep in a worker process.
        self.workload_config()

    def effective_latency(self) -> LatencyModel:
        """The latency model, defaulting to a constant delay of 1 (= T)."""
        return self.latency or ConstantLatency(1.0)

    def workload_config(self) -> WorkloadConfig:
        """The equivalent workload-generator configuration."""
        return WorkloadConfig(
            n_sites=self.n_sites,
            n_transactions=self.n_transactions,
            keys=tuple(f"key-{index}" for index in range(self.n_keys)),
            participants_per_transaction=self.participants_per_transaction,
            mix=TransactionMix(
                read_fraction=self.read_fraction,
                operations_per_site=self.operations_per_site,
            ),
            master=1,
            hotspot=self.hotspot,
            seed=self.seed,
        )

    def arrival_times(self) -> list[float]:
        """Deterministic admission instants for the configured process."""
        interval = self.effective_latency().upper_bound / self.tx_rate
        return generate_arrivals(
            self.n_transactions,
            mean_gap=interval,
            process=self.arrival,
            seed=self.seed,
        )

    def effective_horizon(self) -> float:
        """The run horizon: explicit, or admission span plus ``40 T`` drain.

        With retransmission in force the drain is measured in the plan's
        *effective* delivery bound (retransmitted messages may take several
        rounds), mirroring :meth:`ScenarioSpec.effective_horizon`.
        """
        if self.horizon is not None:
            return self.horizon
        max_delay = self.effective_latency().upper_bound
        if self.faults is not None and self.faults.retransmit is not None:
            max_delay = self.faults.effective_max_delay(max_delay)
        return self.arrival_times()[-1] + 40.0 * max_delay


@dataclass
class ThroughputRunResult:
    """A throughput run with its live objects, for tests and diagnostics.

    The engine keeps only :attr:`summary`; the scheduler / cluster stay in
    the worker process, like the single-transaction runner's heavyweight
    state.  ``cluster.trace`` is a :class:`~repro.sim.trace.NullTrace`
    unless the run was made with ``collect_trace=True``.
    """

    summary: ThroughputSummary
    scheduler: TransactionScheduler
    cluster: Cluster
    db_sites: dict[int, DatabaseSite]


def run_throughput_scenario(
    protocol: Union[str, Protocol],
    spec: Optional[ThroughputSpec] = None,
    *,
    spec_hash: str = "",
    collect_trace: bool = False,
    **overrides,
) -> ThroughputRunResult:
    """Run one contended workload under ``protocol`` and summarize it.

    Keyword overrides are applied on top of ``spec`` (or a default spec),
    mirroring :func:`~repro.protocols.runner.run_scenario`.

    The trace is opt-in: the summary is computed from scheduler, lock-table
    and network state, never from the trace, so by default the cluster gets
    a :class:`~repro.sim.trace.NullTrace` and no per-event records are
    built.  ``collect_trace=True`` keeps the full trace in
    ``result.cluster.trace``; scheduling is the same either way, so the
    summary bytes are too.
    """
    if spec is None:
        spec = ThroughputSpec()
    if overrides:
        spec = ThroughputSpec(**{**spec.__dict__, **overrides})
    if isinstance(protocol, str):
        protocol = create_protocol(protocol)

    latency = spec.effective_latency()
    max_delay = latency.upper_bound
    if spec.faults is not None and spec.faults.retransmit is not None:
        max_delay = spec.faults.effective_max_delay(max_delay)
    cluster = Cluster(
        spec.n_sites,
        latency=latency,
        model=spec.model,
        seed=spec.seed,
        trace=None if collect_trace else NullTrace(),
    )
    db_sites = {site: DatabaseSite(site) for site in cluster.site_ids()}
    scheduler = TransactionScheduler(
        cluster,
        protocol,
        db_sites,
        policy=spec.deadlock,
        retry=spec.retry,
        op_delay=spec.op_delay,
        timers=TerminationTimers(max_delay=max_delay),
        seed=spec.seed,
        lock_transport=spec.lock_transport,
    )
    if spec.partition is not None:
        cluster.apply_partition_schedule(spec.partition)
    if spec.crashes is not None:
        cluster.apply_crash_schedule(spec.crashes)
    if spec.faults is not None:
        cluster.apply_fault_plan(spec.faults)
        if spec.faults.byzantine:
            from repro.protocols.byzantine import install_byzantine_interceptors

            install_byzantine_interceptors(cluster, spec.faults)
    scheduler.submit_all(
        generate_transactions(spec.workload_config()), arrivals=spec.arrival_times()
    )
    horizon = spec.effective_horizon()
    cluster.run(until=horizon, max_events=5_000_000)
    scheduler.finalize(horizon)

    summary = ThroughputSummary(
        protocol=getattr(protocol, "name", type(protocol).__name__),
        spec_hash=spec_hash,
        seed=spec.seed,
        n_sites=spec.n_sites,
        duration=horizon,
        max_delay=latency.upper_bound,
        peak_in_flight=scheduler.peak_in_flight,
        peak_waiting=scheduler.peak_waiting,
        deadlock_aborts=scheduler.deadlock_aborts,
        timeout_aborts=scheduler.timeout_aborts,
        retries=scheduler.retries,
        crashes=scheduler.crashes,
        recoveries=scheduler.recoveries,
        wal_redone=scheduler.wal_redone,
        lock_hold_total=scheduler.lock_hold_total(horizon),
        messages_sent=cluster.network.messages_sent,
        messages_delivered=cluster.network.messages_delivered,
        messages_bounced=cluster.network.messages_bounced,
        messages_dropped=cluster.network.messages_dropped,
    )
    cause_fields = {
        AbortCause.DEADLOCK.value: "aborted_deadlock",
        AbortCause.TIMEOUT.value: "aborted_timeout",
        AbortCause.CRASH.value: "aborted_crash",
        AbortCause.PARTITION.value: "aborted_partition",
    }
    outcomes = scheduler.outcomes()
    for outcome in outcomes:
        summary.offered += 1
        summary.lock_wait_total += outcome.lock_wait
        if outcome.verdict is TransactionVerdict.COMMITTED:
            summary.committed += 1
            summary.commit_latency_total += outcome.commit_latency or 0.0
            if outcome.attempts == 1:
                summary.committed_first_try += 1
            else:
                summary.committed_after_retry += 1
        elif outcome.verdict is TransactionVerdict.ABORTED:
            summary.aborted += 1
            field_name = cause_fields.get(outcome.abort_cause)
            if field_name is None:
                # Loud, not silently misattributed: every abort path must
                # tag its cause or the per-cause split would quietly lie.
                raise ValueError(
                    f"transaction {outcome.transaction_id} aborted with "
                    f"unknown cause {outcome.abort_cause!r}"
                )
            setattr(summary, field_name, getattr(summary, field_name) + 1)
        elif outcome.verdict is TransactionVerdict.BLOCKED:
            summary.blocked += 1
        elif outcome.verdict is TransactionVerdict.STALLED:
            summary.stalled += 1
        else:
            summary.violated += 1
    metrics = _active_metrics()
    if metrics is not None:
        # Post-run fold (one pass per scenario, zero cost while the
        # simulation runs): the contention shape of this workload.  The
        # lock-wait histogram is in *simulated* time units, hence the
        # ``_simtime`` suffix that keeps it out of wall-clock phase tables.
        lock_wait = metrics.histogram(
            "txn.lock_wait_simtime", bounds=SIM_TIME_BUCKETS
        )
        for outcome in outcomes:
            lock_wait.observe(outcome.lock_wait)
        metrics.counter("txn.offered").inc(summary.offered)
        metrics.counter("txn.committed").inc(summary.committed)
        metrics.counter("txn.aborted").inc(summary.aborted)
        metrics.counter("txn.deadlock_aborts").inc(summary.deadlock_aborts)
        metrics.counter("txn.timeout_aborts").inc(summary.timeout_aborts)
        metrics.counter("txn.retries").inc(summary.retries)
        # Detector work: one check per queued request, how many of them the
        # in-edge pre-filter did not settle, and how many fell through to
        # the whole-graph search (see _break_deadlocks).
        metrics.counter("txn.deadlock.checks").inc(scheduler.deadlock_checks)
        metrics.counter("txn.deadlock.walks").inc(scheduler.deadlock_walks)
        metrics.counter("txn.deadlock.full_searches").inc(
            scheduler.deadlock_full_searches
        )
        metrics.gauge("txn.peak_waiting").set(float(scheduler.peak_waiting))
        metrics.gauge("txn.retry_backlog_peak").set(
            float(scheduler.peak_retry_backlog)
        )
    return ThroughputRunResult(
        summary=summary, scheduler=scheduler, cluster=cluster, db_sites=db_sites
    )
