"""TPUT / RETRY -- goodput under partitions on contended multi-transaction workloads.

Sections 1-2 argue that a blocked commit protocol is an *availability*
failure: the blocked transaction's locks render its data inaccessible to
every transaction behind it.  The AVAIL experiment quantifies that with
lock-hold times of a single transaction; this experiment measures it
directly.  Each scenario offers a stream of update transactions
(:class:`~repro.txn.runner.ThroughputSpec`) to one cluster, a partition
strikes mid-run and heals, and the per-protocol
:class:`~repro.txn.sink.ThroughputSink` aggregates goodput, abort rate
and lock-wait.  Blocking protocols (2PC, 3PC, quorum) never release the
locks of the transactions caught by the partition, so their goodput
collapses and stays collapsed after the heal; the terminating protocols
abort those transactions within bounded time and recover.

The **RETRY** panel (:func:`run_retry_recovery_comparison`) replays the
same argument under open-loop conditions: Poisson arrivals, hot-spot key
skew, lock-wait timeouts, a bounded retry budget, and a crash/recovery
schedule on top of the transient partition.  Retries *amplify* the gap --
a blocking protocol's stranded locks turn every retry into another
timeout victim (a retry storm burning the budget for nothing), while the
terminating protocols' partition write-offs re-enter after the heal and
commit (`committed_after_retry`), draining the backlog the outage built
up.

The sweep axes are partition onset x offered load x read fraction per
protocol; every grid point executes through the sweep engine (workers,
result cache and streaming sinks all apply).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence

from repro.engine import SweepTask
from repro.experiments.harness import ExperimentReport, get_engine
from repro.txn.sink import ThroughputSink
from repro.sim.failures import CrashSchedule, FaultPlan
from repro.sim.partition import PartitionSchedule
from repro.txn.deadlock import DeadlockPolicy
from repro.txn.retry import RetryPolicy
from repro.txn.runner import ThroughputSpec

#: Protocols with no timeout / undeliverable transitions: a partition leaves
#: them holding their locks for the rest of the run.
BLOCKING_PROTOCOLS: tuple[str, ...] = (
    "two-phase-commit",
    "three-phase-commit",
    "quorum-commit",
)

#: The paper's non-blocking three-phase variants (Theorem 9 / Theorem 10).
NONBLOCKING_PROTOCOLS: tuple[str, ...] = (
    "terminating-three-phase-commit",
    "terminating-quorum-commit",
)

DEFAULT_PROTOCOLS: tuple[str, ...] = BLOCKING_PROTOCOLS + NONBLOCKING_PROTOCOLS


def mid_run_partition(
    spec: ThroughputSpec, *, onset_fraction: float = 0.5, heal_after: Optional[float] = 8.0
) -> PartitionSchedule:
    """A simple partition cutting off the highest site mid-admission.

    ``onset_fraction`` places the onset within the admission span;
    ``heal_after`` heals that many time units later (``None`` = permanent).
    """
    span = spec.arrival_times()[-1] or spec.effective_latency().upper_bound
    onset = max(spec.effective_latency().upper_bound * 0.25, span * onset_fraction)
    g1 = list(range(1, spec.n_sites))
    g2 = [spec.n_sites]
    if not g1:  # single-site cluster: nothing to cut
        return PartitionSchedule.none()
    if heal_after is None:
        return PartitionSchedule.simple(onset, g1, g2)
    return PartitionSchedule.transient(onset, onset + heal_after, g1, g2)


def throughput_tasks(
    protocols: Sequence[str],
    *,
    n_sites: int = 3,
    n_transactions: int = 200,
    tx_rates: Sequence[float] = (1.0,),
    read_fractions: Sequence[float] = (0.2,),
    onset_fractions: Sequence[Optional[float]] = (0.5,),
    heal_after: Optional[float] = 8.0,
    operations_per_site: int = 1,
    n_keys: int = 8,
    op_delay: float = 0.05,
    arrival: str = "uniform",
    hotspot: float = 0.0,
    deadlock: Optional[DeadlockPolicy] = None,
    retry: Optional[RetryPolicy] = None,
    crashes: Optional[CrashSchedule] = None,
    faults: Optional[FaultPlan] = None,
    lock_transport: str = "direct",
    seeds: Sequence[int] = (0,),
) -> list[SweepTask]:
    """The TPUT grid: protocol x onset x offered load x read fraction x seed.

    An onset fraction of ``None`` yields a failure-free (no-partition)
    scenario.  ``arrival`` / ``hotspot`` / ``retry`` / ``crashes`` shape
    the open-loop variants (RETRY panel, ``repro throughput --arrival
    poisson --retries ... --faults crash=...``); ``faults`` /
    ``lock_transport`` thread the unified
    :class:`~repro.sim.failures.FaultPlan` and the lock-message transport
    through every grid point (``repro throughput --faults
    loss=0.3,retransmit=on``).  Enumeration order is protocol outermost,
    seed innermost (matching :class:`~repro.engine.grid.ScenarioGrid`
    conventions), so results and cache keys are stable across runs and
    worker counts.
    """
    tasks: list[SweepTask] = []
    for protocol in protocols:
        for onset_fraction in onset_fractions:
            for tx_rate in tx_rates:
                for read_fraction in read_fractions:
                    for seed in seeds:
                        spec = ThroughputSpec(
                            n_sites=n_sites,
                            n_transactions=n_transactions,
                            tx_rate=tx_rate,
                            arrival=arrival,
                            read_fraction=read_fraction,
                            operations_per_site=operations_per_site,
                            n_keys=n_keys,
                            hotspot=hotspot,
                            op_delay=op_delay,
                            deadlock=deadlock or DeadlockPolicy(),
                            retry=retry or RetryPolicy(),
                            crashes=crashes,
                            faults=faults,
                            lock_transport=lock_transport,
                            seed=seed,
                        )
                        if onset_fraction is None:
                            partition = None
                        else:
                            partition = mid_run_partition(
                                spec,
                                onset_fraction=onset_fraction,
                                heal_after=heal_after,
                            )
                        tasks.append(
                            SweepTask(
                                protocol=protocol,
                                spec=replace(spec, partition=partition),
                            )
                        )
    return tasks


def run_throughput_comparison(
    n_sites: int = 3,
    *,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    n_transactions: int = 200,
    tx_rates: Sequence[float] = (1.0,),
    read_fractions: Sequence[float] = (0.2,),
    onset_fractions: Sequence[float] = (0.5,),
    heal_after: Optional[float] = 8.0,
    seeds: Iterable[int] = (0,),
    workers: Optional[int] = None,
) -> ExperimentReport:
    """Compare goodput under a mid-run partition across protocols.

    Returns a report whose ``details`` carry the raw
    :class:`~repro.txn.sink.ThroughputSink` totals plus the blocking /
    non-blocking goodput split the headline asserts.
    """
    tasks = throughput_tasks(
        list(protocols),
        n_sites=n_sites,
        n_transactions=n_transactions,
        tx_rates=tx_rates,
        read_fractions=read_fractions,
        onset_fractions=onset_fractions,
        heal_after=heal_after,
        seeds=list(seeds),
    )
    sink = ThroughputSink()
    get_engine(workers).run_streaming(tasks, sinks=sink)
    report = ExperimentReport(
        experiment="TPUT",
        title=(
            f"Goodput under a mid-run partition "
            f"({n_sites} sites, {n_transactions} transactions/scenario)"
        ),
        table=sink.rows(),
    )
    blocking = {p: sink.goodput(p) for p in protocols if p in BLOCKING_PROTOCOLS}
    nonblocking = {p: sink.goodput(p) for p in protocols if p in NONBLOCKING_PROTOCOLS}
    report.details = {
        "totals": sink.totals,
        "blocking_goodput": blocking,
        "nonblocking_goodput": nonblocking,
    }
    if blocking and nonblocking:
        report.headline = (
            f"Blocking protocols keep the partition's locks and collapse to "
            f"<= {max(blocking.values()):.3f} committed transactions per T, while the "
            f"non-blocking three-phase variants release them and sustain "
            f">= {min(nonblocking.values()):.3f}."
        )
    return report


def default_retry_crash_schedule(
    spec: ThroughputSpec, *, crash_fraction: float = 0.65, outage: float = 6.0
) -> CrashSchedule:
    """The RETRY panel's crash event: site 2 fails mid-run and recovers.

    The crash lands at ``crash_fraction`` of the *mean* admission span
    (``(n-1) * T / tx_rate`` -- analytic, so one schedule serves every
    seed of a Poisson sweep rather than tracking seed 0's realized
    draws) -- deliberately after the default partition has healed -- and
    the site recovers ``outage`` time units later, so the run exercises
    both failure modes (partition write-offs, then crash write-offs with
    WAL-replaying recovery) and the post-recovery re-admission of retried
    victims.
    """
    max_delay = spec.effective_latency().upper_bound
    span = (spec.n_transactions - 1) * max_delay / spec.tx_rate
    at = max(max_delay * 0.5, span * crash_fraction)
    site = min(2, spec.n_sites)
    return CrashSchedule.single(site, at, recover_at=at + outage)


def run_retry_recovery_comparison(
    n_sites: int = 3,
    *,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    n_transactions: int = 150,
    tx_rate: float = 2.0,
    hotspot: float = 1.0,
    n_keys: int = 6,
    max_attempts: int = 3,
    backoff: float = 1.0,
    wait_timeout: float = 4.0,
    onset_fraction: float = 0.35,
    heal_after: float = 8.0,
    crash: bool = True,
    seeds: Iterable[int] = (0,),
    workers: Optional[int] = None,
) -> ExperimentReport:
    """RETRY -- open-loop retries and crash/recovery amplify the TPUT gap.

    Poisson arrivals, hot-spot skew, lock-wait timeouts and a bounded
    retry budget on top of a transient partition plus (optionally) a
    crash/recovery schedule.  Blocking protocols turn every retry of a
    transaction queued behind stranded locks into another timeout victim
    -- a retry storm that exhausts the budget and grows the unserved
    backlog -- while the terminating protocols' write-offs re-enter after
    the heal and commit (``committed after retry``), draining theirs.
    """
    tasks = throughput_tasks(
        list(protocols),
        n_sites=n_sites,
        n_transactions=n_transactions,
        tx_rates=(tx_rate,),
        read_fractions=(0.2,),
        onset_fractions=(onset_fraction,),
        heal_after=heal_after,
        n_keys=n_keys,
        op_delay=0.1,
        arrival="poisson",
        hotspot=hotspot,
        deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=wait_timeout),
        retry=RetryPolicy(max_attempts=max_attempts, backoff=backoff),
        seeds=list(seeds),
    )
    if crash and tasks:
        # Derive the crash instant from a spec the grid actually runs, so
        # the timing can never drift from the executed parameters.
        schedule = default_retry_crash_schedule(tasks[0].spec)
        tasks = [
            SweepTask(protocol=task.protocol, spec=replace(task.spec, crashes=schedule))
            for task in tasks
        ]
    sink = ThroughputSink()
    get_engine(workers).run_streaming(tasks, sinks=sink)
    report = ExperimentReport(
        experiment="RETRY",
        title=(
            f"Open-loop retries + crash/recovery under a mid-run partition "
            f"({n_sites} sites, {n_transactions} Poisson arrivals/scenario, "
            f"budget {max_attempts} attempts)"
        ),
        table=sink.rows(),
    )
    committed = {p: sink.totals.get(p, {}).get("committed", 0) for p in protocols}
    after_retry = {
        p: sink.totals.get(p, {}).get("committed_after_retry", 0) for p in protocols
    }
    unserved = {
        p: sink.totals.get(p, {}).get("offered", 0) - committed[p] for p in protocols
    }
    report.details = {
        "totals": sink.totals,
        "committed": committed,
        "committed_after_retry": after_retry,
        "unserved_backlog": unserved,
    }
    blocking = [p for p in protocols if p in BLOCKING_PROTOCOLS]
    nonblocking = [p for p in protocols if p in NONBLOCKING_PROTOCOLS]
    if blocking and nonblocking:
        report.headline = (
            f"Retry storms leave the blocking protocols >= "
            f"{min(unserved[p] for p in blocking)} transactions of unserved "
            f"backlog (<= {max(after_retry[p] for p in blocking)} commits after "
            f"retry), while the terminating variants drain theirs post-heal: "
            f">= {min(after_retry[p] for p in nonblocking)} committed-after-retry "
            f"each and <= {max(unserved[p] for p in nonblocking)} unserved."
        )
    return report
