"""Randomized schedule fuzzing of the concurrent-transaction subsystem.

A seeded generator drives ~200 random workloads -- mixed protocols,
deadlock/victim policies, retry budgets, arrival processes, hot-spot skew,
partitions, crash/recovery schedules and unified fault plans (lossy,
duplicating and reordering links, send/receive omission, equivocating and
arbitrary Byzantine participants, with and without the retransmission
layer) -- and asserts the lock-manager and scheduler invariants on every
schedule:

* **FIFO no-barging / upgrade priority** -- checked at every promoted
  grant: a granted request that overtakes an older pending stranger on its
  key must be a shared->exclusive upgrade;
* **queue shape** -- at every probe instant: pending upgrades sit ahead of
  ordinary requests, and the ordinary suffix is in arrival order;
* **no lock held (or queued) by an aborted transaction**;
* **waits-for acyclicity** -- whenever cycle detection is on, no
  all-waiting cycle survives between events (victim aborts must actually
  break every deadlock they are invoked on);
* **detector differential** -- every answer of the waiter-rooted check
  (``_on_cycle``: in-edge pre-filter, then walk) must equal reachability of
  the waiter from itself over ``merge_waits_for(... waits_for() ...)``;
  every time the check settles a request without the whole-graph search,
  the reference ``find_cycle`` over that graph must find no cycle either;
  and at every probe each site's per-owner views (``LockManager.waits_of``
  and ``is_waited_on``) agree with the site's ``waits_for()`` map;
* **conservation at the horizon** -- every admitted logical transaction is
  exactly one of committed / exhausted (aborted) / in flight, committed
  splits into first-try + after-retry, and aborts split exactly by cause.

Probes run as simulator events (between scheduler events), so transient
mid-event states never trip them; every failure message embeds the
workload's case seed for byte-exact reproduction.
"""

import random
from dataclasses import replace

import pytest

from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite, SiteState
from repro.protocols.registry import create_protocol
from repro.sim.cluster import Cluster
from repro.sim.failures import (
    ARBITRARY,
    EQUIVOCATE,
    RECEIVE_OMISSION,
    SEND_OMISSION,
    ByzantineSpec,
    CrashSchedule,
    FaultPlan,
    LinkFault,
    OmissionFault,
    RetransmitPolicy,
)
from repro.sim.partition import PartitionSchedule
from repro.txn import (
    DeadlockPolicy,
    RetryPolicy,
    ThroughputSpec,
    TransactionScheduler,
    TransactionVerdict,
    TxnPhase,
    VictimPolicy,
    find_cycle,
    merge_waits_for,
)
from repro.workloads.transactions import generate_transactions

MASTER_SEED = 20260727
N_WORKLOADS = 200
BATCHES = 20

PROTOCOLS = (
    "two-phase-commit",
    "three-phase-commit",
    "quorum-commit",
    "terminating-three-phase-commit",
    "terminating-quorum-commit",
)


def random_case(case_seed: int):
    """One random (protocol, spec) pair, a pure function of ``case_seed``."""
    rng = random.Random(f"fuzz-case:{case_seed}")
    n_sites = rng.randint(2, 4)

    partition = None
    if rng.random() < 0.5 and n_sites >= 2:
        onset = rng.uniform(1.0, 12.0)
        cut = rng.randint(1, n_sites - 1)
        g1 = list(range(1, cut + 1))
        g2 = list(range(cut + 1, n_sites + 1))
        if rng.random() < 0.7:
            partition = PartitionSchedule.transient(
                onset, onset + rng.uniform(2.0, 8.0), g1, g2
            )
        else:
            partition = PartitionSchedule.simple(onset, g1, g2)

    crashes = None
    if rng.random() < 0.4:
        at = rng.uniform(2.0, 16.0)
        recover_at = at + rng.uniform(3.0, 8.0) if rng.random() < 0.7 else None
        crashes = CrashSchedule.single(rng.randint(1, n_sites), at, recover_at)

    spec = ThroughputSpec(
        n_sites=n_sites,
        n_transactions=rng.randint(6, 14),
        tx_rate=rng.choice([1.0, 2.0, 4.0]),
        arrival=rng.choice(["uniform", "poisson"]),
        read_fraction=rng.choice([0.0, 0.2, 0.5]),
        operations_per_site=rng.randint(1, 2),
        n_keys=rng.randint(2, 5),
        hotspot=rng.choice([0.0, 0.8, 1.5]),
        op_delay=rng.choice([0.0, 0.05, 0.25]),
        partition=partition,
        crashes=crashes,
        deadlock=DeadlockPolicy(
            detect_cycles=rng.random() < 0.8,
            wait_timeout=rng.choice([None, 3.0, 6.0]),
            victim=rng.choice(list(VictimPolicy)),
        ),
        retry=RetryPolicy(
            max_attempts=rng.randint(1, 3),
            backoff=rng.choice([0.5, 1.5]),
            jitter=rng.choice([0.0, 0.5]),
        ),
        seed=rng.randrange(1_000_000),
    )

    # Fault plans draw last so the pre-existing axes keep their exact
    # realizations for a given case seed; replace() re-runs validation and
    # the direct->network lock-transport auto-upgrade.
    if rng.random() < 0.45:
        plan_seed = rng.randrange(1_000_000)
        fault_class = rng.choice(
            ["loss", "duplicate", "reorder", "omission", "byzantine"]
        )
        if fault_class == "loss":
            plan = FaultPlan(
                links=(LinkFault(loss=rng.choice([0.15, 0.3])),), seed=plan_seed
            )
        elif fault_class == "duplicate":
            plan = FaultPlan(links=(LinkFault(duplicate=0.5),), seed=plan_seed)
        elif fault_class == "reorder":
            plan = FaultPlan(
                links=(LinkFault(reorder=0.5, reorder_window=1.0),),
                seed=plan_seed,
            )
        elif fault_class == "omission":
            plan = FaultPlan(
                omissions=(
                    OmissionFault(
                        site=rng.randint(1, n_sites),
                        kind=rng.choice([SEND_OMISSION, RECEIVE_OMISSION]),
                        probability=0.4,
                    ),
                ),
                seed=plan_seed,
            )
        else:
            plan = FaultPlan(
                byzantine=(
                    ByzantineSpec(
                        site=rng.randint(1, n_sites),
                        mode=rng.choice([EQUIVOCATE, ARBITRARY]),
                    ),
                ),
                seed=plan_seed,
            )
        if rng.random() < 0.5:
            plan = replace(
                plan,
                retransmit=RetransmitPolicy(
                    max_attempts=rng.choice([3, 6]), interval=0.8
                ),
            )
        spec = replace(spec, faults=plan)

    return rng.choice(PROTOCOLS), spec


def reaches_itself(graph, start) -> bool:
    """Reference answer for ``_on_cycle``: is ``start`` on a cycle of ``graph``?"""
    seen = set()
    frontier = list(graph.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node == start:
            return True
        if node not in seen:
            seen.add(node)
            frontier.extend(graph.get(node, ()))
    return False


class InvariantChecker:
    """Wraps a scheduler's lock tables and asserts invariants as it runs."""

    def __init__(self, context: str, scheduler, db_sites) -> None:
        self.context = context
        self.scheduler = scheduler
        self.db_sites = db_sites

    def fail(self, message: str) -> None:
        pytest.fail(f"[{self.context}] {message}")

    # ------------------------------------------------------------------
    # grant-time invariant: FIFO no-barging, upgrades excepted
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Interpose on every site's grant callback (crash-surviving)."""
        for site in sorted(self.db_sites):
            db = self.db_sites[site]
            original = db.locks.on_grant

            def checked(request, _site=site, _db=db, _original=original):
                self.check_grant(_site, _db, request)
                _original(request)

            db.locks.on_grant = checked

        detect = self.scheduler._break_deadlocks

        def checked_detect(waiter):
            before = self.scheduler.deadlock_full_searches
            detect(waiter)
            if self.scheduler.deadlock_full_searches != before:
                return
            # The check returned at once (graph untouched): the reference
            # search over the whole union graph must agree there is no cycle.
            cycle = find_cycle(self.union_graph())
            if cycle is not None:
                self.fail(
                    f"waiter-rooted check for {waiter} found no cycle but the "
                    f"reference search found {sorted(cycle)}"
                )

        self.scheduler._break_deadlocks = checked_detect

        on_cycle = self.scheduler._on_cycle

        def checked_on_cycle(waiter):
            answer = on_cycle(waiter)
            expected = reaches_itself(self.union_graph(), waiter)
            if answer != expected:
                self.fail(
                    f"_on_cycle({waiter}) answered {answer}, reachability over "
                    f"the union waits-for graph says {expected}"
                )
            return answer

        self.scheduler._on_cycle = checked_on_cycle

    def union_graph(self):
        return merge_waits_for(
            {site: db.locks.waits_for() for site, db in self.db_sites.items()}
        )

    def check_grant(self, site, db, request) -> None:
        overtaken = [
            pending
            for pending in db.locks.queued(request.key)
            if pending.owner != request.owner
            and pending.enqueued_at < request.enqueued_at
        ]
        if overtaken and not request.upgrade:
            self.fail(
                f"no-barging violated at site {site}: grant of "
                f"{request.owner}/{request.key} (t={request.enqueued_at}) "
                f"overtook pending {[(p.owner, p.enqueued_at) for p in overtaken]}"
            )

    # ------------------------------------------------------------------
    # probe-time invariants (run as simulator events, between events)
    # ------------------------------------------------------------------
    def probe(self) -> None:
        self.check_queue_shape()
        self.check_no_aborted_holders()
        self.check_acyclic()
        self.check_owner_views()

    def check_owner_views(self) -> None:
        for site in sorted(self.db_sites):
            locks = self.db_sites[site].locks
            reference = locks.waits_for()
            waited_on = set().union(*reference.values())
            for owner in sorted(locks.pending_owners() | set(self.scheduler.states)):
                if locks.waits_of(owner) != reference.get(owner, set()):
                    self.fail(
                        f"per-owner view of {owner} at site {site} is "
                        f"{sorted(locks.waits_of(owner))}, waits_for() says "
                        f"{sorted(reference.get(owner, set()))}"
                    )
                if locks.is_waited_on(owner) != (owner in waited_on):
                    self.fail(
                        f"is_waited_on({owner}) at site {site} is "
                        f"{locks.is_waited_on(owner)}, waits_for() says "
                        f"{owner in waited_on}"
                    )

    def check_queue_shape(self) -> None:
        for site in sorted(self.db_sites):
            db = self.db_sites[site]
            if db.state is SiteState.CRASHED:
                continue
            for key in db.locks.queued_keys():
                pending = db.locks.queued(key)
                saw_ordinary = False
                previous_at = None
                for request in pending:
                    if request.upgrade and saw_ordinary:
                        self.fail(
                            f"upgrade of {request.owner}/{key} queued behind "
                            f"ordinary requests at site {site}"
                        )
                    if not request.upgrade:
                        if previous_at is not None and request.enqueued_at < previous_at:
                            self.fail(
                                f"FIFO order broken in {key} queue at site "
                                f"{site}: {request.owner} enqueued at "
                                f"{request.enqueued_at} after {previous_at}"
                            )
                        previous_at = request.enqueued_at
                        saw_ordinary = True

    def check_no_aborted_holders(self) -> None:
        for site in sorted(self.db_sites):
            db = self.db_sites[site]
            if db.state is SiteState.CRASHED:
                continue
            for owner in sorted(db.locks.owners() | db.locks.pending_owners()):
                state = self.scheduler.states.get(owner)
                if state is None:
                    continue
                if (
                    state.phase is TxnPhase.DONE
                    and state.verdict is TransactionVerdict.ABORTED
                ):
                    self.fail(
                        f"aborted transaction {owner} still holds or queues a "
                        f"lock at site {site}"
                    )

    def check_acyclic(self) -> None:
        if not self.scheduler.policy.detect_cycles:
            return
        cycle = find_cycle(self.union_graph())
        if cycle is None:
            return
        waiting = [
            txn
            for txn in cycle
            if self.scheduler.states[txn].phase is TxnPhase.WAITING
        ]
        if len(waiting) == len(cycle):
            self.fail(
                f"waits-for cycle {sorted(cycle)} survived between events "
                f"with cycle detection enabled"
            )

    # ------------------------------------------------------------------
    # horizon invariants
    # ------------------------------------------------------------------
    def final_check(self, spec: ThroughputSpec, summary) -> None:
        self.check_no_aborted_holders()
        if summary.offered != spec.n_transactions:
            self.fail(
                f"offered {summary.offered} != admitted {spec.n_transactions}"
            )
        in_flight = summary.blocked + summary.stalled + summary.violated
        if summary.committed + summary.exhausted + in_flight != summary.offered:
            self.fail(
                f"conservation broken: {summary.committed} committed + "
                f"{summary.exhausted} exhausted + {in_flight} in flight != "
                f"{summary.offered} admitted"
            )
        if summary.committed != (
            summary.committed_first_try + summary.committed_after_retry
        ):
            self.fail("committed != first-try + after-retry")
        cause_total = (
            summary.aborted_deadlock
            + summary.aborted_timeout
            + summary.aborted_crash
            + summary.aborted_partition
        )
        if cause_total != summary.aborted:
            self.fail(
                f"abort causes ({cause_total}) do not partition the abort "
                f"counter ({summary.aborted})"
            )
        if not spec.retry.enabled and summary.retries:
            self.fail("retries recorded with retries disabled")


def run_fuzzed_case(case_seed: int) -> TransactionScheduler:
    """Execute one random workload with every invariant armed."""
    protocol, spec = random_case(case_seed)
    context = f"case_seed={case_seed} protocol={protocol} spec_seed={spec.seed}"
    latency = spec.effective_latency()
    max_delay = latency.upper_bound
    if spec.faults is not None and spec.faults.retransmit is not None:
        max_delay = spec.faults.effective_max_delay(max_delay)
    cluster = Cluster(spec.n_sites, latency=latency, model=spec.model, seed=spec.seed)
    db_sites = {site: DatabaseSite(site) for site in cluster.site_ids()}
    scheduler = TransactionScheduler(
        cluster,
        create_protocol(protocol),
        db_sites,
        policy=spec.deadlock,
        retry=spec.retry,
        op_delay=spec.op_delay,
        timers=TerminationTimers(max_delay=max_delay),
        seed=spec.seed,
        lock_transport=spec.lock_transport,
    )
    checker = InvariantChecker(context, scheduler, db_sites)
    checker.install()
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
    probe_at = 0.5
    while probe_at < horizon:
        cluster.sim.schedule_at(probe_at, checker.probe)
        probe_at += 2.0
    cluster.run(until=horizon, max_events=2_000_000)
    scheduler.finalize(horizon)

    # Reduce through the real accounting path so the conservation checks
    # cover exactly what ThroughputSummary reports.
    from repro.txn.runner import AbortCause, ThroughputSummary

    summary = ThroughputSummary(
        protocol=protocol, spec_hash="", seed=spec.seed, n_sites=spec.n_sites
    )
    cause_fields = {
        AbortCause.DEADLOCK.value: "aborted_deadlock",
        AbortCause.TIMEOUT.value: "aborted_timeout",
        AbortCause.CRASH.value: "aborted_crash",
        AbortCause.PARTITION.value: "aborted_partition",
    }
    summary.retries = scheduler.retries
    for outcome in scheduler.outcomes():
        summary.offered += 1
        if outcome.verdict is TransactionVerdict.COMMITTED:
            summary.committed += 1
            if outcome.attempts == 1:
                summary.committed_first_try += 1
            else:
                summary.committed_after_retry += 1
        elif outcome.verdict is TransactionVerdict.ABORTED:
            summary.aborted += 1
            name = cause_fields.get(outcome.abort_cause)
            if name is None:
                checker.fail(
                    f"aborted outcome {outcome.transaction_id} carries no "
                    f"known cause ({outcome.abort_cause!r})"
                )
            setattr(summary, name, getattr(summary, name) + 1)
        elif outcome.verdict is TransactionVerdict.BLOCKED:
            summary.blocked += 1
        elif outcome.verdict is TransactionVerdict.STALLED:
            summary.stalled += 1
        else:
            summary.violated += 1
    checker.final_check(spec, summary)
    return scheduler


@pytest.mark.parametrize("batch", range(BATCHES))
def test_fuzzed_schedules_hold_invariants(batch):
    """~200 seeded random schedules, every invariant asserted on each."""
    per_batch = N_WORKLOADS // BATCHES
    for offset in range(per_batch):
        run_fuzzed_case(MASTER_SEED + batch * per_batch + offset)


def test_detector_differential_sees_both_paths():
    """The differential is only evidence if both detector paths run under it."""
    runs = [run_fuzzed_case(MASTER_SEED + offset) for offset in (1, 84, 184)]
    for scheduler in runs:
        assert 0 < scheduler.deadlock_full_searches < scheduler.deadlock_checks
        # ... and both pre-filter outcomes: settled at once, and walked.
        assert scheduler.deadlock_full_searches <= scheduler.deadlock_walks
        assert scheduler.deadlock_walks < scheduler.deadlock_checks
    # Several victims per full search: the whole-graph loop, not the
    # waiter-rooted check, is what keeps breaking cycles until none remain.
    assert runs[0].deadlock_aborts > runs[0].deadlock_full_searches


def test_case_generator_is_deterministic():
    protocol_a, spec_a = random_case(MASTER_SEED)
    protocol_b, spec_b = random_case(MASTER_SEED)
    assert protocol_a == protocol_b
    assert spec_a == spec_b


def test_case_generator_mixes_the_axes():
    """The fuzzed population actually covers the new axes."""
    cases = [random_case(MASTER_SEED + index)[1] for index in range(N_WORKLOADS)]
    assert {spec.arrival for spec in cases} == {"uniform", "poisson"}
    assert any(spec.hotspot > 0 for spec in cases)
    assert any(spec.crashes is not None for spec in cases)
    assert any(spec.partition is not None for spec in cases)
    assert any(spec.retry.enabled for spec in cases)
    assert {spec.deadlock.victim for spec in cases} == set(VictimPolicy)
    plans = [spec.faults for spec in cases if spec.faults is not None]
    classes = {label for plan in plans for label in plan.fault_classes()}
    assert {"loss", "duplicate", "reorder", "byzantine"} <= classes
    assert classes & {"send-omission", "receive-omission"}
    assert any(plan.retransmit is not None for plan in plans)
    assert any(plan.retransmit is None for plan in plans)
    # Message faults must force the network lock transport (the fix that
    # lets partitions and loss cut lock acquisition too).
    assert all(
        spec.lock_transport == "network"
        for spec in cases
        if spec.faults is not None and spec.faults.has_message_faults
    )
