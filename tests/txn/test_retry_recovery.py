"""Victim retries, victim-selection policies and the crash/recovery path.

Covers the open-loop additions to the scheduler: aborted attempts
re-entering with seeded backoff under a bounded budget, the per-cause
accounting split, pluggable deadlock victim selection, presumed abort for
victims (a site that holds no record of a victim journals nothing), and
the previously untested recovery path -- waiters written off at a crash,
WAL replay completing before re-admission, and post-heal transactions
acquiring locks a crashed-site victim used to hold.
"""

import pytest

from repro.core.termination import TerminationTimers
from repro.db.locks import LockMode
from repro.db.site import DatabaseSite, SiteState
from repro.db.transactions import Operation, Transaction
from repro.db.wal import LogRecordKind
from repro.protocols.base import Decision
from repro.protocols.registry import create_protocol
from repro.sim.cluster import Cluster
from repro.sim.failures import CrashSchedule
from repro.sim.latency import PerLinkLatency
from repro.sim.partition import PartitionSchedule
from repro.txn import (
    AbortCause,
    DeadlockPolicy,
    RetryPolicy,
    ThroughputSpec,
    TransactionScheduler,
    TransactionVerdict,
    VictimPolicy,
    run_throughput_scenario,
    select_victim,
)
from repro.txn.retry import attempt_id


def build(
    n_sites=3,
    protocol="terminating-three-phase-commit",
    **kwargs,
):
    cluster = Cluster(n_sites)
    db_sites = {site: DatabaseSite(site) for site in cluster.site_ids()}
    scheduler = TransactionScheduler(
        cluster, create_protocol(protocol), db_sites,
        timers=TerminationTimers(max_delay=cluster.max_delay), **kwargs,
    )
    return cluster, db_sites, scheduler


def txn(txn_id, operations):
    return Transaction.create(1, operations, transaction_id=txn_id)


def w(site, key):
    return Operation.write(site, key, "value")


def cycle_pair(scheduler):
    """Two transactions acquiring the same site-1 keys in opposite order."""
    scheduler.submit(txn("txn-a", [w(1, "k1"), w(1, "k2"), w(2, "ka")]), at=0.0)
    scheduler.submit(txn("txn-b", [w(1, "k2"), w(1, "k1"), w(2, "kb")]), at=0.1)


class TestRetryPolicy:
    def test_defaults_disable_retries(self):
        assert not RetryPolicy().enabled
        assert RetryPolicy(max_attempts=2).enabled

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=0.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.5, backoff_factor=2.0, jitter=0.5)
        first = policy.delay(failed_attempt=1, transaction_id="t", seed=7)
        again = policy.delay(failed_attempt=1, transaction_id="t", seed=7)
        second = policy.delay(failed_attempt=2, transaction_id="t", seed=7)
        assert first == again
        assert 0.5 <= first < 0.75
        assert 1.0 <= second < 1.5
        # Jitter separates transactions and seeds.
        assert first != policy.delay(failed_attempt=1, transaction_id="u", seed=7)
        assert first != policy.delay(failed_attempt=1, transaction_id="t", seed=8)

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(max_attempts=3, backoff=1.0, backoff_factor=3.0, jitter=0.0)
        assert policy.delay(failed_attempt=2, transaction_id="t", seed=0) == 3.0

    def test_attempt_ids(self):
        assert attempt_id("workload-txn-3", 1) == "workload-txn-3"
        assert attempt_id("workload-txn-3", 2) == "workload-txn-3#r2"
        with pytest.raises(ValueError, match="attempt"):
            attempt_id("x", 0)

    def test_issued_backoffs_feed_the_active_registry(self):
        from repro.obs.metrics import MetricsRegistry, activate

        policy = RetryPolicy(max_attempts=3, backoff=1.0, backoff_factor=3.0)
        registry = MetricsRegistry()
        with activate(registry):
            first = policy.delay(failed_attempt=1, transaction_id="t", seed=0)
            second = policy.delay(failed_attempt=2, transaction_id="t", seed=0)
        hist = registry.snapshot()["histograms"]["txn.retry_backoff_simtime"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(first + second)
        # Observation never perturbs the schedule itself.
        assert policy.delay(failed_attempt=1, transaction_id="t", seed=0) == first


class TestVictimRetries:
    def test_deadlock_victim_retries_and_commits(self):
        cluster, _, scheduler = build(
            op_delay=0.3, retry=RetryPolicy(max_attempts=2, backoff=1.0, jitter=0.0)
        )
        cycle_pair(scheduler)
        cluster.run(until=80.0)
        scheduler.finalize(80.0)
        a, b = scheduler.outcomes()
        assert scheduler.deadlock_aborts == 1
        assert scheduler.retries == 1
        # The victim's retry re-enters after the survivor finishes and commits.
        assert a.verdict is TransactionVerdict.COMMITTED
        assert b.verdict is TransactionVerdict.COMMITTED
        assert (a.attempts, b.attempts) == (1, 2)
        assert b.abort_cause == ""

    def test_retried_attempt_reuses_the_first_attempts_plan(self):
        cluster, _, scheduler = build(
            op_delay=0.3, retry=RetryPolicy(max_attempts=2, backoff=1.0, jitter=0.0)
        )
        cycle_pair(scheduler)
        cluster.run(until=80.0)
        first = scheduler.states["txn-b"]
        retry = scheduler.states[attempt_id("txn-b", 2)]
        assert isinstance(first.plan, tuple)
        assert retry.plan is first.plan
        assert retry.plan == scheduler._lock_plan(retry.transaction)

    def test_decisions_start_when_the_first_site_decides(self):
        cluster, _, scheduler = build(
            op_delay=0.3, retry=RetryPolicy(max_attempts=2, backoff=1.0, jitter=0.0)
        )
        cycle_pair(scheduler)
        cluster.run(until=0.2)
        assert [state.decisions for state in scheduler.states.values()] == [None, None]
        cluster.run(until=80.0)
        scheduler.finalize(80.0)
        # The deadlock victim aborted in its execution phase: no site decided.
        assert scheduler.states["txn-b"].decisions is None
        for transaction_id in ("txn-a", attempt_id("txn-b", 2)):
            state = scheduler.states[transaction_id]
            participants = state.transaction.participants
            assert state.decisions == dict.fromkeys(participants, Decision.COMMIT)
            assert state.verdict is TransactionVerdict.COMMITTED

    def test_outcomes_stay_per_logical_transaction(self):
        cluster, _, scheduler = build(
            op_delay=0.3, retry=RetryPolicy(max_attempts=3, backoff=1.0)
        )
        cycle_pair(scheduler)
        cluster.run(until=80.0)
        scheduler.finalize(80.0)
        outcomes = scheduler.outcomes()
        assert [o.transaction_id for o in outcomes] == ["txn-a", "txn-b"]
        assert scheduler.admitted == 2

    def test_budget_exhaustion_keeps_final_cause(self):
        # A permanently blocked 2PC instance holds the hot key; the waiter
        # times out on every attempt until its budget runs dry.
        cluster, _, scheduler = build(
            protocol="two-phase-commit",
            policy=DeadlockPolicy(detect_cycles=False, wait_timeout=3.0),
            retry=RetryPolicy(max_attempts=2, backoff=1.0, jitter=0.0),
        )
        cluster.apply_partition_schedule(PartitionSchedule.simple(1.5, [1, 2], [3]))
        scheduler.submit(txn("txn-a", [w(1, "k"), w(2, "k"), w(3, "k")]), at=0.0)
        scheduler.submit(txn("txn-b", [w(1, "k"), w(2, "k"), w(3, "k")]), at=2.0)
        cluster.run(until=80.0)
        scheduler.finalize(80.0)
        a, b = scheduler.outcomes()
        assert a.verdict is TransactionVerdict.BLOCKED
        assert b.verdict is TransactionVerdict.ABORTED
        assert b.attempts == 2
        assert b.abort_cause == AbortCause.TIMEOUT.value
        assert scheduler.timeout_aborts == 2  # one victim event per attempt

    def test_retry_pending_at_horizon_counts_as_in_flight(self):
        cluster, _, scheduler = build(
            op_delay=0.3,
            retry=RetryPolicy(max_attempts=2, backoff=200.0, jitter=0.0),
        )
        cycle_pair(scheduler)
        cluster.run(until=60.0)
        scheduler.finalize(60.0)
        a, b = scheduler.outcomes()
        assert a.verdict is TransactionVerdict.COMMITTED
        # b's re-admission lies beyond the horizon: still in flight, not
        # written off -- the conservation bucket the fuzzer asserts.
        assert b.verdict is TransactionVerdict.STALLED
        assert "retry" in b.abort_reason

    def test_summary_accounts_first_try_and_after_retry(self):
        spec = ThroughputSpec(
            n_transactions=30, tx_rate=4.0, n_keys=2, op_delay=0.2, seed=0,
            deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=2.0),
            retry=RetryPolicy(max_attempts=3, backoff=0.5),
        )
        summary = run_throughput_scenario(
            "terminating-three-phase-commit", spec
        ).summary
        assert summary.committed == (
            summary.committed_first_try + summary.committed_after_retry
        )
        assert summary.committed_after_retry > 0
        assert summary.retries > 0
        assert summary.aborted == (
            summary.aborted_deadlock + summary.aborted_timeout
            + summary.aborted_crash + summary.aborted_partition
        )


class TestVictimPolicies:
    def test_select_victim_policies_and_tiebreaks(self):
        cycle = ["t1", "t2", "t3"]
        index = {"t1": 0, "t2": 1, "t3": 2}
        locks = {"t1": 3, "t2": 1, "t3": 1}
        attempts = {"t1": 2, "t2": 2, "t3": 1}
        pick = lambda policy: select_victim(
            cycle, policy, index=index, locks_held=locks, attempts=attempts
        )
        assert pick(VictimPolicy.YOUNGEST) == "t3"
        assert pick(VictimPolicy.OLDEST) == "t1"
        # Fewest locks: t2/t3 tie at 1 lock; the younger (t3) is sacrificed.
        assert pick(VictimPolicy.FEWEST_LOCKS) == "t3"
        # Most retries wins: t3 has the fewest attempts and is sacrificed.
        assert pick(VictimPolicy.MOST_RETRIES_WINS) == "t3"

    def test_oldest_policy_flips_the_scheduler_victim(self):
        cluster, _, scheduler = build(
            op_delay=0.3,
            policy=DeadlockPolicy(victim=VictimPolicy.OLDEST),
        )
        cycle_pair(scheduler)
        cluster.run(until=60.0)
        scheduler.finalize(60.0)
        a, b = scheduler.outcomes()
        assert a.verdict is TransactionVerdict.ABORTED
        assert b.verdict is TransactionVerdict.COMMITTED

    def test_fewest_locks_spares_the_loaded_transaction(self):
        # txn-a holds 3 locks when the cycle forms, txn-b holds 1: under
        # FEWEST_LOCKS the lightly-loaded b is the victim even though the
        # cycle is detected while b is oldest-in-queue.
        cluster, _, scheduler = build(
            op_delay=0.3,
            policy=DeadlockPolicy(victim=VictimPolicy.FEWEST_LOCKS),
        )
        scheduler.submit(
            txn("txn-a", [w(1, "x"), w(2, "y"), w(1, "k1"), w(1, "k2")]), at=0.0
        )
        scheduler.submit(txn("txn-b", [w(1, "k2"), w(1, "k1")]), at=0.1)
        cluster.run(until=60.0)
        scheduler.finalize(60.0)
        a, b = scheduler.outcomes()
        assert b.verdict is TransactionVerdict.ABORTED
        assert a.verdict is TransactionVerdict.COMMITTED

    def test_most_retries_wins_protects_the_retried_attempt(self):
        # With YOUNGEST the re-admitted attempt (always the youngest) would
        # be victimized again; MOST_RETRIES_WINS sacrifices the fresh
        # transaction instead, so the retried one makes progress.
        cluster, _, scheduler = build(
            op_delay=0.3,
            policy=DeadlockPolicy(victim=VictimPolicy.MOST_RETRIES_WINS),
            retry=RetryPolicy(max_attempts=3, backoff=0.2, jitter=0.0),
        )
        cycle_pair(scheduler)
        # A third transaction colliding with b's keys after b's retry.
        scheduler.submit(txn("txn-c", [w(1, "k1"), w(1, "k2")]), at=0.45)
        cluster.run(until=120.0)
        scheduler.finalize(120.0)
        outcomes = {o.transaction_id: o for o in scheduler.outcomes()}
        assert outcomes["txn-b"].verdict is TransactionVerdict.COMMITTED
        assert outcomes["txn-b"].attempts >= 2

    def test_cli_victim_value_round_trips(self):
        assert VictimPolicy("fewest-locks") is VictimPolicy.FEWEST_LOCKS


class TestPresumedAbort:
    """A victim journals its abort only at a site that journalled it."""

    def test_victim_unknown_to_the_site_journals_nothing(self):
        db = DatabaseSite(1)
        db.request_lock("holder", "k1", LockMode.EXCLUSIVE)
        db.request_lock("victim", "k2", LockMode.EXCLUSIVE)
        queued = db.request_lock("victim", "k1", LockMode.EXCLUSIVE)
        assert queued.pending
        db.abort_victim("victim", now=2.0)
        assert len(db.wal) == 0
        assert not db.wal.mentions("victim")
        assert not db.holds_locks("victim")
        assert queued.cancelled
        assert "victim" not in db.locks.pending_owners()
        assert db.decision("victim") == "abort"
        # The freed lock is grantable at once.
        assert db.request_lock("next", "k2", LockMode.EXCLUSIVE).granted is not None

    def test_victim_with_a_pending_record_journals_abort(self):
        db = DatabaseSite(1)
        db.execute(txn("victim", [w(1, "k")]), now=1.0)
        db.abort_victim("victim", now=2.0)
        assert db.wal.last_record("victim").kind is LogRecordKind.ABORT
        assert db.wal.decision("victim") == "abort"
        assert not db.holds_locks("victim")
        assert db.decision("victim") == "abort"

    def test_victim_with_only_a_wal_record_journals_abort(self):
        db = DatabaseSite(1)
        db.execute(txn("victim", [w(1, "k")]), now=1.0)
        db.crash()
        db.recover(now=2.0)
        assert db.vote("victim") is None  # the pending record died
        db.abort_victim("victim", now=3.0)
        assert db.wal.decision("victim") == "abort"

    def test_crash_and_recovery_forget_an_unjournalled_victim_abort(self):
        db = DatabaseSite(1)
        db.request_lock("victim", "k", LockMode.EXCLUSIVE)
        db.abort_victim("victim", now=1.0)
        assert db.decision("victim") == "abort"
        db.crash()
        report = db.recover(now=2.0)
        assert db.decision("victim") is None
        assert len(db.wal) == 0
        assert report.total_transactions == 0

    def test_a_journalled_victim_abort_survives_crash_and_recovery(self):
        db = DatabaseSite(1)
        db.execute(txn("victim", [w(1, "k")]), now=1.0)
        db.abort_victim("victim", now=2.0)
        db.crash()
        report = db.recover(now=3.0)
        assert report.aborted == ["victim"]
        assert db.decision("victim") == "abort"

    def test_scheduler_victims_leave_no_record_where_they_journalled_none(self):
        cluster, db_sites, scheduler = build(op_delay=0.3)
        cycle_pair(scheduler)
        cluster.run(until=60.0)
        scheduler.finalize(60.0)
        assert scheduler.deadlock_aborts == 1
        for site, db in db_sites.items():
            assert not db.wal.mentions("txn-b"), site
            assert not db.holds_locks("txn-b")
        assert db_sites[1].decision("txn-b") == "abort"

    @staticmethod
    def victim_then_late_writer(wait_timeout, crash_at=None):
        """A remote lock request over the slow 1-2 link whose wait times out
        before the round trip ends, then a later transaction (master 3, over
        fast links) on the same key; optionally site 2 crashes and recovers
        between the victim's abort and its late message."""
        cluster = Cluster(
            3, latency=PerLinkLatency(0.2, {(1, 2): 1.0, (2, 1): 1.0})
        )
        db_sites = {site: DatabaseSite(site) for site in cluster.site_ids()}
        scheduler = TransactionScheduler(
            cluster, create_protocol("terminating-three-phase-commit"), db_sites,
            timers=TerminationTimers(max_delay=cluster.max_delay),
            lock_transport="network",
            policy=DeadlockPolicy(detect_cycles=False, wait_timeout=wait_timeout),
        )
        scheduler.submit(txn("victim", [w(2, "k")]), at=0.0)
        late = Transaction.create(3, [w(3, "j"), w(2, "k")], transaction_id="late")
        scheduler.submit(late, at=4.0)
        if crash_at is not None:
            cluster.sim.schedule_at(crash_at, cluster.node(2).crash)
            cluster.sim.schedule_at(crash_at + 0.2, cluster.node(2).recover)
        cluster.run(until=80.0)
        scheduler.finalize(80.0)
        verdicts = {o.transaction_id: o.verdict for o in scheduler.outcomes()}
        return db_sites, scheduler, verdicts

    @pytest.mark.parametrize(
        "wait_timeout, crash_at",
        # The request reaches site 2 at t=1 and its grant the master at t=2.
        [(0.5, 0.6), (1.5, 1.6)],
        ids=["late-lock-request", "late-lock-grant"],
    )
    def test_crash_between_victim_abort_and_late_message_changes_nothing(
        self, wait_timeout, crash_at
    ):
        quiet_sites, _, quiet = self.victim_then_late_writer(wait_timeout)
        db_sites, scheduler, verdicts = self.victim_then_late_writer(
            wait_timeout, crash_at
        )
        assert scheduler.recoveries == 1
        assert scheduler.timeout_aborts == 1
        assert verdicts == quiet == {
            "victim": TransactionVerdict.ABORTED,
            "late": TransactionVerdict.COMMITTED,
        }
        for site in db_sites:
            assert db_sites[site].store.snapshot() == quiet_sites[site].store.snapshot()
            assert not db_sites[site].wal.mentions("victim")
            assert not db_sites[site].holds_locks("victim")
        assert db_sites[2].value("k") == db_sites[3].value("j") == "value"


class TestCrashRecoveryPath:
    """The previously untested recovery interplay (ISSUE satellite)."""

    def test_crash_writes_off_every_waiting_toucher_and_wipes_locks(self):
        cluster, db_sites, scheduler = build(op_delay=3.0)
        # txn-a acquires k@2 at t=0 and would request k2@1 at t=3.
        scheduler.submit(txn("txn-a", [w(2, "k"), w(1, "k2")]), at=0.0)
        cluster.sim.schedule_at(1.0, cluster.node(2).crash)
        cluster.run(until=40.0)
        scheduler.finalize(40.0)
        (a,) = scheduler.outcomes()
        assert a.verdict is TransactionVerdict.ABORTED
        assert a.abort_cause == AbortCause.CRASH.value
        assert a.finished_at == pytest.approx(1.0)
        assert db_sites[2].state is SiteState.CRASHED
        assert len(db_sites[2].locks) == 0
        assert not db_sites[1].holds_locks("txn-a")
        assert scheduler.crash_writeoffs == 1

    def test_wal_replay_completes_before_readmission(self):
        spec = ThroughputSpec(
            n_sites=3, n_transactions=12, tx_rate=2.0, n_keys=2, seed=1,
            crashes=CrashSchedule.single(2, 4.0, recover_at=9.0),
            retry=RetryPolicy(max_attempts=2, backoff=1.0),
        )
        result = run_throughput_scenario(
            "terminating-three-phase-commit", spec, collect_trace=True
        )
        summary = result.summary
        assert summary.crashes == 1
        assert summary.recoveries == 1
        records = result.cluster.trace.records()
        replay_index = next(
            i for i, r in enumerate(records) if r.category == "wal-replay"
        )
        # The replay record proves recovery ran; every post-recovery
        # admission (retried victims included) happens after it.
        later_admits = [
            r for r in records[replay_index + 1:] if r.category == "admit"
        ]
        earlier_post_crash_admits = [
            r
            for r in records[:replay_index]
            if r.category == "admit" and 4.0 <= r.time and "#r" in str(r.get("transaction"))
        ]
        assert records[replay_index].time == pytest.approx(9.0)
        # No retried attempt was re-admitted between crash and replay at
        # the crashed site's expense; the ones after the replay succeed.
        assert not [
            r for r in earlier_post_crash_admits if r.time >= 9.0
        ]
        assert later_admits or summary.committed_after_retry >= 0

    def test_postheal_transaction_acquires_victims_lock(self):
        cluster, db_sites, scheduler = build(
            op_delay=3.0, retry=RetryPolicy(max_attempts=1)
        )
        # The victim holds k@2 when site 2 crashes.
        scheduler.submit(txn("victim", [w(2, "k"), w(1, "k2")]), at=0.0)
        cluster.sim.schedule_at(1.0, cluster.node(2).crash)
        cluster.sim.schedule_at(5.0, cluster.node(2).recover)
        # Post-heal transaction wants the same lock.
        scheduler.submit(txn("late", [w(2, "k"), w(1, "k9")]), at=6.0)
        cluster.run(until=60.0)
        scheduler.finalize(60.0)
        outcomes = {o.transaction_id: o for o in scheduler.outcomes()}
        assert outcomes["victim"].verdict is TransactionVerdict.ABORTED
        assert outcomes["late"].verdict is TransactionVerdict.COMMITTED
        # The lock previously held by the crashed-site victim was granted
        # to the post-heal transaction without queueing.
        assert outcomes["late"].lock_wait == 0.0
        assert scheduler.recoveries == 1

    def test_retried_victim_is_readmitted_after_recovery_and_commits(self):
        cluster, db_sites, scheduler = build(
            op_delay=3.0,
            retry=RetryPolicy(max_attempts=2, backoff=6.0, jitter=0.0),
        )
        scheduler.submit(txn("victim", [w(2, "k"), w(1, "k2")]), at=0.0)
        cluster.sim.schedule_at(1.0, cluster.node(2).crash)
        cluster.sim.schedule_at(5.0, cluster.node(2).recover)
        cluster.run(until=80.0)
        scheduler.finalize(80.0)
        (victim,) = scheduler.outcomes()
        # Written off at the crash, re-admitted at t=7 (after the t=5
        # recovery), committed on the fresh lock table.
        assert victim.verdict is TransactionVerdict.COMMITTED
        assert victim.attempts == 2
        assert db_sites[2].decision("victim#r2") == "commit"

    def test_wal_replay_restores_durable_decisions(self):
        spec = ThroughputSpec(
            n_sites=2, n_transactions=3, tx_rate=0.5, seed=0,
            crashes=CrashSchedule.single(2, 8.0, recover_at=12.0),
        )
        result = run_throughput_scenario(
            "terminating-three-phase-commit", spec, collect_trace=True
        )
        db = result.db_sites[2]
        replays = [
            r for r in result.cluster.trace.records() if r.category == "wal-replay"
        ]
        assert len(replays) == 1
        # Transactions committed before the crash keep their durable
        # decision (redone or already applied) after replay.
        committed_pre_crash = [
            o.transaction_id
            for o in result.scheduler.outcomes()
            if o.verdict is TransactionVerdict.COMMITTED
            and o.finished_at is not None and o.finished_at < 8.0
        ]
        assert committed_pre_crash
        for transaction_id in committed_pre_crash:
            assert db.decision(transaction_id) == "commit"

    def test_crash_schedule_in_spec_must_name_real_sites(self):
        with pytest.raises(ValueError, match="crash schedule"):
            ThroughputSpec(
                n_sites=2, n_transactions=1,
                crashes=CrashSchedule.single(5, 1.0),
            )

    def test_crash_schedule_in_spec_rejects_negative_times(self):
        # Fail at construction, not as a SimulationError mid-sweep in a
        # worker process.
        with pytest.raises(ValueError, match="negative event time"):
            ThroughputSpec(
                n_sites=2, n_transactions=1,
                crashes=CrashSchedule.single(2, -5.0),
            )
