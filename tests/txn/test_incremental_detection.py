"""Directed cases for the waiter-rooted deadlock check.

The scheduler asks, after every queued request, whether *that* waiter can
reach itself in the union waits-for graph -- walking only when some site
reports an edge into the waiter -- and runs the whole-graph search (which
alone picks cycles and victims) only when it can, or while a previous
search left the graph possibly cyclic.  The fuzz harness checks
the two against each other on random schedules; these cases pin the
corners by hand, and the detector's own work counts (which repeat exactly).
"""

from test_scheduler import build, txn, w

from repro.db.locks import LockMode
from repro.db.transactions import Operation
from repro.txn import DeadlockPolicy, ThroughputSpec, run_throughput_scenario
from repro.txn.scheduler import RemoteLockWait
from repro.workloads.transactions import generate_transactions


def r(site, key):
    return Operation.read(site, key)


def record_checks(scheduler):
    """Log ``(waiter, ran_full_search, search_due_before, search_due_after)``
    for every detector call, outermost and nested alike."""
    calls = []
    detect = scheduler._break_deadlocks

    def recording(waiter):
        due_before = scheduler._cycle_search_due
        full_before = scheduler.deadlock_full_searches
        index = len(calls)
        calls.append(None)
        detect(waiter)
        calls[index] = (
            waiter,
            scheduler.deadlock_full_searches > full_before,
            due_before,
            scheduler._cycle_search_due,
        )

    scheduler._break_deadlocks = recording
    return calls


class TestWorkCounts:
    def test_single_hot_key_never_runs_the_full_search(self):
        # Every transaction writes the one key at sites 1, 2, 3 in that
        # order: waits only ever point at older transactions, so no cycle
        # is possible and every check must be settled by the walk alone.
        spec = ThroughputSpec(
            n_sites=3, n_transactions=40, tx_rate=1.0, n_keys=1, read_fraction=0.0,
            deadlock=DeadlockPolicy(detect_cycles=True), seed=5,
        )
        run = run_throughput_scenario("terminating-three-phase-commit", spec)
        queued = sum(db.locks.stats.queued for db in run.db_sites.values())
        assert run.scheduler.deadlock_full_searches == 0
        assert run.scheduler.deadlock_checks == queued == 54
        # Only a waiter that holds the key at an earlier site with someone
        # queued behind that grant has an in-edge, so only those are walked.
        assert run.scheduler.deadlock_walks == 15
        assert run.summary.aborted == 0 and run.summary.committed == 15

    def test_counts_are_folded_into_the_active_registry(self):
        from repro.obs.metrics import MetricsRegistry, activate

        spec = ThroughputSpec(
            n_transactions=60, n_keys=3, operations_per_site=2, read_fraction=0.5,
            hotspot=1.0, deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=4.0),
        )
        registry = MetricsRegistry()
        with activate(registry):
            run = run_throughput_scenario("two-phase-commit", spec)
        counters = registry.snapshot()["counters"]
        assert counters["txn.deadlock.checks"] == run.scheduler.deadlock_checks > 0
        assert counters["txn.deadlock.walks"] == run.scheduler.deadlock_walks
        assert (
            counters["txn.deadlock.full_searches"]
            == run.scheduler.deadlock_full_searches
        )
        assert 0 < run.scheduler.deadlock_full_searches < run.scheduler.deadlock_checks
        assert (
            run.scheduler.deadlock_full_searches
            <= run.scheduler.deadlock_walks
            < run.scheduler.deadlock_checks
        )
        assert run.summary.deadlock_aborts > 0

    def test_detection_off_counts_nothing(self):
        spec = ThroughputSpec(
            n_transactions=30, n_keys=2,
            deadlock=DeadlockPolicy(detect_cycles=False, wait_timeout=4.0),
        )
        run = run_throughput_scenario("two-phase-commit", spec)
        assert run.scheduler.deadlock_checks == 0
        assert run.scheduler.deadlock_walks == 0
        assert run.scheduler.deadlock_full_searches == 0


class TestInEdgePreFilter:
    def test_a_waiter_that_holds_nothing_never_walks(self):
        # With direct lock transport a waiter's one pending request was
        # just appended to its queue, so if it holds nothing anywhere no
        # one can wait on it: the pre-filter must settle the check.
        spec = ThroughputSpec(
            n_transactions=60, n_keys=3, operations_per_site=2, read_fraction=0.5,
            hotspot=1.0, deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=4.0),
        )
        cluster, db_sites, scheduler = build(
            policy=spec.deadlock, op_delay=spec.op_delay
        )
        calls = []
        on_cycle = scheduler._on_cycle

        def recording(waiter):
            held = sum(db.locks.held_count(waiter) for db in db_sites.values())
            walks_before = scheduler.deadlock_walks
            answer = on_cycle(waiter)
            calls.append((held, scheduler.deadlock_walks > walks_before, answer))
            return answer

        scheduler._on_cycle = recording
        scheduler.submit_all(
            generate_transactions(spec.workload_config()),
            arrivals=spec.arrival_times(),
        )
        cluster.run(until=spec.effective_horizon())
        assert [call for call in calls if call[0] == 0 and call[1]] == []
        # Not vacuous: empty-handed waiters occur, and so do walks that
        # find a cycle.
        assert any(held == 0 for held, _, _ in calls)
        assert any(walked and found for _, walked, found in calls)
        assert (len(calls), scheduler.deadlock_walks) == (89, 21)


class TestUpgradeJumpsTheQueue:
    def test_upgrade_ahead_of_a_queued_reader_closes_a_cycle(self):
        # t1 and t2 read k, then both upgrade.  t3's read queues behind
        # t1's pending upgrade, so t2's upgrade is inserted *ahead* of it:
        # the one request shape that adds an edge into the new waiter
        # (t3 -> t2) besides the waiter's own (t2 -> t1).  Rooting the walk
        # at t2 finds t2 -> t1 -> t2; the full search picks the victim.
        cluster, db_sites, scheduler = build(n_sites=2, op_delay=0.3)
        calls = record_checks(scheduler)
        scheduler.submit(txn("txn-1", [r(1, "k"), w(1, "k"), w(2, "z1")]), at=0.0)
        scheduler.submit(txn("txn-2", [r(1, "k"), w(1, "k"), w(2, "z2")]), at=0.1)
        scheduler.submit(txn("txn-3", [r(1, "k"), w(2, "z3")]), at=0.35)
        cluster.run(until=0.39)
        locks = db_sites[1].locks
        assert [q.owner for q in locks.queued("k")] == ["txn-1", "txn-3"]
        assert locks.waits_of("txn-3") == {"txn-1"}
        cluster.run(until=0.41)
        assert calls == [
            ("txn-1", False, False, False),
            ("txn-3", False, False, False),
            ("txn-2", True, False, False),
        ]
        assert scheduler.deadlock_aborts == 1
        assert scheduler.states["txn-2"].abort_cause == "deadlock"
        # The survivor's upgrade went through; the reader now waits on it.
        assert locks.holders("k")[0].mode is LockMode.EXCLUSIVE
        assert locks.waits_of("txn-3") == {"txn-1"}
        cluster.run(until=40.0)
        scheduler.finalize(40.0)
        assert [o.verdict.value for o in scheduler.outcomes()] == [
            "committed", "aborted", "committed",
        ]


class TestStaleCycles:
    def test_stale_cycle_return_forces_a_full_search_on_the_next_request(self):
        # txn-h closes a cycle with txn-v at t=4; v is the victim.  While
        # v's abort walks its sites, the site-1 release promotes h, whose
        # next request queues behind a lock v still holds at site 2: the
        # nested search finds the cycle h <-> v *stale* (v is mid-abort) and
        # returns with the graph still cyclic.  The site-2 release then
        # promotes txn-z, which queues behind txn-y -- on no cycle at all,
        # but acyclicity is not known, so its check must search in full.
        cluster, _, scheduler = build(n_sites=2)
        calls = record_checks(scheduler)
        scheduler.submit(txn("txn-x", [w(1, "k0"), w(2, "kx")]), at=0.0)
        scheduler.submit(
            txn("txn-h", [w(2, "k2"), w(1, "k0"), w(1, "k1"), w(2, "k4")]), at=0.2
        )
        scheduler.submit(txn("txn-v", [w(1, "k1"), w(2, "k4"), w(2, "k2")]), at=0.4)
        scheduler.submit(txn("txn-z", [w(2, "k4"), w(1, "kz")]), at=1.0)
        scheduler.submit(txn("txn-y", [w(1, "kz"), w(2, "ky")]), at=2.0)
        cluster.run(until=80.0)
        scheduler.finalize(80.0)
        assert calls == [
            ("txn-h", False, False, False),  # t=0.2: behind x, no cycle
            ("txn-v", False, False, False),  # t=0.4: behind h, no cycle
            ("txn-z", False, False, False),  # t=1.0: behind v, no cycle
            ("txn-h", True, False, False),   # t=4.0: closes h <-> v, aborts v
            ("txn-h", True, True, True),     # nested: stale cycle, left cyclic
            ("txn-z", True, True, False),    # nested: forced search, now acyclic
        ]
        assert scheduler.deadlock_aborts == 1
        assert [o.verdict.value for o in scheduler.outcomes()] == [
            "committed", "committed", "aborted", "committed", "committed",
        ]


class TestCrashRecovery:
    def test_crash_and_recovery_leave_no_stale_index_entries(self):
        cluster, db_sites, scheduler = build(n_sites=2, op_delay=0.1)
        for index in range(4):
            scheduler.submit(
                txn(f"txn-{index}", [w(1, "a"), w(2, "hot")]), at=0.05 * index
            )
        cluster.run(until=1.0)
        doomed = db_sites[2].locks
        assert doomed.pending_owners() or db_sites[1].locks.pending_owners()
        cluster.node(2).crash()
        assert doomed is not db_sites[2].locks
        assert doomed._queued_by_owner == {} and not doomed.pending_owners()
        assert db_sites[2].locks._queued_by_owner == {}
        cluster.node(2).recover()
        for index in range(4, 8):
            scheduler.submit(
                txn(f"txn-{index}", [w(1, "a"), w(2, "hot")]),
                at=cluster.sim.now + 0.05 * index,
            )
        cluster.run(until=cluster.sim.now + 1.0)
        fresh = db_sites[2].locks
        assert fresh.pending_owners() | db_sites[1].locks.pending_owners()
        for locks in (db_sites[1].locks, fresh):
            reference = locks.waits_for()
            for owner in scheduler.states:
                assert locks.waits_of(owner) == reference.get(owner, set())
        cluster.run(until=200.0)
        scheduler.finalize(200.0)
        assert scheduler.waiting == 0 and scheduler.running == 0
        for db in db_sites.values():
            assert db.locks._queued_by_owner == {}


class TestNetworkTransport:
    def test_remote_placement_roots_the_check_at_the_remote_waiter(self):
        # Both transactions are mastered at site 1 and lock site-2 keys in
        # opposite order; requests are placed by _place_remote_lock when
        # the message arrives, a round trip after the master sent it.
        cluster, db_sites, scheduler = build(n_sites=2, lock_transport="network")
        checks = []
        detect = scheduler._break_deadlocks

        def at_placement(waiter):
            full_before = scheduler.deadlock_full_searches
            waiting_remotely = (
                type(scheduler.states[waiter].pending_request) is RemoteLockWait
            )
            queued_at_participant = waiter in db_sites[2].locks.pending_owners()
            detect(waiter)
            checks.append(
                (
                    waiter,
                    waiting_remotely,
                    queued_at_participant,
                    scheduler.deadlock_full_searches > full_before,
                )
            )

        scheduler._break_deadlocks = at_placement
        scheduler.submit(txn("txn-a", [w(2, "k1"), w(2, "k2")]), at=0.0)
        scheduler.submit(txn("txn-b", [w(2, "k2"), w(2, "k1")]), at=0.1)
        cluster.run(until=60.0)
        scheduler.finalize(60.0)
        assert checks == [
            ("txn-a", True, True, False),  # queued behind b: no cycle yet
            ("txn-b", True, True, True),   # closes a <-> b: full search, b dies
        ]
        assert scheduler.deadlock_aborts == 1
        a, b = scheduler.outcomes()
        assert (a.verdict.value, b.verdict.value) == ("committed", "aborted")
