"""FIFO wait-queue semantics of the lock manager (the scheduler substrate)."""

import pytest
from hypothesis import given, strategies as st

from repro.db.locks import LockManager, LockMode


def manager():
    return LockManager(site=1)


class TestImmediateGrants:
    def test_request_free_key_grants_immediately(self):
        locks = manager()
        request = locks.request("t1", "x", LockMode.EXCLUSIVE, now=2.0)
        assert request.granted is not None
        assert request.wait_time == 0.0
        assert locks.holds("t1", "x")

    def test_compatible_shared_requests_grant_together(self):
        locks = manager()
        assert locks.request("t1", "x", LockMode.SHARED).granted is not None
        assert locks.request("t2", "x", LockMode.SHARED).granted is not None

    def test_reentrant_request_returns_existing_grant(self):
        locks = manager()
        first = locks.request("t1", "x", LockMode.EXCLUSIVE)
        again = locks.request("t1", "x", LockMode.SHARED)
        assert again.granted is first.granted


class TestQueueing:
    def test_conflicting_request_queues_instead_of_raising(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        request = locks.request("t2", "x", LockMode.EXCLUSIVE, now=1.0)
        assert request.pending
        assert locks.queued("x") == (request,)
        assert locks.pending_owners() == {"t2"}

    def test_release_promotes_fifo_order(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        first = locks.request("t2", "x", LockMode.EXCLUSIVE)
        second = locks.request("t3", "x", LockMode.EXCLUSIVE)
        locks.release_all("t1")
        assert first.granted is not None
        assert second.pending
        locks.release_all("t2")
        assert second.granted is not None

    def test_shared_group_promotes_together_but_not_past_a_writer(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        r2 = locks.request("t2", "x", LockMode.SHARED)
        r3 = locks.request("t3", "x", LockMode.SHARED)
        r4 = locks.request("t4", "x", LockMode.EXCLUSIVE)
        r5 = locks.request("t5", "x", LockMode.SHARED)
        locks.release_all("t1")
        assert r2.granted is not None and r3.granted is not None
        assert r4.pending and r5.pending  # the late reader cannot pass the writer

    def test_no_barging_past_a_queued_writer(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.SHARED)
        writer = locks.request("t2", "x", LockMode.EXCLUSIVE)
        # A new reader is compatible with the *holder* but must not
        # overtake the queued writer (writers would starve).
        reader = locks.request("t3", "x", LockMode.SHARED)
        assert writer.pending and reader.pending
        locks.release_all("t1")
        assert writer.granted is not None
        assert reader.pending

    def test_acquire_respects_the_queue_too(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.SHARED)
        locks.request("t2", "x", LockMode.EXCLUSIVE)
        with pytest.raises(Exception):
            locks.acquire("t3", "x", LockMode.SHARED)

    def test_wait_time_recorded_at_grant(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE, now=0.0)
        request = locks.request("t2", "x", LockMode.EXCLUSIVE, now=1.0)
        locks.release_all("t1", now=4.5)
        assert request.granted_at == 4.5
        assert request.wait_time == 3.5
        assert locks.stats.wait_time_total == 3.5

    def test_on_grant_callback_fires_per_promotion(self):
        locks = manager()
        granted = []
        locks.on_grant = granted.append
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        r2 = locks.request("t2", "x", LockMode.SHARED)
        r3 = locks.request("t3", "x", LockMode.SHARED)
        assert granted == []
        locks.release_all("t1")
        assert granted == [r2, r3]

    def test_cancel_unblocks_the_queue(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.SHARED)
        writer = locks.request("t2", "x", LockMode.EXCLUSIVE)
        reader = locks.request("t3", "x", LockMode.SHARED)
        locks.cancel(writer)
        assert reader.granted is not None


class TestCrashSemantics:
    def test_cancel_all_pending_never_promotes(self):
        locks = manager()
        granted = []
        locks.on_grant = granted.append
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        blocked = locks.request("t2", "x", LockMode.EXCLUSIVE)
        assert locks.cancel_all_pending() == 1
        assert blocked.cancelled
        assert granted == []  # a dying table must not hand out grants

    def test_site_crash_preserves_the_grant_callback(self):
        from repro.db.site import DatabaseSite

        site = DatabaseSite(1)
        granted = []
        site.locks.on_grant = granted.append
        site.crash()
        site.recover()
        site.locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        request = site.locks.request("t2", "x", LockMode.EXCLUSIVE)
        site.locks.release_all("t1")
        assert granted == [request]  # scheduler wiring survives the crash


class TestUpgradesInQueue:
    def test_upgrade_waits_for_other_holders_only(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.SHARED)
        locks.acquire("t2", "x", LockMode.SHARED)
        newcomer = locks.request("t3", "x", LockMode.EXCLUSIVE)
        upgrade = locks.request("t1", "x", LockMode.EXCLUSIVE)
        assert upgrade.pending and upgrade.upgrade
        locks.release_all("t2")
        # The upgrade outranks the queued newcomer.
        assert upgrade.granted is not None
        assert upgrade.granted.mode is LockMode.EXCLUSIVE
        assert newcomer.pending

    def test_cancelled_entries_do_not_skew_upgrade_insertion_order(self):
        # t1..t4 hold shared and queue upgrades in order; t2's is cancelled
        # in place (e.g. a lock-wait timeout) while the queue stays blocked.
        # A later upgrade (t4) must land *behind* every older pending
        # upgrade -- a stale cancelled entry must not skew the index.
        locks = manager()
        for owner in ("t1", "t2", "t3", "t4", "t5"):
            locks.acquire(owner, "x", LockMode.SHARED)
        up1 = locks.request("t1", "x", LockMode.EXCLUSIVE)
        up2 = locks.request("t2", "x", LockMode.EXCLUSIVE)
        up3 = locks.request("t3", "x", LockMode.EXCLUSIVE)
        up2.cancelled = True  # settled in place, not compacted by promotion
        up4 = locks.request("t4", "x", LockMode.EXCLUSIVE)
        assert locks.queued("x") == (up1, up3, up4)

    def test_two_upgraders_form_a_waits_for_cycle(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.SHARED)
        locks.acquire("t2", "x", LockMode.SHARED)
        locks.request("t1", "x", LockMode.EXCLUSIVE)
        locks.request("t2", "x", LockMode.EXCLUSIVE)
        edges = locks.waits_for()
        assert "t2" in edges["t1"] and "t1" in edges["t2"]


class TestWaitsFor:
    def test_edges_point_at_conflicting_holders(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.request("t2", "x", LockMode.EXCLUSIVE)
        assert locks.waits_for() == {"t2": {"t1"}}

    def test_edges_point_at_earlier_queued_owners(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.request("t2", "x", LockMode.EXCLUSIVE)
        locks.request("t3", "x", LockMode.EXCLUSIVE)
        edges = locks.waits_for()
        assert edges["t3"] == {"t1", "t2"}

    def test_no_pending_requests_no_edges(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        assert locks.waits_for() == {}

    def test_shared_group_members_do_not_wait_on_each_other(self):
        # tB and tC queue shared behind an exclusive holder: they will be
        # granted *together*, so no edge may join them (a spurious edge
        # here lets the deadlock detector abort an innocent group member).
        locks = manager()
        locks.acquire("tA", "x", LockMode.EXCLUSIVE)
        locks.request("tB", "x", LockMode.SHARED)
        locks.request("tC", "x", LockMode.SHARED)
        edges = locks.waits_for()
        assert edges["tB"] == {"tA"}
        assert edges["tC"] == {"tA"}

    def test_shared_request_still_waits_on_queued_writer(self):
        locks = manager()
        locks.acquire("tA", "x", LockMode.SHARED)
        locks.request("tW", "x", LockMode.EXCLUSIVE)
        locks.request("tC", "x", LockMode.SHARED)
        edges = locks.waits_for()
        assert "tW" in edges["tC"]  # the reader must outwait the older writer


class TestQueueProperties:
    @given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=8))
    def test_property_exclusive_queue_drains_in_fifo_order(self, owners):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        requests = [
            locks.request(f"t{owner}-{i}", "x", LockMode.EXCLUSIVE)
            for i, owner in enumerate(owners)
        ]
        order = []
        locks.on_grant = lambda r: order.append(r)
        previous = "t1"
        for expected in requests:
            locks.release_all(previous)
            assert order[-1] is expected
            previous = expected.owner
        locks.release_all(previous)
        assert len(locks) == 0 and not locks.pending_owners()


# ----------------------------------------------------------------------
# the owner index: per-owner views of the queue state
# ----------------------------------------------------------------------
OWNERS = ("t1", "t2", "t3", "t4", "t5")
KEYS = ("x", "y", "z")

table_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(OWNERS),
            st.sampled_from(KEYS),
            st.sampled_from(list(LockMode)),
        ),
        st.tuples(st.just("release_all"), st.sampled_from(OWNERS)),
        st.tuples(st.just("release"), st.sampled_from(OWNERS), st.sampled_from(KEYS)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("settle-in-place"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("crash")),
    ),
    max_size=40,
)


def assert_owner_views_match(locks):
    """Every per-owner view equals the whole-table answer it stands in for."""
    reference = locks.waits_for()
    for owner in OWNERS:
        assert locks.waits_of(owner) == reference.get(owner, set()), owner
    queued = [r for key in KEYS for r in locks.queued(key)]
    assert locks.pending_owners() == {r.owner for r in queued}
    for owner in OWNERS:
        assert locks.held_count(owner) == sum(
            locks.holds(owner, key) for key in KEYS
        )


def assert_held_index_matches(locks):
    """The held index, ``held_count`` and ``is_waited_on`` equal table scans."""
    scan = {}
    for key, grants in locks._locks.items():
        for grant in grants:
            assert key not in scan.get(grant.owner, {}), (grant.owner, key)
            scan.setdefault(grant.owner, {})[key] = grant
    assert locks._held_by_owner.keys() == scan.keys()
    for owner, held in scan.items():
        assert locks._held_by_owner[owner].keys() == held.keys(), owner
        for key, grant in held.items():
            assert locks._held_by_owner[owner][key] is grant, (owner, key)
    assert sorted(locks._locks, key=locks._lock_serial.__getitem__) == list(
        locks._locks
    )
    assert locks._lock_serial.keys() == locks._locks.keys()
    waited_on = set().union(*locks.waits_for().values())
    for owner in OWNERS:
        assert locks.held_count(owner) == len(scan.get(owner, ())), owner
        assert locks.is_waited_on(owner) == (owner in waited_on), owner


def apply_table_op(locks, op, requests, now):
    """Apply one op; returns the table to use next (a crash replaces it)."""
    if op[0] == "crash":
        # DatabaseSite.crash: cancel every waiter without promoting, then
        # carry on with a fresh table.
        locks.cancel_all_pending()
        assert_held_index_matches(locks)
        return manager()
    if op[0] == "request":
        requests.append(locks.request(op[1], op[2], op[3], now=now))
    elif op[0] == "release_all":
        locks.release_all(op[1], now=now)
    elif op[0] == "release":
        locks.release(op[1], op[2], now=now)
    elif requests and op[0] == "cancel":
        locks.cancel(requests[op[1] % len(requests)], now=now)
    elif requests:
        # A waiter flagged cancelled without telling the manager (what a
        # crashed table's waiters look like): views must skip it too.
        request = requests[op[1] % len(requests)]
        if request.pending:
            request.cancelled = True
    return locks


class TestOwnerIndex:
    @given(table_ops)
    def test_property_owner_view_equals_waits_for(self, ops):
        locks = manager()
        requests = []
        for now, op in enumerate(ops):
            locks = apply_table_op(locks, op, requests, float(now))
            assert_owner_views_match(locks)

    @given(table_ops)
    def test_property_held_index_and_in_edges_equal_a_scan(self, ops):
        # Upgrades (a shared holder requesting exclusive), single-key
        # releases, cancels, settle-in-place and crashes all occur in the
        # op mix; the indexes must match the table after every one.
        locks = manager()
        requests = []
        for now, op in enumerate(ops):
            locks = apply_table_op(locks, op, requests, float(now))
            assert_held_index_matches(locks)

    def test_in_edge_rules_are_those_of_waits_for(self):
        # Holder edges need a conflict; queue-ahead edges need an
        # incompatible, non-upgrade request behind one of the owner's.
        locks = manager()
        locks.acquire("s1", "x", LockMode.SHARED)
        locks.request("s2", "x", LockMode.SHARED)  # granted: compatible
        assert not locks.is_waited_on("s1")
        locks.request("w", "x", LockMode.EXCLUSIVE)
        assert locks.is_waited_on("s1") and locks.is_waited_on("s2")
        assert not locks.is_waited_on("w")
        locks.request("r", "x", LockMode.SHARED)  # behind the queued writer
        assert locks.is_waited_on("w") and not locks.is_waited_on("r")
        # s1's upgrade jumps ahead of w and r: it waits on s2, r now waits
        # on it, and w (exclusive) conflicts with its shared grant anyway.
        locks.request("s1", "x", LockMode.EXCLUSIVE)
        assert locks.is_waited_on("s1")
        assert not locks.is_waited_on("r")
        assert_held_index_matches(locks)

    def test_a_queued_reader_does_not_wait_on_a_shared_holder(self):
        # The writer between them is settled in place (not yet compacted by
        # a promotion): the reader is compatible with the holder, so there
        # is no edge into the holder even though a request is queued on
        # its key.
        locks = manager()
        locks.acquire("s", "x", LockMode.SHARED)
        writer = locks.request("w", "x", LockMode.EXCLUSIVE)
        locks.request("r", "x", LockMode.SHARED)
        writer.cancelled = True
        assert locks.waits_for() == {"r": set()}
        assert not locks.is_waited_on("s")
        assert_held_index_matches(locks)

    def test_release_all_promotes_held_keys_then_vacated_queues(self):
        # t holds c and d and is queued on a and b.  Lock order is c, d;
        # queue-creation order is b, a, d, c.  Grants must come out held
        # keys first (lock order), then the queues t only waited in (queue
        # order) -- the order on_grant observers saw before the index.
        locks = manager()
        granted = []
        locks.on_grant = lambda r: granted.append(r.owner)
        locks.acquire("t", "c", LockMode.EXCLUSIVE)
        locks.acquire("t", "d", LockMode.EXCLUSIVE)
        locks.acquire("hb", "b", LockMode.SHARED)
        locks.acquire("ha", "a", LockMode.SHARED)
        locks.request("t", "b", LockMode.EXCLUSIVE)
        locks.request("behind-b", "b", LockMode.SHARED)
        locks.request("t", "a", LockMode.EXCLUSIVE)
        locks.request("behind-a", "a", LockMode.SHARED)
        locks.request("behind-d", "d", LockMode.EXCLUSIVE)
        locks.request("behind-c", "c", LockMode.EXCLUSIVE)
        assert locks.release_all("t") == 2
        assert granted == ["behind-c", "behind-d", "behind-b", "behind-a"]
        assert locks.waits_of("t") == set() and not locks.pending_owners()

    def test_upgrade_inserted_ahead_adds_an_edge_into_the_upgrader(self):
        # h1 and h2 hold shared; w queues exclusive and r queues shared
        # behind it.  r waits on w only -- until h1's upgrade jumps the
        # queue: the request inserted *ahead* of r gives r an edge into
        # the new waiter, the one kind of edge a queued request adds that
        # does not start at its own owner.
        locks = manager()
        locks.acquire("h1", "x", LockMode.SHARED)
        locks.acquire("h2", "x", LockMode.SHARED)
        locks.request("w", "x", LockMode.EXCLUSIVE)
        locks.request("r", "x", LockMode.SHARED)
        assert locks.waits_of("r") == {"w"}
        upgrade = locks.request("h1", "x", LockMode.EXCLUSIVE)
        assert upgrade.pending and locks.queued("x")[0] is upgrade
        assert locks.waits_of("h1") == {"h2"}  # upgrades wait on holders only
        assert locks.waits_of("r") == {"w", "h1"}
        assert_owner_views_match(locks)

    def test_cancel_and_single_key_release_keep_the_views_consistent(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.acquire("t1", "y", LockMode.EXCLUSIVE)
        on_x = locks.request("t2", "x", LockMode.EXCLUSIVE)
        locks.request("t2", "y", LockMode.EXCLUSIVE)
        locks.request("t3", "x", LockMode.EXCLUSIVE)
        assert locks.waits_of("t3") == {"t1", "t2"}
        locks.cancel(on_x)
        assert locks.waits_of("t3") == {"t1"}
        assert locks.waits_of("t2") == {"t1"}  # still queued on y
        locks.release("t2", "y")  # release-while-queued on one key
        assert locks.waits_of("t2") == set()
        assert locks.pending_owners() == {"t3"}
        assert_owner_views_match(locks)

    def test_no_index_entry_outlives_its_owner(self):
        locks = manager()
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        promoted = locks.request("t2", "x", LockMode.EXCLUSIVE)
        cancelled = locks.request("t3", "x", LockMode.EXCLUSIVE)
        locks.request("t4", "x", LockMode.EXCLUSIVE)
        locks.cancel(cancelled)
        locks.release_all("t1")
        assert promoted.granted is not None
        locks.release_all("t2")  # no queue is left: the early-return path
        locks.release_all("t4")
        assert locks._queued_by_owner == {}
        locks.acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.request("t5", "x", LockMode.EXCLUSIVE)
        assert locks.cancel_all_pending() == 1
        assert locks._queued_by_owner == {}
