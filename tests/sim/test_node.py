"""Tests for node timers, crash handling and the cluster wiring."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.failures import CrashEvent, CrashSchedule
from repro.sim.latency import ConstantLatency
from repro.sim.partition import PartitionSchedule


class StubRole:
    def __init__(self, node):
        self.node = node
        self.events = []
        node.attach(self)

    def on_start(self):
        self.events.append(("start", self.node.sim.now))

    def on_message(self, payload, envelope):
        self.events.append(("message", payload))

    def on_timeout(self, name):
        self.events.append(("timeout", name, self.node.sim.now))

    def on_crash(self):
        self.events.append(("crash", self.node.sim.now))

    def on_recover(self):
        self.events.append(("recover", self.node.sim.now))


def cluster_with_roles(n=2):
    cluster = Cluster(n, latency=ConstantLatency(1.0))
    roles = {site: StubRole(cluster.node(site)) for site in cluster.site_ids()}
    return cluster, roles


class TestTimers:
    def test_timer_fires_at_deadline(self):
        cluster, roles = cluster_with_roles()
        cluster.node(1).set_timer("vote-timeout", 3.0)
        cluster.run()
        assert ("timeout", "vote-timeout", 3.0) in roles[1].events

    def test_cancelled_timer_does_not_fire(self):
        cluster, roles = cluster_with_roles()
        cluster.node(1).set_timer("t", 3.0)
        cluster.node(1).cancel_timer("t")
        cluster.run()
        assert all(event[0] != "timeout" for event in roles[1].events)

    def test_rearming_replaces_previous_deadline(self):
        cluster, roles = cluster_with_roles()
        cluster.node(1).set_timer("t", 3.0)
        cluster.node(1).set_timer("t", 5.0)
        cluster.run()
        timeouts = [event for event in roles[1].events if event[0] == "timeout"]
        assert timeouts == [("timeout", "t", 5.0)]

    def test_timer_armed_reflects_state(self):
        cluster, _ = cluster_with_roles()
        node = cluster.node(1)
        assert not node.timer_armed("t")
        node.set_timer("t", 1.0)
        assert node.timer_armed("t")
        node.cancel_timer("t")
        assert not node.timer_armed("t")

    def test_cancel_all_timers(self):
        cluster, roles = cluster_with_roles()
        node = cluster.node(1)
        node.set_timer("a", 1.0)
        node.set_timer("b", 2.0)
        node.cancel_all_timers()
        cluster.run()
        assert all(event[0] != "timeout" for event in roles[1].events)

    def test_timeout_recorded_in_trace(self):
        cluster, _ = cluster_with_roles()
        cluster.node(1).set_timer("t", 2.0)
        cluster.run()
        assert cluster.trace.count("timeout", timer="t") == 1


class TestStartAndCrash:
    def test_start_all_invokes_on_start(self):
        cluster, roles = cluster_with_roles(3)
        cluster.start_all()
        cluster.run()
        for role in roles.values():
            assert ("start", 0.0) in role.events

    def test_crash_and_recover_hooks(self):
        cluster, roles = cluster_with_roles()
        cluster.node(1).crash()
        cluster.node(1).recover()
        events = [event[0] for event in roles[1].events]
        assert events == ["crash", "recover"]

    def test_double_crash_is_idempotent(self):
        cluster, roles = cluster_with_roles()
        cluster.node(1).crash()
        cluster.node(1).crash()
        assert [event[0] for event in roles[1].events] == ["crash"]

    def test_recover_without_crash_is_noop(self):
        cluster, roles = cluster_with_roles()
        cluster.node(1).recover()
        assert roles[1].events == []

    def test_note_adds_trace_record(self):
        cluster, _ = cluster_with_roles()
        cluster.node(1).note("transition", state="w")
        records = cluster.trace.filter("transition", site=1)
        assert len(records) == 1
        assert records[0].get("state") == "w"


class TestFailureInjector:
    def test_scheduled_crash_applies_at_time(self):
        cluster, roles = cluster_with_roles()
        cluster.apply_crash_schedule(CrashSchedule.single(2, at=3.0))
        cluster.run()
        assert ("crash", 3.0) in roles[2].events
        assert cluster.node(2).crashed

    def test_scheduled_recovery(self):
        cluster, roles = cluster_with_roles()
        cluster.apply_crash_schedule(CrashSchedule.single(2, at=1.0, recover_at=4.0))
        cluster.run()
        assert ("recover", 4.0) in roles[2].events
        assert not cluster.node(2).crashed

    def test_unknown_site_rejected(self):
        cluster, _ = cluster_with_roles()
        with pytest.raises(KeyError):
            cluster.apply_crash_schedule(CrashSchedule.single(99, at=1.0))

    def test_crash_event_validates_recovery_time(self):
        with pytest.raises(ValueError):
            CrashEvent(time=5.0, site=1, recover_at=5.0)

    def test_schedule_iterates_in_time_order(self):
        schedule = CrashSchedule()
        schedule.add(CrashEvent(time=5.0, site=1))
        schedule.add(CrashEvent(time=2.0, site=2))
        assert [event.time for event in schedule] == [2.0, 5.0]

    def test_schedule_sites(self):
        schedule = CrashSchedule.single(3, at=1.0)
        assert schedule.sites() == {3}


class TestCluster:
    def test_rejects_zero_sites(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_site_ids_are_one_based(self):
        assert Cluster(4).site_ids() == [1, 2, 3, 4]

    def test_max_delay_reflects_latency_model(self):
        assert Cluster(2, latency=ConstantLatency(2.5)).max_delay == 2.5

    def test_partition_schedule_recorded_in_trace(self):
        cluster, _ = cluster_with_roles()
        cluster.apply_partition_schedule(PartitionSchedule.transient(1.0, 3.0, [1], [2]))
        cluster.run()
        assert cluster.trace.count("partition") == 1
        assert cluster.trace.count("heal") == 1
