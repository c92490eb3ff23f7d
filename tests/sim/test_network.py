"""Tests for the partitionable network and nodes."""

from repro.sim.cluster import Cluster
from repro.sim.latency import ConstantLatency, PerLinkLatency
from repro.sim.network import Undeliverable
from repro.sim.node import is_undeliverable
from repro.sim.partition import PartitionSchedule, PartitionSpec


class RecordingRole:
    """Minimal role that records everything delivered to it."""

    def __init__(self, node):
        self.node = node
        self.messages = []
        self.timeouts = []
        self.started = False
        node.attach(self)

    def on_start(self):
        self.started = True

    def on_message(self, payload, envelope):
        self.messages.append((self.node.sim.now, payload))

    def on_timeout(self, name):
        self.timeouts.append((self.node.sim.now, name))


def make_cluster(n=3, latency=None, model="optimistic"):
    cluster = Cluster(n, latency=latency or ConstantLatency(1.0), model=model)
    roles = {site: RecordingRole(cluster.node(site)) for site in cluster.site_ids()}
    return cluster, roles


class TestDelivery:
    def test_message_arrives_after_latency(self):
        cluster, roles = make_cluster(2, latency=ConstantLatency(2.0))
        cluster.node(1).send(2, "hello")
        cluster.run()
        assert roles[2].messages == [(2.0, "hello")]

    def test_multicast_reaches_every_destination(self):
        cluster, roles = make_cluster(4)
        cluster.node(1).multicast([2, 3, 4], "prepare")
        cluster.run()
        for site in (2, 3, 4):
            assert roles[site].messages == [(1.0, "prepare")]

    def test_per_link_latency_orders_deliveries(self):
        latency = PerLinkLatency(1.0, {(1, 3): 0.25})
        cluster, roles = make_cluster(3, latency=latency)
        cluster.node(1).send(2, "slow")
        cluster.node(1).send(3, "fast")
        cluster.run()
        assert roles[3].messages[0][0] == 0.25
        assert roles[2].messages[0][0] == 1.0

    def test_statistics_track_sends_and_deliveries(self):
        cluster, _ = make_cluster(3)
        cluster.node(1).multicast([2, 3], "x")
        cluster.run()
        assert cluster.network.messages_sent == 2
        assert cluster.network.messages_delivered == 2
        assert cluster.network.messages_bounced == 0

    def test_in_flight_counter(self):
        cluster, _ = make_cluster(2)
        cluster.node(1).send(2, "x")
        assert cluster.network.in_flight == 1
        cluster.run()
        assert cluster.network.in_flight == 0

    def test_trace_records_send_and_deliver(self):
        cluster, _ = make_cluster(2)
        cluster.node(1).send(2, "ping")
        cluster.run()
        assert cluster.trace.count("send") == 1
        assert cluster.trace.count("deliver") == 1


class TestOptimisticPartitioning:
    def test_send_across_partition_bounces_to_sender(self):
        cluster, roles = make_cluster(3)
        cluster.partitions.apply(PartitionSpec.simple([1, 2], [3]))
        cluster.node(1).send(3, "prepare")
        cluster.run()
        assert roles[3].messages == []
        assert len(roles[1].messages) == 1
        _, payload = roles[1].messages[0]
        assert is_undeliverable(payload)
        assert payload.payload == "prepare"
        assert payload.intended_destination == 3

    def test_bounce_takes_a_propagation_delay(self):
        cluster, roles = make_cluster(2, latency=ConstantLatency(1.0))
        cluster.partitions.apply(PartitionSpec.simple([1], [2]))
        cluster.node(1).send(2, "x")
        cluster.run()
        time, _ = roles[1].messages[0]
        assert time == 1.0

    def test_in_flight_message_bounced_when_partition_cuts_it(self):
        cluster, roles = make_cluster(2, latency=ConstantLatency(2.0))
        cluster.apply_partition_schedule(PartitionSchedule.simple(1.0, [1], [2]))
        cluster.node(1).send(2, "commit")
        cluster.run()
        assert roles[2].messages == []
        assert len(roles[1].messages) == 1
        assert is_undeliverable(roles[1].messages[0][1])

    def test_in_flight_message_within_group_unaffected(self):
        cluster, roles = make_cluster(3, latency=ConstantLatency(2.0))
        cluster.apply_partition_schedule(PartitionSchedule.simple(1.0, [1, 2], [3]))
        cluster.node(1).send(2, "commit")
        cluster.run()
        assert roles[2].messages == [(2.0, "commit")]

    def test_messages_flow_again_after_heal(self):
        cluster, roles = make_cluster(2)
        cluster.apply_partition_schedule(PartitionSchedule.transient(0.0, 5.0, [1], [2]))
        cluster.sim.schedule_at(6.0, lambda: cluster.node(1).send(2, "late"))
        cluster.run()
        assert (7.0, "late") in roles[2].messages

    def test_partition_is_directionless(self):
        cluster, roles = make_cluster(2)
        cluster.partitions.apply(PartitionSpec.simple([1], [2]))
        cluster.node(2).send(1, "yes")
        cluster.run()
        assert roles[1].messages == []
        assert is_undeliverable(roles[2].messages[0][1])

    def test_bounce_counts_in_statistics(self):
        cluster, _ = make_cluster(2)
        cluster.partitions.apply(PartitionSpec.simple([1], [2]))
        cluster.node(1).send(2, "x")
        cluster.run()
        assert cluster.network.messages_bounced == 1
        assert cluster.network.messages_delivered == 0


class TestPessimisticPartitioning:
    def test_cross_partition_message_is_lost(self):
        cluster, roles = make_cluster(2, model="pessimistic")
        cluster.partitions.apply(PartitionSpec.simple([1], [2]))
        cluster.node(1).send(2, "x")
        cluster.run()
        assert roles[1].messages == []
        assert roles[2].messages == []
        assert cluster.network.messages_dropped == 1

    def test_in_flight_message_lost_on_partition(self):
        cluster, roles = make_cluster(2, model="pessimistic", latency=ConstantLatency(2.0))
        cluster.apply_partition_schedule(PartitionSchedule.simple(1.0, [1], [2]))
        cluster.node(1).send(2, "x")
        cluster.run()
        assert roles[1].messages == []
        assert roles[2].messages == []


class TestCrashes:
    def test_crashed_destination_drops_message(self):
        cluster, roles = make_cluster(2)
        cluster.node(2).crash()
        cluster.node(1).send(2, "x")
        cluster.run()
        assert roles[2].messages == []
        assert cluster.network.messages_dropped == 1

    def test_crashed_node_cannot_send(self):
        cluster, roles = make_cluster(2)
        cluster.node(1).crash()
        assert cluster.node(1).send(2, "x") is None
        cluster.run()
        assert roles[2].messages == []

    def test_recovered_node_receives_again(self):
        cluster, roles = make_cluster(2)
        cluster.node(2).crash()
        cluster.node(2).recover()
        cluster.node(1).send(2, "x")
        cluster.run()
        assert roles[2].messages == [(1.0, "x")]

    def test_crash_cancels_timers(self):
        cluster, roles = make_cluster(2)
        cluster.node(2).set_timer("t", 1.0)
        cluster.node(2).crash()
        cluster.run()
        assert roles[2].timeouts == []


class TestUndeliverableWrapper:
    def test_str_mentions_payload_and_destination(self):
        cluster, roles = make_cluster(2)
        cluster.partitions.apply(PartitionSpec.simple([1], [2]))
        cluster.node(1).send(2, "prepare")
        cluster.run()
        ud = roles[1].messages[0][1]
        assert isinstance(ud, Undeliverable)
        assert "prepare" in str(ud)
        assert "2" in str(ud)
