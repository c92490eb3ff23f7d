"""Many transactions on one site: the node's role and timer tables, keyed by
transaction id, route deliveries and keep each transaction's timers apart."""

from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite
from repro.db.transactions import Operation, Transaction
from repro.protocols.base import ProtocolMessage
from repro.protocols.registry import create_protocol
from repro.sim.cluster import Cluster
from repro.txn import TransactionScheduler, TransactionVerdict


def build(n_sites=3, protocol="terminating-three-phase-commit", **kwargs):
    cluster = Cluster(n_sites)
    db_sites = {site: DatabaseSite(site) for site in cluster.site_ids()}
    scheduler = TransactionScheduler(
        cluster, create_protocol(protocol), db_sites,
        timers=TerminationTimers(max_delay=cluster.max_delay), **kwargs,
    )
    return cluster, db_sites, scheduler


def txn(txn_id, writes):
    """A transaction writing ``{site: key}`` with master site 1."""
    operations = [Operation.write(site, key, txn_id) for site, key in writes]
    return Transaction.create(1, operations, transaction_id=txn_id)


class Probe:
    """A role for one transaction that records what reaches it."""

    def __init__(self, transaction_id):
        self.transaction_id = transaction_id
        self.messages = []
        self.timeouts = []

    def on_message(self, payload, envelope):
        self.messages.append(payload.transaction_id)

    def on_timeout(self, name):
        self.timeouts.append(name)


def commit_message(transaction_id):
    return ProtocolMessage(kind="commit", transaction_id=transaction_id, sender=1)


class TestVirtualNodes:
    def test_timers_are_namespaced_per_transaction(self):
        node = Cluster(3).node(1)
        node.set_timer("phase-timeout", 5.0, "txn-a")
        node.set_timer("phase-timeout", 5.0, "txn-b")
        assert node.timer_armed("phase-timeout", "txn-a")
        assert node.timer_armed("phase-timeout", "txn-b")
        node.cancel_timers("txn-a")
        assert not node.timer_armed("phase-timeout", "txn-a")
        assert node.timer_armed("phase-timeout", "txn-b")

    def test_timer_fires_back_with_the_unscoped_name(self):
        cluster = Cluster(3)
        probe = Probe("txn-a")
        node = cluster.node(2)
        node.attach(probe, tag_timers=True)
        node.set_timer("wait-in-w", 1.0, "txn-a")
        cluster.run(until=2.0)
        assert probe.timeouts == ["wait-in-w"]
        # The trace labels the timer with its transaction.
        assert cluster.trace.first("timeout").get("timer") == "txn-a::wait-in-w"

    def test_a_transaction_id_with_colons_keeps_its_timers(self):
        # A name-scoping scheme that splits "a::b::t" at its first "::" would
        # fire this timer to transaction "a" as "b::t".
        cluster = Cluster(2)
        node = cluster.node(2)
        outer, inner = Probe("a"), Probe("a::b")
        node.attach(outer, tag_timers=True)
        node.attach(inner, tag_timers=True)
        node.set_timer("t", 1.0, "a::b")
        cluster.run(until=2.0)
        assert inner.timeouts == ["t"]
        assert outer.timeouts == []

    def test_messages_route_by_transaction_id(self):
        cluster = Cluster(2)
        probes = {txn_id: Probe(txn_id) for txn_id in ("a", "b")}
        for probe in probes.values():
            cluster.node(2).attach(probe)
        cluster.node(1).send(2, ProtocolMessage(kind="xact", transaction_id="a", sender=1))
        cluster.node(1).send(2, ProtocolMessage(kind="xact", transaction_id="b", sender=1))
        cluster.run(until=5.0)
        assert {txn_id: probe.messages for txn_id, probe in probes.items()} == {
            "a": ["a"],
            "b": ["b"],
        }

    def test_unrouted_messages_are_ignored(self):
        cluster = Cluster(2)
        cluster.node(1).send(2, ProtocolMessage(kind="xact", transaction_id="ghost", sender=1))
        cluster.run(until=5.0)  # must not raise

    def test_a_retired_transactions_delivery_is_unrouted(self):
        cluster = Cluster(2)
        receiver = cluster.node(2)
        probe = Probe("done")
        receiver.attach(probe)
        receiver.set_timer("t", 1.0, "done")
        receiver.retire("done")
        assert "done" not in receiver.roles
        assert not receiver.timer_armed("t", "done")
        cluster.node(1).send(2, commit_message("done"))
        cluster.run(until=5.0)
        assert probe.messages == [] and probe.timeouts == []
        unrouted = cluster.trace.first("unrouted-message")
        assert unrouted is not None and unrouted.site == 2
        assert unrouted.get("transaction") == "done"

    def test_an_untraced_unrouted_delivery_describes_nothing(self, monkeypatch):
        from repro.sim import node
        from repro.sim.trace import NullTrace

        def fail(payload):
            raise AssertionError("payload described with tracing off")

        monkeypatch.setattr(node, "describe_payload", fail)
        cluster = Cluster(2, trace=NullTrace())
        cluster.node(1).send(2, ProtocolMessage(kind="xact", transaction_id="ghost", sender=1))
        cluster.run(until=5.0)
        assert cluster.network.messages_delivered == 1


class TestConcurrentProtocolInstances:
    def test_two_disjoint_transactions_commit_concurrently(self):
        cluster, db_sites, scheduler = build()
        scheduler.submit(txn("txn-a", [(1, "x1"), (2, "x2"), (3, "x3")]), at=0.0)
        scheduler.submit(txn("txn-b", [(1, "y1"), (2, "y2"), (3, "y3")]), at=0.0)
        cluster.run(until=40.0)
        scheduler.finalize(40.0)
        outcomes = {o.transaction_id: o.verdict for o in scheduler.outcomes()}
        assert outcomes == {
            "txn-a": TransactionVerdict.COMMITTED,
            "txn-b": TransactionVerdict.COMMITTED,
        }
        assert scheduler.peak_in_flight == 2
        # Both transactions' writes were applied at every site.
        assert db_sites[2].value("x2") == "txn-a"
        assert db_sites[2].value("y2") == "txn-b"

    def test_one_decision_does_not_cancel_the_other_transactions_timers(self):
        # txn-a commits quickly; txn-b is admitted later and must still
        # terminate on its own timers (they live on the same nodes).
        cluster, _, scheduler = build()
        scheduler.submit(txn("txn-a", [(1, "x"), (2, "x"), (3, "x")]), at=0.0)
        scheduler.submit(txn("txn-b", [(1, "y"), (2, "y"), (3, "y")]), at=1.0)
        cluster.run(until=40.0)
        scheduler.finalize(40.0)
        verdicts = [o.verdict for o in scheduler.outcomes()]
        assert verdicts == [TransactionVerdict.COMMITTED] * 2
