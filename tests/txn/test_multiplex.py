"""Per-transaction multiplexing over shared sites: routing and timer isolation."""

from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite
from repro.db.transactions import Operation, Transaction
from repro.protocols.registry import create_protocol
from repro.sim.cluster import Cluster
from repro.txn import TransactionScheduler, TransactionVerdict
from repro.txn.multiplex import SiteMultiplexer


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


class TestVirtualNodes:
    def test_timers_are_namespaced_per_transaction(self):
        cluster, _, scheduler = build()
        mux = scheduler.multiplexers[1]
        a = mux.virtual_node("txn-a")
        b = mux.virtual_node("txn-b")
        a.set_timer("phase-timeout", 5.0)
        b.set_timer("phase-timeout", 5.0)
        assert a.timer_armed("phase-timeout") and b.timer_armed("phase-timeout")
        a.cancel_all_timers()
        assert not a.timer_armed("phase-timeout")
        assert b.timer_armed("phase-timeout")

    def test_timer_fires_back_with_the_unscoped_name(self):
        cluster, _, scheduler = build()
        fired = []

        class Probe:
            def on_timeout(self, timer):
                fired.append(timer.name)

        virtual = scheduler.multiplexers[2].virtual_node("txn-a")
        virtual.attach(Probe())
        virtual.set_timer("wait-in-w", 1.0)
        cluster.run(until=2.0)
        assert fired == ["wait-in-w"]

    def test_messages_route_by_transaction_id(self):
        cluster = Cluster(2)
        received = {"a": [], "b": []}

        class Probe:
            def __init__(self, bucket):
                self.bucket = bucket

            def on_message(self, payload, envelope):
                self.bucket.append(payload.transaction_id)

        muxes = {site: SiteMultiplexer(cluster.node(site)) for site in (1, 2)}
        for txn_id in ("a", "b"):
            virtual = muxes[2].virtual_node(txn_id)
            virtual.attach(Probe(received[txn_id]))

        from repro.protocols.base import ProtocolMessage

        sender = muxes[1].virtual_node("a")
        sender.send(2, ProtocolMessage(kind="xact", transaction_id="a", sender=1))
        sender_b = muxes[1].virtual_node("b")
        sender_b.send(2, ProtocolMessage(kind="xact", transaction_id="b", sender=1))
        cluster.run(until=5.0)
        assert received == {"a": ["a"], "b": ["b"]}

    def test_unrouted_messages_are_ignored(self):
        cluster = Cluster(2)
        muxes = {site: SiteMultiplexer(cluster.node(site)) for site in (1, 2)}
        from repro.protocols.base import ProtocolMessage

        sender = muxes[1].virtual_node("ghost")
        sender.send(2, ProtocolMessage(kind="xact", transaction_id="ghost", sender=1))
        cluster.run(until=5.0)  # must not raise

    def test_a_retired_transactions_delivery_is_unrouted(self):
        cluster = Cluster(2)
        muxes = {site: SiteMultiplexer(cluster.node(site)) for site in (1, 2)}
        received = []

        class Probe:
            def on_message(self, payload, envelope):
                received.append(payload)

        from repro.protocols.base import ProtocolMessage

        receiver = muxes[2].virtual_node("done")
        receiver.attach(Probe())
        muxes[2].retire("done")
        assert receiver.role is None
        muxes[1].virtual_node("done").send(
            2, ProtocolMessage(kind="commit", transaction_id="done", sender=1)
        )
        cluster.run(until=5.0)
        assert received == []
        unrouted = cluster.trace.first("unrouted-message")
        assert unrouted is not None and unrouted.site == 2
        assert unrouted.get("transaction") == "done"

    def test_an_untraced_unrouted_delivery_describes_nothing(self, monkeypatch):
        from repro.protocols.base import ProtocolMessage
        from repro.sim.trace import NullTrace
        from repro.txn import multiplex

        def fail(payload):
            raise AssertionError("payload described with tracing off")

        monkeypatch.setattr(multiplex, "describe_payload", fail)
        cluster = Cluster(2, trace=NullTrace())
        muxes = {site: SiteMultiplexer(cluster.node(site)) for site in (1, 2)}
        muxes[1].virtual_node("ghost").send(
            2, ProtocolMessage(kind="xact", transaction_id="ghost", sender=1)
        )
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
