"""A throughput run's rig is freed by reference counting alone.

The scheduler retires a transaction's roles from its sites' nodes once every
participant has decided, and ``run_throughput_scenario`` closes the
scheduler and the cluster as soon as the run ends.  A long open-loop run
therefore never grows a heap of finished roles, and a finished run leaves
the cyclic garbage collector nothing to collect.  These tests pin that for
every protocol under every fault class, and that the result stays readable
after its rig is closed.
"""

import gc

import pytest

from repro.cli.faults import parse_fault_clauses
from repro.protocols.fsa_role import FSARole
from repro.protocols.registry import available_protocols
from repro.sim.failures import CrashSchedule
from repro.sim.network import PESSIMISTIC
from repro.sim.node import Node
from repro.sim.partition import PartitionSchedule
from repro.txn import (
    DeadlockPolicy,
    RetryPolicy,
    ThroughputSpec,
    TransactionScheduler,
    TransactionVerdict,
    run_throughput_scenario,
)
from repro.txn.scheduler import TxnPhase

BASE = dict(
    n_sites=3,
    n_transactions=30,
    tx_rate=2.0,
    arrival="poisson",
    hotspot=1.0,
    n_keys=6,
    op_delay=0.1,
    partition=PartitionSchedule.transient(5.0, 9.0, (1, 2), (3,)),
    deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=4.0),
    retry=RetryPolicy(max_attempts=2, backoff=1.0),
    seed=4,
)

CONFIGS = {
    "default": ThroughputSpec(**BASE),
    "network-transport": ThroughputSpec(**BASE, lock_transport="network"),
    "pessimistic": ThroughputSpec(**BASE, model=PESSIMISTIC),
    "crash-recover": ThroughputSpec(
        **BASE, crashes=CrashSchedule.single(2, 3.0, recover_at=11.0)
    ),
    "loss-retransmit": ThroughputSpec(
        **BASE, faults=parse_fault_clauses(["loss=0.2,retransmit=on,seed=3"])
    ),
    "dup": ThroughputSpec(**BASE, faults=parse_fault_clauses(["dup=0.3,seed=1"])),
    "byzantine": ThroughputSpec(
        **BASE, faults=parse_fault_clauses(["byzantine=2:arbitrary,seed=0"])
    ),
}


@pytest.fixture
def live_at_close(monkeypatch):
    """Record, as each run's scheduler closes, the ``(site, transaction)`` keys
    of its nodes' role tables and of its commit protocols still in flight."""
    seen = []
    close = TransactionScheduler.close

    def recording_close(scheduler):
        live = {
            (site, transaction_id)
            for site, node in scheduler.cluster.nodes.items()
            for transaction_id in node.roles
        }
        running = {
            (site, state.transaction_id)
            for state in scheduler.states.values()
            if state.phase is TxnPhase.RUNNING
            for site in state.transaction.participants
        }
        seen.append((live, running))
        close(scheduler)

    monkeypatch.setattr(TransactionScheduler, "close", recording_close)
    return seen


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("protocol", available_protocols())
def test_a_throughput_run_leaves_no_cyclic_garbage(
    protocol, config, frozen_heap, live_at_close
):
    spec = CONFIGS[config]
    # Warm-up: per-(protocol, n) plans and first-use caches are built once
    # per process and are not garbage.
    run_throughput_scenario(protocol, spec)
    gc.collect()
    result = run_throughput_scenario(protocol, spec)

    # Decided transactions were retired as they finished; the close
    # retired the ones still running.
    live, running = live_at_close[-1]
    assert live == running
    assert not any(node.roles for node in result.cluster.nodes.values())

    summary = result.summary
    outcomes = result.scheduler.outcomes()
    assert summary.offered == len(outcomes) == spec.n_transactions
    assert summary.committed == sum(
        o.verdict is TransactionVerdict.COMMITTED for o in outcomes
    )
    assert summary.blocked == sum(o.verdict is TransactionVerdict.BLOCKED for o in outcomes)
    assert summary.retries == result.scheduler.retries
    assert result.cluster.sim.events_executed > 0
    assert result.cluster.network.messages_sent == summary.messages_sent
    assert sorted(result.db_sites) == [1, 2, 3]
    assert sum(len(db.wal) for db in result.db_sites.values()) > 0

    result.scheduler.close()
    result.cluster.close()
    del result, outcomes
    assert gc.collect() == 0


def test_lock_waits_still_armed_at_the_horizon_are_freed(frozen_heap):
    # A lock-wait timeout longer than the drain outlives the run: its event
    # holds the waiting state, which holds the event.
    spec = ThroughputSpec(
        n_sites=3,
        n_transactions=20,
        hotspot=1.0,
        n_keys=4,
        partition=PartitionSchedule.simple(3.0, [1, 2], [3]),
        deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=1000.0),
        seed=1,
    )
    run_throughput_scenario("two-phase-commit", spec)
    gc.collect()
    result = run_throughput_scenario("two-phase-commit", spec)
    assert result.summary.stalled > 0
    del result
    assert gc.collect() == 0


def test_a_traced_run_keeps_its_trace_after_close():
    result = run_throughput_scenario(
        "terminating-three-phase-commit", CONFIGS["crash-recover"], collect_trace=True
    )
    trace = result.cluster.trace
    assert trace.count("admit") == result.summary.offered + result.summary.retries
    assert trace.count("deliver") == result.summary.messages_delivered
    assert trace.first("wal-replay") is not None


#: Message faults that deliver protocol traffic after a transaction is
#: decided everywhere: duplicates, retransmissions, delays and Byzantine
#: rewrites.
LATE_CORPUS = (
    "dup=0.3,seed=1",
    "loss=0.2,seed=2",
    "loss=0.2,retransmit=on,seed=3",
    "byzantine=2:arbitrary,seed=0",
    "byzantine=2:equivocate,seed=0",
    "reorder=1:4,retransmit=on,seed=0",
)


def test_late_deliveries_to_a_decided_transaction_are_inert(monkeypatch):
    """Retiring a transaction at ``DONE`` changes no result.

    With retirement switched off, a delivery that reaches a role after every
    participant of its transaction has decided only sets inbox bits: it
    sends nothing, decides nothing and moves no state.  So routing those
    deliveries to the ``unrouted-message`` path instead, as retirement does,
    leaves every summary and event count as it was.
    """
    specs = [
        ThroughputSpec(**{**BASE, "n_transactions": 40}, faults=parse_fault_clauses([clause]))
        for clause in LATE_CORPUS
    ]

    #: Transactions decided everywhere in the current run.
    done = set()

    def corpus():
        results = []
        for spec in specs:
            for protocol in available_protocols():
                done.clear()
                run = run_throughput_scenario(protocol, spec)
                results.append((run.summary, run.cluster.sim.events_executed))
        return results

    retired = corpus()

    late = {"deliveries": 0, "sends": 0, "decisions": 0, "transitions": 0}
    handling = []
    on_site_decided = TransactionScheduler._on_site_decided
    on_message, send = FSARole.on_message, FSARole.send
    decide, transition = FSARole.decide, FSARole.transition

    def recording_on_site_decided(scheduler, state, site, decision):
        on_site_decided(scheduler, state, site, decision)
        if state.phase is TxnPhase.DONE:
            done.add(state.transaction_id)

    def recording_on_message(role, payload, envelope):
        if role.transaction_id not in done:
            return on_message(role, payload, envelope)
        late["deliveries"] += 1
        handling.append(role)
        try:
            on_message(role, payload, envelope)
        finally:
            handling.pop()

    def counting(method, counter):
        def wrapper(role, *args, **kwargs):
            if handling:
                late[counter] += 1
            return method(role, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(Node, "retire", lambda node, transaction_id: None)
    monkeypatch.setattr(TransactionScheduler, "_on_site_decided", recording_on_site_decided)
    monkeypatch.setattr(FSARole, "on_message", recording_on_message)
    monkeypatch.setattr(FSARole, "send", counting(send, "sends"))
    monkeypatch.setattr(FSARole, "decide", counting(decide, "decisions"))
    monkeypatch.setattr(FSARole, "transition", counting(transition, "transitions"))
    kept = corpus()

    assert late["deliveries"] > 0
    assert late == {**late, "sends": 0, "decisions": 0, "transitions": 0}
    assert kept == retired
