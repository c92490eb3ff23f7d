"""A scenario's simulator rig is freed by reference counting alone.

``run_scenario`` closes its :class:`~repro.sim.cluster.Cluster` once the
result is harvested, which cuts every back-reference between the event heap,
the network, the nodes and their roles.  A sweep of thousands of scenarios
therefore leaves the cyclic garbage collector nothing to collect; these
tests pin that for every protocol under every fault class, with the trace
off (``NullTrace``, the sweep engine's run) and on (a full trace, read by the
timing measures as the FIG5-FIG7 and FIG9 experiments read it).
"""

import gc

import pytest

from repro.analysis.timing import (
    measure_master_probe_window,
    measure_protocol_timeouts,
    measure_wait_after_timeout_in_p,
    measure_wait_after_timeout_in_w,
)
from repro.cli.faults import parse_fault_clauses
from repro.engine import SweepTask, execute_task
from repro.experiments.harness import traced_runs
from repro.protocols.registry import available_protocols, create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.cluster import Cluster
from repro.sim.failures import CrashSchedule
from repro.sim.latency import UniformLatency
from repro.sim.network import PESSIMISTIC
from repro.sim.partition import PartitionSchedule

SPLIT = PartitionSchedule.simple(2.5, [1, 2], [3, 4])

CONFIGS = {
    "failure-free": ScenarioSpec(n_sites=4),
    "partition-heal": ScenarioSpec(
        n_sites=4, partition=PartitionSchedule.transient(1.5, 3.0, [1, 2], [3, 4])
    ),
    "crash-recover": ScenarioSpec(
        n_sites=4, crashes=CrashSchedule.single(3, at=1.5, recover_at=4.0)
    ),
    "loss-retransmit": ScenarioSpec(
        n_sites=4, partition=SPLIT, faults=parse_fault_clauses(["loss=0.2,retransmit=on,seed=1"])
    ),
    "dup": ScenarioSpec(n_sites=4, partition=SPLIT, faults=parse_fault_clauses(["dup=0.3,seed=1"])),
    "reorder-retransmit": ScenarioSpec(
        n_sites=4, partition=SPLIT, faults=parse_fault_clauses(["reorder=1:4,retransmit=on,seed=0"])
    ),
    "byzantine": ScenarioSpec(
        n_sites=4, faults=parse_fault_clauses(["byzantine=2:arbitrary,seed=0"])
    ),
    "pessimistic": ScenarioSpec(n_sites=4, partition=SPLIT, model=PESSIMISTIC),
    "uniform-latency": ScenarioSpec(
        n_sites=4, partition=SPLIT, latency=UniformLatency(0.5, 1.0), seed=7
    ),
}


def _untraced_run(protocol, spec):
    execute_task(protocol, spec, spec_hash="")


def _traced_run(protocol, spec):
    for result in traced_runs([SweepTask(protocol, spec)]):
        measure_protocol_timeouts(result)
        measure_master_probe_window(result)
        measure_wait_after_timeout_in_w(result)
        measure_wait_after_timeout_in_p(result)


RUNS = {"trace-off": _untraced_run, "trace-on": _traced_run}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("protocol", available_protocols())
def test_a_scenario_leaves_no_cyclic_garbage(protocol, config, run, frozen_heap):
    spec = CONFIGS[config]
    # Warm-up: per-(protocol, n) plans and first-use caches are built once
    # per process and are not garbage.
    RUNS[run](protocol, spec)
    gc.collect()
    RUNS[run](protocol, spec)
    assert gc.collect() == 0


def test_close_is_idempotent_and_keeps_the_counters():
    cluster = Cluster(3)
    cluster.node(1).send(2, "ping")
    cluster.node(2).set_timer("t", 5.0)
    cluster.run(until=0.5)
    assert cluster.network.in_flight == 1
    cluster.close()
    cluster.close()
    assert cluster.sim.pending() == 0
    assert cluster.sim.now == 0.5
    assert cluster.network.in_flight == 0
    assert cluster.network.messages_sent == 1
    assert not cluster.node(2).timer_armed("t")
    assert len(cluster.trace) == 1  # the send record


def test_a_result_is_intact_after_its_rig_is_closed():
    result = run_scenario(
        create_protocol("terminating-three-phase-commit"),
        ScenarioSpec(n_sites=4, partition=SPLIT),
    )
    assert result.consistent
    assert result.trace.first("partition") is not None
    assert result.trace.count("deliver") == result.messages_delivered
    assert sorted(result.db_sites) == [1, 2, 3, 4]
    for site, db in result.db_sites.items():
        assert result.values_at_end[site] == db.value(result.spec.write_key)
        assert not db.holds_locks(result.transaction.transaction_id)
