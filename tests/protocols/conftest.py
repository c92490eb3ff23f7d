"""Shared helpers for the protocol test suite."""

import pytest

from repro.core.reachability import simple_splits
from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite
from repro.db.transactions import Transaction
from repro.protocols.base import ProtocolContext
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.cluster import Cluster
from repro.sim.partition import PartitionSchedule


def make_context(site=1, n_sites=3):
    cluster = Cluster(n_sites)
    transaction = Transaction.simple_update(1, cluster.site_ids(), "k", 1, transaction_id="t-ctx")
    ctx = ProtocolContext(
        node=cluster.node(site),
        db=DatabaseSite(site),
        transaction=transaction,
        participants=tuple(cluster.site_ids()),
        master=1,
        timers=TerminationTimers(1.0),
    )
    return cluster, ctx


def sweep_partitions(
    protocol_name,
    *,
    n_sites=3,
    times=None,
    no_voter_options=(frozenset(),),
    heal_after=None,
    horizon=None,
):
    """Run a protocol across a grid of partition times, splits and vote patterns."""
    times = times if times is not None else [0.5 * i for i in range(1, 17)]
    results = []
    for at in times:
        for g1, g2 in simple_splits(n_sites):
            for no_voters in no_voter_options:
                if heal_after is None:
                    partition = PartitionSchedule.simple(at, g1, g2)
                else:
                    partition = PartitionSchedule.transient(at, at + heal_after, g1, g2)
                result = run_scenario(
                    create_protocol(protocol_name),
                    ScenarioSpec(
                        n_sites=n_sites,
                        partition=partition,
                        no_voters=no_voters,
                        horizon=horizon,
                    ),
                )
                results.append(result)
    return results


@pytest.fixture
def run_simple():
    """Run a protocol by name in a simple configurable scenario."""

    def _run(name, **kwargs):
        return run_scenario(create_protocol(name), ScenarioSpec(**kwargs))

    return _run
