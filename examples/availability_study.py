"""Availability study: what blocking costs a replicated database.

The paper's motivation (Sections 1-2) is that a blocked transaction keeps its
locks and makes data unavailable.  This example sweeps the same set of
partition scenarios under every protocol, prints the comparison table, and
then runs a small multi-transaction workload to show lock retention directly.

Run with::

    python examples/availability_study.py
"""

from repro.experiments import run_availability_comparison, run_message_overhead
from repro.obs.report import format_table
from repro.protocols import ScenarioSpec, create_protocol, run_scenario
from repro.sim.partition import PartitionSchedule
from repro.workloads import WorkloadConfig, generate_transactions


def lock_retention_demo() -> None:
    """Run a handful of workload transactions through a partitioned 2PC system."""
    print("=== lock retention under plain 2PC vs the termination protocol ===")
    workload = generate_transactions(
        WorkloadConfig(n_sites=3, n_transactions=4, keys=("x", "y"), seed=7)
    )
    partition = PartitionSchedule.simple(1.5, [1, 2], [3])
    rows = []
    for protocol_name in ("two-phase-commit", "terminating-three-phase-commit"):
        # Each workload transaction runs in its own scenario; what differs is
        # whether the protocol eventually releases site 3's locks.
        blocked = 0
        locks_held = 0
        for index, _txn in enumerate(workload):
            result = run_scenario(
                create_protocol(protocol_name),
                ScenarioSpec(n_sites=3, partition=partition, seed=index),
            )
            blocked += len(result.blocked_sites)
            locks_held += sum(1 for held in result.locks_held_at_end.values() if held)
        rows.append(
            {
                "protocol": protocol_name,
                "transactions": len(workload),
                "blocked sites (total)": blocked,
                "sites still holding locks": locks_held,
            }
        )
    print(format_table(rows))
    print()


def main() -> None:
    lock_retention_demo()

    print("=== protocol comparison over a partition sweep (AVAIL experiment) ===")
    print(run_availability_comparison(times=[0.5, 1.5, 2.5, 3.5, 4.5]).format())
    print()
    print("=== message overhead (MSG experiment) ===")
    print(run_message_overhead().format())


if __name__ == "__main__":
    main()
