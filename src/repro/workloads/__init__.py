"""Workload generation: transactions and partition schedules."""

from repro.workloads.partitions import (
    random_partition_schedule,
    random_simple_split,
    random_transient_schedule,
)
from repro.workloads.transactions import (
    TransactionMix,
    WorkloadConfig,
    generate_transactions,
)

__all__ = [
    "TransactionMix",
    "WorkloadConfig",
    "generate_transactions",
    "random_partition_schedule",
    "random_simple_split",
    "random_transient_schedule",
]
