"""The partition-scenario axis.

The correctness arguments of the paper (Theorem 9 in particular) quantify
over *when* the partition strikes and *which* sites it separates.  The
generators below enumerate those two dimensions;
:meth:`repro.engine.grid.ScenarioGrid.from_partition_sweep` crosses them
with the vote patterns and runs them on the sweep engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from repro.core.reachability import simple_splits
from repro.sim.partition import PartitionSchedule, PartitionSpec


def default_partition_times(max_delay: float = 1.0, *, resolution: float = 0.25, horizon: float = 8.0) -> list[float]:
    """A grid of partition onset times covering the whole protocol execution.

    The grid is offset from the message-delivery instants (multiples of ``T``)
    so that both "partition just before delivery" and "just after delivery"
    orderings are exercised.
    """
    steps = int(horizon / resolution)
    return [round((i + 1) * resolution * max_delay, 6) for i in range(steps)]


def simple_partition_schedules(
    n_sites: int,
    *,
    times: Optional[Sequence[float]] = None,
    heal_after: Optional[float] = None,
    max_delay: float = 1.0,
) -> list[PartitionSchedule]:
    """Every (onset time x simple split) partition schedule for ``n_sites``.

    This is the single owner of the Theorem 9 sweep axis; the engine
    re-exports it as :func:`repro.engine.grid.simple_partition_axis`
    (onset time outermost, split innermost).  With
    ``heal_after`` set the partitions are transient (Section 6); otherwise
    they are permanent (Section 5's assumption 5).  Every schedule of one
    split shares that split's :class:`~repro.sim.partition.PartitionSpec`
    (:func:`simple_split_specs`).
    """
    onset_times = (
        list(times) if times is not None else default_partition_times(max_delay)
    )
    schedules = []
    for at in onset_times:
        for spec in simple_split_specs(n_sites):
            if heal_after is None:
                schedules.append(PartitionSchedule.permanent(at, spec))
            else:
                schedules.append(
                    PartitionSchedule.healing(at, at + heal_after, spec)
                )
    return schedules


@lru_cache(maxsize=None)
def simple_split_specs(n_sites: int) -> tuple[PartitionSpec, ...]:
    """One frozen :class:`~repro.sim.partition.PartitionSpec` per simple
    split of ``n_sites`` (in :func:`~repro.core.reachability.simple_splits`
    order), built once per process: specs are immutable and hash by value,
    so every onset's schedule can share them."""
    return tuple(PartitionSpec.simple(g1, g2) for g1, g2 in simple_splits(n_sites))
