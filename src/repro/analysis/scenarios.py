"""Systematic partition-scenario generation.

The correctness arguments of the paper (Theorem 9 in particular) quantify
over *when* the partition strikes and *which* sites it separates.  The
generators below enumerate those dimensions so the experiments can sweep
them exhaustively on concrete configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.core.reachability import simple_splits
from repro.protocols.runner import ScenarioSpec
from repro.sim.partition import PartitionSchedule


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

    This is the single owner of the Theorem 9 sweep axis: the grid below and
    the engine's :func:`repro.engine.grid.simple_partition_axis` both
    enumerate through it (onset time outermost, split innermost).  With
    ``heal_after`` set the partitions are transient (Section 6); otherwise
    they are permanent (Section 5's assumption 5).
    """
    onset_times = (
        list(times) if times is not None else default_partition_times(max_delay)
    )
    schedules = []
    for at in onset_times:
        for g1, g2 in simple_splits(n_sites):
            if heal_after is None:
                schedules.append(PartitionSchedule.simple(at, g1, g2))
            else:
                schedules.append(
                    PartitionSchedule.transient(at, at + heal_after, g1, g2)
                )
    return schedules


@dataclass
class ScenarioGrid:
    """A cartesian grid of partition scenarios for one configuration.

    This is the spec-level grid (partition dimensions only); the engine's
    :class:`repro.engine.grid.ScenarioGrid` generalizes it with protocol,
    crash, latency, model and seed axes.

    Attributes:
        n_sites: number of participating sites.
        partition_times: onset times to sweep.
        heal_after: if set, every partition heals this long after onset
            (transient partitioning); ``None`` means permanent partitions.
        no_voter_options: vote patterns to sweep.
        horizon: run horizon passed to every generated spec.
    """

    n_sites: int = 3
    partition_times: Optional[Sequence[float]] = None
    heal_after: Optional[float] = None
    no_voter_options: Sequence[frozenset[int]] = (frozenset(),)
    horizon: Optional[float] = None
    base_spec: ScenarioSpec = field(default_factory=ScenarioSpec)

    def _schedules(self) -> list[PartitionSchedule]:
        return simple_partition_schedules(
            self.n_sites,
            times=self.partition_times,
            heal_after=self.heal_after,
            max_delay=self.base_spec.effective_latency().upper_bound,
        )

    def specs(self) -> Iterator[ScenarioSpec]:
        """Yield one :class:`ScenarioSpec` per grid point."""
        for partition in self._schedules():
            for no_voters in self.no_voter_options:
                yield ScenarioSpec(
                    **{
                        **self.base_spec.__dict__,
                        "n_sites": self.n_sites,
                        "partition": partition,
                        "no_voters": no_voters,
                        "horizon": self.horizon or self.base_spec.horizon,
                    }
                )

    def __len__(self) -> int:
        return len(self._schedules()) * len(list(self.no_voter_options))


def partition_sweep(
    n_sites: int,
    *,
    times: Optional[Iterable[float]] = None,
    heal_after: Optional[float] = None,
    no_voter_options: Sequence[frozenset[int]] = (frozenset(),),
    horizon: Optional[float] = None,
) -> list[ScenarioSpec]:
    """Convenience wrapper returning the grid's specs as a list."""
    grid = ScenarioGrid(
        n_sites=n_sites,
        partition_times=list(times) if times is not None else None,
        heal_after=heal_after,
        no_voter_options=no_voter_options,
        horizon=horizon,
    )
    return list(grid.specs())
