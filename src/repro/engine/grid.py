"""Declarative scenario grids for the sweep engine.

A :class:`ScenarioGrid` is the cartesian product of the sweep axes the paper
quantifies over -- protocol x partition schedule x crash schedule x latency
model x no-voter set (plus partition model and seed).  Grids enumerate
deterministically in declaration order, so runs, reports and spec-hashes
are reproducible across processes and machines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis.scenarios import simple_partition_schedules
from repro.engine.hashing import spec_hash
from repro.protocols.runner import ScenarioSpec
from repro.sim.failures import CrashSchedule
from repro.sim.latency import LatencyModel
from repro.sim.network import OPTIMISTIC
from repro.sim.partition import PartitionSchedule, PartitionSpec


@dataclass(frozen=True)
class SweepTask:
    """One grid point: a protocol name plus a fully-specified scenario.

    Tasks are picklable (protocols travel by registry name, not object) and
    carry a stable content hash used to key the result cache.
    """

    protocol: str
    spec: ScenarioSpec

    @cached_property
    def spec_hash(self) -> str:
        """Stable hash of this task (see :mod:`repro.engine.hashing`).

        Cached: the engine consults it several times per task (cache probe,
        cache store, result labelling) and canonicalization walks the whole
        spec.  ``cached_property`` writes straight into ``__dict__``, which
        a frozen dataclass permits.
        """
        return spec_hash(self.protocol, self.spec)


def tasks_from_specs(protocol: str, specs: Iterable[ScenarioSpec]) -> list[SweepTask]:
    """Wrap pre-built scenario specs as tasks for one protocol."""
    return [SweepTask(protocol=protocol, spec=spec) for spec in specs]


# The (onset time x simple split) axis is owned by the analysis layer; the
# engine re-exports it under its axis-naming convention.
simple_partition_axis = simple_partition_schedules


def multiple_partition_axis(
    n_sites: int,
    *,
    times: Sequence[float],
    n_groups: int = 3,
) -> list[PartitionSchedule]:
    """Multiple (>2 group) partitionings, used only for negative sweeps.

    Sites ``1..n`` are dealt round-robin into ``n_groups`` groups; the paper
    proves no protocol is resilient to this class.
    """
    if not 2 < n_groups <= n_sites:
        raise ValueError(f"need 2 < n_groups <= n_sites, got {n_groups}/{n_sites}")
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    for site in range(1, n_sites + 1):
        groups[(site - 1) % n_groups].append(site)
    spec = PartitionSpec.of(*groups)
    return [PartitionSchedule.permanent(at, spec) for at in times]


@dataclass
class ScenarioGrid:
    """A cartesian grid of sweep tasks.

    Attributes:
        protocols: registry names of the protocols to sweep.
        n_sites: number of participating sites for every scenario.
        partitions: partition schedules (``None`` = failure-free).
        crashes: crash schedules (``None`` = no crashes).
        latencies: latency models (``None`` = the spec default, constant T).
        no_voter_options: vote patterns to sweep.
        models: partition models (optimistic / pessimistic).
        seeds: simulator seeds (matter for stochastic latencies).
        horizon: optional run-horizon override.
        base_spec: template spec supplying any remaining fields.

    Axis order (protocol outermost, seed innermost) fixes the enumeration
    order of :meth:`tasks`, which is also the order of the engine's results.
    """

    protocols: Sequence[str] = ("terminating-three-phase-commit",)
    n_sites: int = 3
    partitions: Sequence[Optional[PartitionSchedule]] = (None,)
    crashes: Sequence[Optional[CrashSchedule]] = (None,)
    latencies: Sequence[Optional[LatencyModel]] = (None,)
    no_voter_options: Sequence[frozenset[int]] = (frozenset(),)
    models: Sequence[str] = (OPTIMISTIC,)
    seeds: Sequence[int] = (0,)
    horizon: Optional[float] = None
    base_spec: ScenarioSpec = field(default_factory=ScenarioSpec)

    def specs(self) -> Iterator[ScenarioSpec]:
        """Yield the scenario of every grid point (without the protocol)."""
        for task in self.tasks():
            yield task.spec

    def tasks(self) -> Iterator[SweepTask]:
        """Yield one :class:`SweepTask` per grid point, in declaration order."""
        axes = itertools.product(
            self.protocols,
            self.partitions,
            self.crashes,
            self.latencies,
            self.no_voter_options,
            self.models,
            self.seeds,
        )
        for protocol, partition, crash, latency, no_voters, model, seed in axes:
            spec = replace(
                self.base_spec,
                n_sites=self.n_sites,
                partition=partition,
                crashes=crash,
                latency=latency if latency is not None else self.base_spec.latency,
                no_voters=frozenset(no_voters),
                model=model,
                seed=seed,
                horizon=self.horizon if self.horizon is not None else self.base_spec.horizon,
            )
            yield SweepTask(protocol=protocol, spec=spec)

    def __len__(self) -> int:
        return (
            len(list(self.protocols))
            * len(list(self.partitions))
            * len(list(self.crashes))
            * len(list(self.latencies))
            * len(list(self.no_voter_options))
            * len(list(self.models))
            * len(list(self.seeds))
        )

    def __iter__(self) -> Iterator[SweepTask]:
        return self.tasks()

    @classmethod
    def from_partition_sweep(
        cls,
        protocol: str,
        n_sites: int,
        *,
        times: Optional[Sequence[float]] = None,
        heal_after: Optional[float] = None,
        no_voter_options: Sequence[frozenset[int]] = (frozenset(),),
        horizon: Optional[float] = None,
        base_spec: Optional[ScenarioSpec] = None,
    ) -> "ScenarioGrid":
        """The classic Theorem 9 sweep (onset times x simple splits) as a grid.

        Enumerates onset time outermost, then split, then vote pattern.
        """
        base = base_spec or ScenarioSpec()
        return cls(
            protocols=(protocol,),
            n_sites=n_sites,
            partitions=simple_partition_axis(
                n_sites,
                times=times,
                heal_after=heal_after,
                max_delay=base.effective_latency().upper_bound,
            ),
            no_voter_options=no_voter_options,
            horizon=horizon,
            base_spec=base,
        )
