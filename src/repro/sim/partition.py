"""Network partition specifications and schedules.

Terminology follows the paper:

* **simple partitioning** -- the sites split into exactly two groups with no
  communication between them (Fig. 4).  The group containing the master of a
  transaction is called ``G1`` and the other ``G2``; the cut between them is
  the *boundary* ``B``.
* **multiple partitioning** -- more than two groups (the paper proves no
  protocol can be resilient to this, and we use it only for negative tests).
* **transient partitioning** -- the network heals before all affected
  transactions have terminated (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence


class PartitionError(ValueError):
    """Raised for malformed partition specifications."""


@dataclass(frozen=True)
class PartitionSpec:
    """An assignment of sites to disjoint connectivity groups."""

    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise PartitionError("a partition needs at least one group")
        seen: set[int] = set()
        index: dict[int, frozenset[int]] = {}
        for group in self.groups:
            if not group:
                raise PartitionError("empty partition group")
            overlap = seen & group
            if overlap:
                raise PartitionError(f"sites {sorted(overlap)} appear in two groups")
            seen.update(group)
            for site in group:
                index[site] = group
        # Site -> group index: the network asks separated() for every send
        # and delivery, so group membership must not be a linear scan.  Not a
        # dataclass field (object.__setattr__ sidesteps frozen), so equality,
        # hashing and spec-hash canonicalization see only `groups`.
        object.__setattr__(self, "_group_index", index)

    @classmethod
    def of(cls, *groups: Iterable[int]) -> "PartitionSpec":
        """Build a spec from iterables of site ids."""
        return cls(tuple(frozenset(group) for group in groups))

    @classmethod
    def simple(cls, group_a: Iterable[int], group_b: Iterable[int]) -> "PartitionSpec":
        """A two-group (simple) partition."""
        spec = cls.of(group_a, group_b)
        if not spec.is_simple:
            raise PartitionError("simple partition requires exactly two groups")
        return spec

    @property
    def sites(self) -> frozenset[int]:
        """All sites named by the spec."""
        return frozenset(site for group in self.groups for site in group)

    @property
    def is_simple(self) -> bool:
        """True when the spec has exactly two groups."""
        return len(self.groups) == 2

    @property
    def is_multiple(self) -> bool:
        """True when the spec has more than two groups (multiple partitioning)."""
        return len(self.groups) > 2

    def group_of(self, site: int) -> Optional[frozenset[int]]:
        """Group containing ``site`` or ``None`` if the site is not named."""
        return self._group_index.get(site)

    def separated(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` cannot exchange messages under this spec.

        Sites not named by the spec are treated as belonging to the first
        group; in practice callers always name every site.
        """
        index = self._group_index
        group_a = index.get(a) or self.groups[0]
        group_b = index.get(b) or self.groups[0]
        return group_a is not group_b

    def master_partition(self, master: int) -> frozenset[int]:
        """The paper's ``G1``: the group containing ``master``."""
        group = self.group_of(master)
        if group is None:
            raise PartitionError(f"master {master} is not part of this partition spec")
        return group

    def remote_partition(self, master: int) -> frozenset[int]:
        """The paper's ``G2``: the union of groups not containing ``master``."""
        g1 = self.master_partition(master)
        return frozenset(site for site in self.sites if site not in g1)

    def __str__(self) -> str:
        groups = " | ".join("{" + ",".join(map(str, sorted(g))) + "}" for g in self.groups)
        return f"Partition[{groups}]"


@dataclass(frozen=True)
class PartitionEvent:
    """Either the onset of a partition or a heal, at a point in time."""

    time: float
    spec: Optional[PartitionSpec]  # None means the network heals

    @property
    def is_heal(self) -> bool:
        """True when this event restores full connectivity."""
        return self.spec is None


@dataclass
class PartitionSchedule:
    """A time-ordered list of partition / heal events."""

    events: list[PartitionEvent] = field(default_factory=list)

    @classmethod
    def none(cls) -> "PartitionSchedule":
        """A schedule with no partitions at all (failure-free runs)."""
        return cls([])

    @classmethod
    def permanent(cls, at: float, spec: PartitionSpec) -> "PartitionSchedule":
        """Partition at ``at`` and never heal (Section 5's assumption 5)."""
        return cls([PartitionEvent(at, spec)])

    @classmethod
    def simple(
        cls, at: float, group_a: Iterable[int], group_b: Iterable[int]
    ) -> "PartitionSchedule":
        """A permanent simple partition splitting ``group_a`` from ``group_b``."""
        return cls.permanent(at, PartitionSpec.simple(group_a, group_b))

    @classmethod
    def transient(
        cls,
        at: float,
        heal_at: float,
        group_a: Iterable[int],
        group_b: Iterable[int],
    ) -> "PartitionSchedule":
        """A simple partition at ``at`` that heals at ``heal_at`` (Section 6)."""
        return cls.healing(at, heal_at, PartitionSpec.simple(group_a, group_b))

    @classmethod
    def healing(
        cls, at: float, heal_at: float, spec: PartitionSpec
    ) -> "PartitionSchedule":
        """Partition at ``at`` and heal at ``heal_at``."""
        if heal_at <= at:
            raise PartitionError(f"heal time {heal_at} must follow partition time {at}")
        return cls([PartitionEvent(at, spec), PartitionEvent(heal_at, None)])

    def add(self, event: PartitionEvent) -> "PartitionSchedule":
        """Append an event, keeping the list time-ordered."""
        self.events.append(event)
        self.events.sort(key=lambda e: e.time)
        return self

    def __iter__(self):
        return iter(sorted(self.events, key=lambda e: e.time))

    def __len__(self) -> int:
        return len(self.events)


class PartitionManager:
    """Tracks the live connectivity relation between sites.

    The :class:`~repro.sim.network.Network` consults :meth:`separated` for
    every send and delivery, and registers listeners so in-flight messages can
    be bounced when a partition cuts their path (the optimistic model's
    "outstanding messages ... are returned to the senders").
    """

    def __init__(self) -> None:
        self._current: Optional[PartitionSpec] = None
        self._listeners: list[Callable[[Optional[PartitionSpec]], None]] = []
        self._history: list[tuple[float, Optional[PartitionSpec]]] = []

    @property
    def partitioned(self) -> bool:
        """True when some pair of sites is currently separated."""
        return self._current is not None and len(self._current.groups) > 1

    @property
    def history(self) -> Sequence[tuple[float, Optional[PartitionSpec]]]:
        """Chronological ``(time, spec-or-None)`` transitions applied so far."""
        return tuple(self._history)

    def subscribe(self, listener: Callable[[Optional[PartitionSpec]], None]) -> None:
        """Register a callback invoked after every connectivity change."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[Optional[PartitionSpec]], None]) -> None:
        """Remove ``listener`` if it is registered (a no-op otherwise)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def apply(self, spec: Optional[PartitionSpec], *, at: float = 0.0) -> None:
        """Install ``spec`` (or heal, when ``spec`` is ``None``)."""
        self._current = spec
        self._history.append((at, spec))
        for listener in self._listeners:
            listener(spec)

    def heal(self, *, at: float = 0.0) -> None:
        """Restore full connectivity."""
        self.apply(None, at=at)

    def separated(self, a: int, b: int) -> bool:
        """True when sites ``a`` and ``b`` cannot currently communicate."""
        if a == b:
            return False
        if self._current is None:
            return False
        return self._current.separated(a, b)
