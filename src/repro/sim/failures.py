"""Site failure injection and the unified :class:`FaultPlan` API.

The paper assumes (Section 5.1, assumptions 3-4) that site failures never
coincide with network partitioning and that masters never fail; Section 7
justifies this by exhibiting two scenarios where a concurrent failure breaks
atomicity.  The failure injector exists to reproduce exactly those negative
scenarios (experiment SEC7) and to exercise the recovery path of the database
substrate.

Beyond crashes, this module defines the fault taxonomy that goes *past* the
paper's assumption 1 (reliable delivery between connected, live sites):

* :class:`LinkFault` -- per-link (or wildcard) message loss, duplication and
  bounded reordering;
* :class:`OmissionFault` -- a site that silently fails to send or receive;
* :class:`ByzantineSpec` -- a site that equivocates its votes/decisions or
  takes arbitrary (seeded) protocol transitions;
* :class:`RetransmitPolicy` -- the at-least-once retransmission/dedup layer
  that *restores* assumption 1 on top of a lossy network;
* :class:`FaultPlan` -- the frozen, stably-hashable value object bundling
  all of the above (plus the crash schedule) so one API flows through spec
  hashing, the spec-kind registry, the CLI and the model checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.sim.kernel import Simulator
from repro.sim.node import Node

#: Omission fault directions.
SEND_OMISSION = "send"
RECEIVE_OMISSION = "receive"
OMISSION_KINDS = (SEND_OMISSION, RECEIVE_OMISSION)

#: Byzantine behaviour modes.
EQUIVOCATE = "equivocate"
ARBITRARY = "arbitrary"
BYZANTINE_MODES = (EQUIVOCATE, ARBITRARY)


@dataclass(frozen=True)
class CrashEvent:
    """Crash ``site`` at ``time``; recover at ``recover_at`` unless ``None``."""

    time: float
    site: int
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.recover_at is not None and self.recover_at <= self.time:
            raise ValueError(
                f"recovery time {self.recover_at} must follow crash time {self.time}"
            )


@dataclass
class CrashSchedule:
    """A collection of crash events applied to a run."""

    events: list[CrashEvent] = field(default_factory=list)

    @classmethod
    def none(cls) -> "CrashSchedule":
        """No crashes (the paper's default operating assumption)."""
        return cls([])

    @classmethod
    def single(cls, site: int, at: float, recover_at: Optional[float] = None) -> "CrashSchedule":
        """Crash one site at ``at`` (optionally recovering later)."""
        return cls([CrashEvent(time=at, site=site, recover_at=recover_at)])

    def add(self, event: CrashEvent) -> "CrashSchedule":
        """Append a crash event."""
        self.events.append(event)
        return self

    def sites(self) -> set[int]:
        """Sites named by any crash event."""
        return {event.site for event in self.events}

    def validate(self, n_sites: int) -> None:
        """Raise :class:`ValueError` when the schedule cannot run on
        ``n_sites`` sites (unknown site id or a negative event time).

        The single source of truth shared by
        :class:`~repro.protocols.runner.ScenarioSpec` and
        :class:`~repro.txn.runner.ThroughputSpec` validation and, through
        :meth:`FaultPlan.validate`, the CLI's ``--faults crash=`` checks, so
        all of them reject the same inputs at construction, never mid-run.
        """
        out_of_range = sorted(
            site for site in self.sites() if not 1 <= site <= n_sites
        )
        if out_of_range:
            raise ValueError(
                f"crash schedule names site(s) {out_of_range} outside 1..{n_sites}"
            )
        past = sorted(event.time for event in self if event.time < 0)
        if past:
            raise ValueError(
                f"crash schedule contains negative event time(s) {past}"
            )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(sorted(self.events, key=lambda e: e.time))


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkFault:
    """Stochastic faults on one directed link (``0`` wildcards a side).

    Attributes:
        src / dst: affected source / destination site (``0`` = any site).
        loss: probability a matching message is silently lost.
        duplicate: probability a matching message is delivered twice.
        reorder: probability a matching message is delayed by an extra
            ``uniform(0, reorder_window * T)``, letting later sends overtake
            it (bounded reordering).
        reorder_window: reorder delay bound, in units of ``T``.
    """

    src: int = 0
    dst: int = 0
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_window: float = 1.0

    def __post_init__(self) -> None:
        _check_probability("loss", self.loss)
        _check_probability("duplicate", self.duplicate)
        _check_probability("reorder", self.reorder)
        if self.reorder_window <= 0:
            raise ValueError(
                f"reorder_window must be positive, got {self.reorder_window}"
            )

    def matches(self, source: int, destination: int) -> bool:
        """True when this fault applies to a ``source -> destination`` send."""
        return (self.src in (0, source)) and (self.dst in (0, destination))


@dataclass(frozen=True)
class OmissionFault:
    """A site that silently omits sends or receives.

    A send-omission site "sends" messages that never enter the network; a
    receive-omission site never sees matching deliveries.  Either way the
    peer observes pure silence (no bounce), unlike a partition under the
    optimistic model.
    """

    site: int
    kind: str = SEND_OMISSION
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in OMISSION_KINDS:
            raise ValueError(
                f"omission kind must be one of {OMISSION_KINDS}, got {self.kind!r}"
            )
        _check_probability("probability", self.probability)
        if self.site < 1:
            raise ValueError(f"omission site must be >= 1, got {self.site}")


@dataclass(frozen=True)
class ByzantineSpec:
    """A participant that misbehaves at the protocol layer.

    Modes:
        ``"equivocate"``: the site tells different peers different things --
        vote/ack messages flip content per destination, and decision
        broadcasts alternate commit/abort across destinations (the classic
        atomicity attack).
        ``"arbitrary"``: every outgoing protocol message is run through a
        seeded mutation (kind rewrite, drop, or pass-through), modelling a
        site whose FSA takes arbitrary transitions.
    """

    site: int
    mode: str = EQUIVOCATE

    def __post_init__(self) -> None:
        if self.mode not in BYZANTINE_MODES:
            raise ValueError(
                f"byzantine mode must be one of {BYZANTINE_MODES}, got {self.mode!r}"
            )
        if self.site < 1:
            raise ValueError(f"byzantine site must be >= 1, got {self.site}")


@dataclass(frozen=True)
class RetransmitPolicy:
    """At-least-once delivery: seeded-backoff retransmit + receiver dedup.

    A sender keeps retransmitting a message (every ``interval * T``, plus a
    small seeded jitter) until it sees the receiver's ack or exhausts
    ``max_attempts``; receivers acknowledge every copy and deliver only the
    first (dedup by message id).  With loss probability ``p`` per copy the
    residual failure probability is ``p ** (max_attempts + 1)`` -- the layer
    restores the paper's assumption 1 up to that vanishing term.
    """

    max_attempts: int = 6
    interval: float = 0.8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")


@dataclass(frozen=True)
class FaultPlan:
    """The unified fault specification: one frozen, stably-hashable value.

    Bundles the crash schedule with the message-level faults and the
    retransmission policy so every spec kind (scenario, throughput,
    modelcheck) threads faults through a single field instead of three
    parallel plumbing paths.  ``FaultPlan.none()`` is the identity: specs
    normalize it away so fault-free runs hash -- and execute -- exactly as
    before the API existed.
    """

    crashes: tuple[CrashEvent, ...] = ()
    links: tuple[LinkFault, ...] = ()
    omissions: tuple[OmissionFault, ...] = ()
    byzantine: tuple[ByzantineSpec, ...] = ()
    retransmit: Optional[RetransmitPolicy] = None
    seed: int = 0

    def __post_init__(self) -> None:
        # Normalize list inputs so equal plans are equal values.
        for name in ("crashes", "links", "omissions", "byzantine"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        duplicated = sorted(
            {b.site for b in self.byzantine}
            & {e.site for e in self.crashes}
        )
        if duplicated:
            raise ValueError(
                f"site(s) {duplicated} cannot be both Byzantine and crashed"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (reliable delivery, no crashes)."""
        return cls()

    @classmethod
    def lossy(
        cls,
        probability: float,
        *,
        retransmit: Optional[RetransmitPolicy] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Uniform message loss on every link."""
        return cls(
            links=(LinkFault(loss=probability),),
            retransmit=retransmit,
            seed=seed,
        )

    @classmethod
    def duplicating(cls, probability: float, *, seed: int = 0) -> "FaultPlan":
        """Uniform message duplication on every link."""
        return cls(links=(LinkFault(duplicate=probability),), seed=seed)

    @classmethod
    def reordering(
        cls, probability: float, *, window: float = 1.0, seed: int = 0
    ) -> "FaultPlan":
        """Uniform bounded reordering on every link."""
        return cls(
            links=(LinkFault(reorder=probability, reorder_window=window),),
            seed=seed,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def is_none(self) -> bool:
        """True for the identity plan (no faults, no retransmission)."""
        return (
            not self.crashes
            and not self.links
            and not self.omissions
            and not self.byzantine
            and self.retransmit is None
        )

    @property
    def has_message_faults(self) -> bool:
        """True when the network needs the message-fault layer installed."""
        return bool(self.links or self.omissions or self.retransmit is not None)

    def byzantine_sites(self) -> frozenset[int]:
        """Sites configured to misbehave."""
        return frozenset(b.site for b in self.byzantine)

    def fault_classes(self) -> tuple[str, ...]:
        """The fault-class labels this plan exercises (sorted, for reports)."""
        classes: set[str] = set()
        if self.crashes:
            classes.add("crash")
        for link in self.links:
            if link.loss:
                classes.add("loss")
            if link.duplicate:
                classes.add("duplicate")
            if link.reorder:
                classes.add("reorder")
        for omission in self.omissions:
            classes.add(f"{omission.kind}-omission")
        if self.byzantine:
            classes.add("byzantine")
        return tuple(sorted(classes))

    def crash_schedule(self) -> CrashSchedule:
        """The plan's crashes as a legacy :class:`CrashSchedule`."""
        return CrashSchedule(list(self.crashes))

    def effective_max_delay(self, max_delay: float) -> float:
        """The delivery bound ``T'`` once retransmission is in force.

        Protocol timeouts are multiples of the longest end-to-end delay; a
        retransmitted message can take up to the full retry budget before
        its first surviving copy lands, so timers must stretch with it.
        Reordering likewise inflates the bound by its window.
        """
        bound = max_delay
        window = max(
            (link.reorder_window for link in self.links if link.reorder),
            default=0.0,
        )
        bound += window * max_delay
        if self.retransmit is not None:
            bound += (
                self.retransmit.max_attempts * self.retransmit.interval * max_delay
            )
        return bound

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, n_sites: int) -> None:
        """Reject plans naming sites outside ``1..n_sites``."""
        self.crash_schedule().validate(n_sites)
        bad_links = sorted(
            site
            for link in self.links
            for site in (link.src, link.dst)
            if site != 0 and not 1 <= site <= n_sites
        )
        if bad_links:
            raise ValueError(
                f"fault plan names link site(s) {bad_links} outside 1..{n_sites}"
            )
        bad_sites = sorted(
            site
            for site in (
                [o.site for o in self.omissions]
                + [b.site for b in self.byzantine]
            )
            if not 1 <= site <= n_sites
        )
        if bad_sites:
            raise ValueError(
                f"fault plan names site(s) {bad_sites} outside 1..{n_sites}"
            )


def normalize_fault_plan(plan: Optional["FaultPlan"]) -> Optional["FaultPlan"]:
    """Collapse the identity plan to ``None``.

    Specs store ``None`` for "no faults" so their canonical hash -- and every
    golden table, cache key and sealed shard record derived from it -- is
    byte-identical to the pre-FaultPlan format.
    """
    if plan is not None and plan.is_none():
        return None
    return plan


class FailureInjector:
    """Schedules crash / recovery events against registered nodes."""

    def __init__(self, sim: Simulator, nodes: Iterable[Node]) -> None:
        self.sim = sim
        self._nodes = {node.node_id: node for node in nodes}

    def apply(self, schedule: CrashSchedule) -> None:
        """Install every crash (and recovery) in ``schedule``."""
        for event in schedule:
            node = self._nodes.get(event.site)
            if node is None:
                raise KeyError(f"cannot crash unknown site {event.site}")
            self.sim.schedule_at(event.time, node.crash)
            if event.recover_at is not None:
                self.sim.schedule_at(event.recover_at, node.recover)
