"""Shared machinery for the timed commit-protocol roles.

A *role* is the protocol logic attached to one simulated site for one
transaction.  Roles are built from a :class:`ProtocolContext` (node, database
site, transaction, timers, scenario knobs) by a :class:`ProtocolDefinition`.
The :class:`RoleBase` class provides the behaviour every role shares:
recording state transitions, reaching (at most one) local decision, applying
it to the database site, and broadcasting decisions when asked to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Optional, Protocol as TypingProtocol

from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite
from repro.db.transactions import Transaction
from repro.sim.network import Undeliverable
from repro.sim.node import Node


class Decision(enum.Enum):
    """A site's local termination decision."""

    COMMIT = "commit"
    ABORT = "abort"


class ProtocolMessage:
    """A commit-protocol message exchanged between sites.

    A ``__slots__`` record (one is allocated per send, which makes this the
    most-constructed protocol object in a sweep).

    Attributes:
        kind: message kind (see :mod:`repro.core.messages`).
        transaction_id: the transaction this message belongs to.
        sender: sending site.
        payload: optional extra content (the transaction for ``xact``
            messages, the probing slave's id for ``probe`` messages, ...).
    """

    __slots__ = ("kind", "transaction_id", "sender", "payload")

    def __init__(
        self,
        kind: str,
        transaction_id: str,
        sender: int,
        payload: Any = None,
    ) -> None:
        self.kind = kind
        self.transaction_id = transaction_id
        self.sender = sender
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProtocolMessage):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.transaction_id == other.transaction_id
            and self.sender == other.sender
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.transaction_id, self.sender))

    def __str__(self) -> str:
        return f"{self.kind}({self.transaction_id})@{self.sender}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProtocolMessage(kind={self.kind!r}, "
            f"transaction_id={self.transaction_id!r}, sender={self.sender}, "
            f"payload={self.payload!r})"
        )


@dataclass
class ProtocolContext:
    """Everything a role needs about its environment.

    Attributes:
        node: the simulated site the role runs on.
        db: the site's database machinery.
        transaction: the transaction being committed.
        participants: all participating sites (master included).
        master: the coordinating site.
        timers: the timeout structure (multiples of ``T``).
        no_voters: sites scripted to vote "no" (scenario knob).
    """

    node: Node
    db: DatabaseSite
    transaction: Transaction
    participants: tuple[int, ...]
    master: int
    timers: TerminationTimers
    no_voters: frozenset[int] = frozenset()

    @property
    def site(self) -> int:
        """The site this context belongs to."""
        return self.node.node_id

    @cached_property
    def slaves(self) -> tuple[int, ...]:
        """Participants other than the master (cached; both are immutable)."""
        return tuple(s for s in self.participants if s != self.master)

    @cached_property
    def others(self) -> tuple[int, ...]:
        """Participants other than this site (cached; both are immutable)."""
        return tuple(s for s in self.participants if s != self.site)

    @property
    def max_delay(self) -> float:
        """The paper's ``T``."""
        return self.timers.max_delay

    @property
    def is_master(self) -> bool:
        """True when this context belongs to the coordinating site."""
        return self.site == self.master


class RoleBase:
    """Common behaviour of all coordinator / participant roles."""

    def __init__(self, ctx: ProtocolContext, *, initial_state: str) -> None:
        self.ctx = ctx
        self.node = ctx.node
        self.db = ctx.db
        # Hot identity lookups, resolved once: the property chains
        # (ctx.node.node_id, ctx.transaction.transaction_id, node.sim) are
        # walked on every message/transition otherwise.
        self.site = ctx.node.node_id
        self.transaction_id = ctx.transaction.transaction_id
        self._sim = ctx.node.sim
        # Mirrors Node._tracing: skips building the note() kwargs entirely
        # on the engine's trace-free path.
        self._tracing = ctx.node._tracing
        self.state = initial_state
        self.decision: Optional[Decision] = None
        self.decided_at: Optional[float] = None
        self.vote: Optional[str] = None
        self.conflicting_decisions = 0
        #: Observers called once, with (role, decision), when the role
        #: reaches its first (and only effective) local decision.  The
        #: concurrent-transaction scheduler uses this to track completion
        #: without polling; single-transaction runs leave it empty.
        self.decision_listeners: list[Any] = []
        self.node.attach(self)

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    @property
    def transaction(self) -> Transaction:
        """The transaction being terminated."""
        return self.ctx.transaction

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._sim.clock._now

    @property
    def decided(self) -> bool:
        """True once this site has reached its local decision."""
        return self.decision is not None

    # ------------------------------------------------------------------
    # state transitions and decisions
    # ------------------------------------------------------------------
    def transition(self, new_state: str, *, reason: str = "") -> None:
        """Move to ``new_state`` and record it in the trace."""
        previous = self.state
        self.state = new_state
        if self._tracing:
            self.node.note(
                "transition",
                transaction=self.transaction_id,
                source=previous,
                target=new_state,
                reason=reason,
            )

    def decide(self, decision: Decision, *, reason: str = "") -> None:
        """Reach the local decision ``decision`` (idempotent, first one wins).

        A second, *different* decision is recorded as a conflicting-decision
        trace event and otherwise ignored; the atomicity checker works from
        each site's first decision, and the cross-site inconsistency is what
        the negative experiments measure.
        """
        if self.decision is not None:
            if self.decision is not decision:
                self.conflicting_decisions += 1
                if self._tracing:
                    self.node.note(
                        "conflicting-decision",
                        transaction=self.transaction_id,
                        first=self.decision.value,
                        second=decision.value,
                        reason=reason,
                    )
            return
        self.decision = decision
        self.decided_at = self.now
        if decision is Decision.COMMIT:
            self.db.commit(self.transaction_id, now=self.now)
        else:
            self.db.abort(self.transaction_id, now=self.now)
        self.node.cancel_all_timers()
        if self._tracing:
            self.node.note(
                "decision",
                transaction=self.transaction_id,
                outcome=decision.value,
                state=self.state,
                reason=reason,
            )
        for listener in list(self.decision_listeners):
            listener(self, decision)

    # ------------------------------------------------------------------
    # voting
    # ------------------------------------------------------------------
    def cast_vote(self) -> str:
        """Execute the transaction locally and produce this site's vote."""
        if self.site in self.ctx.no_voters:
            self.vote = "no"
            if self._tracing:
                self.node.note("vote", transaction=self.transaction_id, vote="no", forced=True)
            return "no"
        self.vote = self.db.execute(self.transaction, now=self.now)
        if self._tracing:
            self.node.note("vote", transaction=self.transaction_id, vote=self.vote, forced=False)
        return self.vote

    # ------------------------------------------------------------------
    # messaging helpers
    # ------------------------------------------------------------------
    def send(self, destination: int, kind: str, payload: Any = None) -> None:
        """Send a protocol message to ``destination``."""
        self.node.send(
            destination, ProtocolMessage(kind, self.transaction_id, self.site, payload)
        )

    def broadcast(self, destinations: Iterable[int], kind: str, payload: Any = None) -> None:
        """Send the same protocol message to several sites."""
        for destination in destinations:
            self.send(destination, kind, payload)

    def broadcast_decision(self, decision: Decision) -> None:
        """Send the final decision to every other participant."""
        kind = "commit" if decision is Decision.COMMIT else "abort"
        self.broadcast(self.ctx.others, kind)

    # ------------------------------------------------------------------
    # default hooks (overridden by concrete roles)
    # ------------------------------------------------------------------
    def on_start(self) -> None:  # pragma: no cover - overridden
        """Hook invoked when the simulation starts."""

    def on_message(self, payload: Any, envelope: Any) -> None:  # pragma: no cover
        """Hook invoked for every delivery (including bounces)."""

    def on_timeout(self, timer: Any) -> None:  # pragma: no cover
        """Hook invoked when one of the site's timers fires."""

    # ------------------------------------------------------------------
    # payload helpers
    # ------------------------------------------------------------------
    def unwrap(self, payload: Any) -> tuple[Optional[ProtocolMessage], bool]:
        """Return ``(protocol message, was_undeliverable)`` for a delivery.

        Messages belonging to other transactions return ``(None, ...)`` and
        are ignored by the roles.
        """
        # Exact-type fast paths first; the isinstance fallbacks keep
        # subclasses working.
        tp = type(payload)
        undeliverable = tp is Undeliverable or (
            tp is not ProtocolMessage and isinstance(payload, Undeliverable)
        )
        inner = payload.payload if undeliverable else payload
        if type(inner) is not ProtocolMessage and not isinstance(inner, ProtocolMessage):
            return None, undeliverable
        if inner.transaction_id != self.transaction_id:
            return None, undeliverable
        return inner, undeliverable


class ProtocolDefinition(TypingProtocol):
    """Factory interface every protocol module implements."""

    name: str

    def coordinator(self, ctx: ProtocolContext) -> RoleBase:  # pragma: no cover
        """Build the master role."""

    def participant(self, ctx: ProtocolContext) -> RoleBase:  # pragma: no cover
        """Build a slave role."""
