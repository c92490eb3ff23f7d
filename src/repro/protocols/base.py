"""The records a commit-protocol role is built from and exchanges.

A *role* is the protocol logic attached to one simulated site for one
transaction (:class:`~repro.protocols.fsa_role.FSARole`).  It is built from a
:class:`ProtocolContext` (node, database site, transaction, timers, scenario
knobs) by :meth:`repro.protocols.registry.Protocol.role`, sends
:class:`ProtocolMessage` records and reaches at most one :class:`Decision`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite
from repro.db.transactions import Transaction
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

    @cached_property
    def others(self) -> tuple[int, ...]:
        """Participants other than this site (cached; both are immutable)."""
        site = self.node.node_id
        return tuple(s for s in self.participants if s != site)
