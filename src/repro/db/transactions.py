"""Transaction descriptors.

A transaction is a logically atomic set of read/write operations spanning one
or more sites.  The commit protocols only care about which sites participate
and what each site must write if the transaction commits; reads matter for
lock acquisition (a blocked transaction keeps its read locks too, which is
the availability cost the paper's introduction highlights).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Optional


class OpKind(enum.Enum):
    """Kind of a single data operation."""

    READ = "read"
    WRITE = "write"


class TransactionStatus(enum.Enum):
    """Lifecycle of a transaction at one site."""

    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    BLOCKED = "blocked"


@dataclass(frozen=True, slots=True)
class Operation:
    """One read or write against a named key at a specific site."""

    site: int
    kind: OpKind
    key: str
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind is OpKind.READ and self.value is not None:
            raise ValueError("read operations do not carry a value")

    @classmethod
    def read(cls, site: int, key: str) -> "Operation":
        """A read of ``key`` at ``site``."""
        return cls(site=site, kind=OpKind.READ, key=key)

    @classmethod
    def write(cls, site: int, key: str, value: Any) -> "Operation":
        """A write of ``value`` to ``key`` at ``site``."""
        return cls(site=site, kind=OpKind.WRITE, key=key, value=value)


_transaction_counter = itertools.count(1)

#: ``simple_update`` operation tuples, keyed by (participants, key, value).
#: Sweeps build the same one-write-per-site workload for every scenario;
#: Operation is frozen, so sharing the tuple across transactions is safe.
_simple_update_ops: dict[tuple[Any, ...], tuple[Operation, ...]] = {}


@dataclass(slots=True)
class Transaction:
    """A distributed transaction.

    Attributes:
        transaction_id: globally unique identifier (the paper's ``trans_id``).
        master: coordinating site (the paper's site 1).
        operations: the data operations, grouped implicitly by site.
    """

    transaction_id: str
    master: int
    operations: tuple[Operation, ...] = ()
    submitted_at: float = 0.0

    @classmethod
    def create(
        cls,
        master: int,
        operations: Iterable[Operation] = (),
        *,
        transaction_id: Optional[str] = None,
        submitted_at: float = 0.0,
    ) -> "Transaction":
        """Create a transaction, generating an id if none is supplied."""
        if transaction_id is None:
            transaction_id = f"txn-{next(_transaction_counter)}"
        return cls(
            transaction_id=transaction_id,
            master=master,
            operations=tuple(operations),
            submitted_at=submitted_at,
        )

    @classmethod
    def simple_update(
        cls,
        master: int,
        participants: Iterable[int],
        key: str,
        value: Any,
        *,
        transaction_id: Optional[str] = None,
    ) -> "Transaction":
        """A transaction writing ``key = value`` at every participant.

        This is the canonical workload of the paper's experiments: the same
        logical update must be installed at all participating sites or none.
        """
        sites = tuple(sorted(set(participants)))
        try:
            operations = _simple_update_ops.get((sites, key, value))
            if operations is None:
                operations = tuple(Operation.write(site, key, value) for site in sites)
                _simple_update_ops[(sites, key, value)] = operations
        except TypeError:  # unhashable value: build without memoizing
            operations = tuple(Operation.write(site, key, value) for site in sites)
        return cls.create(master, operations, transaction_id=transaction_id)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def participants(self) -> tuple[int, ...]:
        """Sites touched by the transaction (always including the master)."""
        sites = {op.site for op in self.operations}
        sites.add(self.master)
        return tuple(sorted(sites))

    @property
    def slaves(self) -> tuple[int, ...]:
        """Participants other than the master."""
        return tuple(site for site in self.participants if site != self.master)

    def operations_at(self, site: int) -> tuple[Operation, ...]:
        """The operations this transaction performs at ``site``."""
        return tuple(op for op in self.operations if op.site == site)

    def writes_at(self, site: int) -> dict[str, Any]:
        """Key/value pairs this transaction writes at ``site``."""
        return {
            op.key: op.value for op in self.operations if op.site == site and op.kind is OpKind.WRITE
        }

    def read_keys_at(self, site: int) -> tuple[str, ...]:
        """Keys this transaction reads at ``site``."""
        return tuple(
            op.key for op in self.operations if op.site == site and op.kind is OpKind.READ
        )

    def keys_at(self, site: int) -> tuple[str, ...]:
        """All keys (read or written) touched at ``site``."""
        return tuple(sorted({op.key for op in self.operations if op.site == site}))

    def __str__(self) -> str:
        return f"Transaction({self.transaction_id}, master={self.master}, sites={self.participants})"
