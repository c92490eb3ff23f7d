"""In-memory versioned key-value store.

The store keeps, for every key, the committed value plus the history of
versions that produced it.  Updates are applied through :meth:`KeyValueStore.apply`,
which is *idempotent* with respect to a transaction id: applying the same
transaction's writes twice leaves the store unchanged.  Idempotence is the
property Section 2 of the paper relies on for single-site crash recovery
("performing them several times is equivalent to performing them once").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a key."""

    key: str
    value: Any
    transaction_id: str
    sequence: int


class KeyValueStore:
    """A single site's committed database state."""

    def __init__(self, initial: Optional[Mapping[str, Any]] = None) -> None:
        self._values: dict[str, Any] = {}
        self._history: dict[str, list[Version]] = {}
        self._applied_transactions: set[str] = set()
        self._sequence = 0
        if initial:
            for key, value in initial.items():
                self._install(key, value, transaction_id="__initial__")
            self._applied_transactions.discard("__initial__")

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Committed value of ``key`` (or ``default``)."""
        return self._values.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def keys(self) -> list[str]:
        """All keys with a committed value, sorted."""
        return sorted(self._values)

    def snapshot(self) -> dict[str, Any]:
        """A copy of the committed state (used by consistency checks)."""
        return dict(self._values)

    def history(self, key: str) -> tuple[Version, ...]:
        """Committed versions of ``key``, oldest first."""
        return tuple(self._history.get(key, ()))

    def applied(self, transaction_id: str) -> bool:
        """True when the writes of ``transaction_id`` have been applied."""
        return transaction_id in self._applied_transactions

    @property
    def applied_transactions(self) -> frozenset[str]:
        """Ids of all transactions whose writes have been applied."""
        return frozenset(self._applied_transactions)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply(self, transaction_id: str, writes: Mapping[str, Any]) -> bool:
        """Apply ``writes`` on behalf of ``transaction_id``.

        Returns ``True`` if the writes were applied, ``False`` if they had
        already been applied earlier (the idempotent no-op path taken when a
        recovering site redoes its log).
        """
        if transaction_id in self._applied_transactions:
            return False
        for key, value in sorted(writes.items()):
            self._install(key, value, transaction_id=transaction_id)
        self._applied_transactions.add(transaction_id)
        return True

    def _install(self, key: str, value: Any, *, transaction_id: str) -> None:
        self._sequence += 1
        version = Version(
            key=key, value=value, transaction_id=transaction_id, sequence=self._sequence
        )
        self._values[key] = value
        self._history.setdefault(key, []).append(version)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def same_contents(self, other: "KeyValueStore", keys: Optional[Iterable[str]] = None) -> bool:
        """True when this store and ``other`` agree on ``keys`` (or on everything)."""
        if keys is None:
            return self.snapshot() == other.snapshot()
        return all(self.get(key) == other.get(key) for key in keys)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyValueStore(keys={len(self._values)}, applied={len(self._applied_transactions)})"
