"""Structured execution traces.

Every interesting occurrence in a run -- sends, deliveries, bounces, timer
fires, state transitions, decisions, crashes -- is appended to a
:class:`Trace`.  The analysis layer (atomicity checking, blocking detection,
timing-bound measurement) works exclusively from traces, which keeps protocol
code free of measurement concerns.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional


class TraceRecord:
    """One trace entry.

    A ``__slots__`` record rather than a dataclass: traces are written on
    every send/deliver/transition of every simulated run, so construction
    cost is on the sweep hot path.

    Attributes:
        time: simulated time of the occurrence.
        category: coarse label, e.g. ``"send"``, ``"deliver"``, ``"bounce"``,
            ``"timeout"``, ``"transition"``, ``"decision"``, ``"partition"``.
        site: site id the record concerns, or ``None`` for network-wide events.
        detail: free-form payload describing the occurrence.
    """

    __slots__ = ("time", "category", "site", "detail")

    def __init__(
        self,
        time: float,
        category: str,
        site: Optional[int] = None,
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.category = category
        self.site = site
        self.detail = {} if detail is None else detail

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into :attr:`detail`."""
        return self.detail.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.site == other.site
            and self.detail == other.detail
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecord(time={self.time}, category={self.category!r}, "
            f"site={self.site}, detail={self.detail!r})"
        )


class Trace:
    """An append-only list of :class:`TraceRecord` with query helpers."""

    #: Writers on hot paths (network, node) consult this flag to skip the
    #: record *and* the cost of building its detail payload; see
    #: :class:`NullTrace`.
    enabled = True

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []
        self._append = self._records.append

    def record(
        self,
        time: float,
        category: str,
        site: Optional[int] = None,
        **detail: Any,
    ) -> TraceRecord:
        """Append a record and return it."""
        entry = TraceRecord(time, category, site, detail)
        self._append(entry)
        return entry

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(self) -> tuple[TraceRecord, ...]:
        """All records in chronological (append) order."""
        return tuple(self._records)

    def filter(
        self,
        category: Optional[str] = None,
        site: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Records matching all the provided criteria."""
        result = []
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if site is not None and record.site != site:
                continue
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result

    def first(
        self,
        category: Optional[str] = None,
        site: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> Optional[TraceRecord]:
        """Earliest matching record or ``None``."""
        matches = self.filter(category=category, site=site, predicate=predicate)
        return matches[0] if matches else None

    def last(
        self,
        category: Optional[str] = None,
        site: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> Optional[TraceRecord]:
        """Latest matching record or ``None``."""
        matches = self.filter(category=category, site=site, predicate=predicate)
        return matches[-1] if matches else None

    def count(self, category: str, **match: Any) -> int:
        """Number of records in ``category`` whose detail matches ``match``."""
        total = 0
        for record in self._records:
            if record.category != category:
                continue
            if all(record.detail.get(key) == value for key, value in match.items()):
                total += 1
        return total

    def categories(self) -> set[str]:
        """Set of categories present in the trace."""
        return {record.category for record in self._records}

    def merge(self, others: Iterable["Trace"]) -> "Trace":
        """Return a new trace containing this trace's and ``others``' records."""
        merged = Trace()
        records = list(self._records)
        for other in others:
            records.extend(other.records())
        records.sort(key=lambda r: r.time)
        # Extend rather than rebind: the bound-append fast path must keep
        # pointing at the live list.
        merged._records.extend(records)
        return merged


class NullTrace(Trace):
    """A trace that records nothing.

    Used by the sweep engine: a
    :class:`~repro.engine.summary.RunSummary` is computed entirely from
    protocol-role and database state, so the per-run trace is write-only
    ballast.  Substituting a ``NullTrace`` (and having the hot writers check
    :attr:`enabled` before building record payloads) removes that cost
    without touching scheduling -- the event sequence, and therefore every
    summary, is byte-for-byte identical either way.
    """

    enabled = False

    def record(
        self,
        time: float,
        category: str,
        site: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Discard the record (writers may also skip the call entirely)."""
        return None
