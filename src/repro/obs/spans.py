"""Nested phase spans on the monotonic clock, exportable as NDJSON.

Where :mod:`repro.obs.metrics` answers "how much / how many", spans answer
"*when*, and inside *what*": every engine phase -- grid build, dispatch,
worker execute, summary decode, cache store, spill, merge -- opens a span,
and nesting is tracked so a trace viewer can reconstruct the phase tree of
a run.

Design constraints, mirroring the metrics layer:

* **monotonic clock** (:func:`time.perf_counter`) -- wall-clock
  adjustments can never produce negative durations;
* **out-of-band** -- spans never touch summary bytes or cache files;
* **zero cost when off** -- the engine holds ``spans=None`` by default
  and every call site is gated on one ``is not None`` check;
  :class:`NullSpanRecorder` exists for call sites that want an
  unconditional recorder object.

Span times are recorded relative to the recorder's creation, so NDJSON
exports from one process share one time base.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Union

from repro.core.canonical import canonical_json_bytes


class Span:
    """One completed (or still-open) phase interval."""

    __slots__ = ("name", "index", "parent", "depth", "start", "end", "attrs")

    def __init__(
        self,
        name: str,
        index: int,
        parent: Optional[int],
        depth: int,
        start: float,
        attrs: Optional[dict[str, Any]],
    ) -> None:
        self.name = name
        self.index = index
        self.parent = parent
        self.depth = depth
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Seconds from open to close (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_json_dict(self) -> dict[str, Any]:
        """The span's NDJSON payload."""
        payload: dict[str, Any] = {
            "span": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start": round(self.start, 9),
            "end": round(self.end, 9) if self.end is not None else None,
            "duration": round(self.duration, 9),
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


class SpanRecorder:
    """Records a tree of phase spans against the monotonic clock."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span named ``name`` for the duration of the ``with`` body.

        Spans opened inside the body become children (``parent`` index,
        ``depth + 1``), so the recorder captures the phase tree, not just
        a flat list of intervals.
        """
        parent = self._stack[-1] if self._stack else None
        entry = Span(
            name,
            index=len(self._spans),
            parent=parent.index if parent is not None else None,
            depth=len(self._stack),
            start=time.perf_counter() - self._origin,
            attrs=attrs or None,
        )
        self._spans.append(entry)
        self._stack.append(entry)
        try:
            yield entry
        finally:
            entry.end = time.perf_counter() - self._origin
            self._stack.pop()

    def record_interval(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> Span:
        """Record an already-timed interval (absolute perf-counter values).

        Used for work measured elsewhere -- e.g. a worker process's chunk
        execution, whose start/end the parent learns from the result
        frame.  The interval is parented under the currently open span.
        """
        parent = self._stack[-1] if self._stack else None
        entry = Span(
            name,
            index=len(self._spans),
            parent=parent.index if parent is not None else None,
            depth=len(self._stack),
            start=start - self._origin,
            attrs=attrs or None,
        )
        entry.end = end - self._origin
        self._spans.append(entry)
        return entry

    # ------------------------------------------------------------------
    # queries and export
    # ------------------------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """Every recorded span, in open order."""
        return tuple(self._spans)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name (open spans count as 0)."""
        totals: dict[str, float] = {}
        for span in self._spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def to_ndjson_bytes(self) -> bytes:
        """One canonical-JSON line per span, in open order."""
        return b"".join(
            canonical_json_bytes(span.to_json_dict()) + b"\n" for span in self._spans
        )

    def write_ndjson(self, path: Union[str, os.PathLike]) -> None:
        """Write the NDJSON export to ``path`` (parents created)."""
        import pathlib

        target = pathlib.Path(path)
        if target.parent != pathlib.Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(self.to_ndjson_bytes())


class NullSpanRecorder(SpanRecorder):
    """A recorder that records nothing (for unconditional call sites)."""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:  # type: ignore[override]
        """Do nothing; the body runs unobserved."""
        yield None

    def record_interval(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> None:  # type: ignore[override]
        """Discard the interval."""
        return None
