"""Event representation for the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
assigned at scheduling time by the owning simulator, which makes simultaneous
events execute in the order they were scheduled -- the whole simulation is
therefore a deterministic function of its inputs.

The kernel keeps the ordering key *outside* the event: heap entries are flat
``(time, priority, sequence, event)`` tuples, so heap comparisons are C-speed
tuple comparisons and never call back into Python.  :class:`Event` itself is a
``__slots__`` payload record -- it carries the action to run and cancellation
state, not comparison logic.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Event:
    """A single scheduled occurrence.

    Attributes:
        time: simulated time at which the event fires.
        action: callable executed when the event fires.  Called with
            :attr:`arg` when ``arg`` is not ``None``, otherwise with no
            arguments -- passing a bound method plus an argument avoids a
            closure allocation per scheduled event on the hot paths.
        arg: optional single argument for :attr:`action`.
        cancelled: cancelled events are skipped when popped.
    """

    __slots__ = ("time", "action", "arg", "cancelled", "_sim", "_queued")

    def __init__(
        self,
        time: float,
        action: Callable[..., Any],
        arg: Any = None,
        sim: Optional[Any] = None,
    ) -> None:
        self.time = time
        self.action = action
        self.arg = arg
        self.cancelled = False
        self._sim = sim
        self._queued = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time}, action={self.action!r}, "
            f"cancelled={self.cancelled})"
        )

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be ignored when popped.

        The owning simulator is notified so its live-event accounting (and
        lazy heap compaction) stays exact; cancelling an event that already
        fired or was already cancelled is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None and self._queued:
            sim._note_cancel()

    def fire(self) -> Any:
        """Execute the event's action (the kernel calls this)."""
        arg = self.arg
        if arg is None:
            return self.action()
        return self.action(arg)
