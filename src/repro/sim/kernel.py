"""Deterministic discrete-event simulation kernel.

The kernel is intentionally small: an event heap, a clock, and helpers for
scheduling.  Determinism is the load-bearing property -- the reproduction of
Theorem 9 and the Section 6 case table sweeps thousands of partition
placements and asserts exact worst-case bounds, which is only meaningful if a
given configuration always produces the same execution.

The hot-path representation (this is the innermost loop of every sweep):

* the heap holds flat ``(time, priority, sequence, event)`` tuples, so
  ordering is a C-speed tuple comparison that never reaches the event object;
* sequence numbers come from a per-``Simulator`` counter, so two simulators
  in one process cannot perturb each other's event order and a run's
  execution is a function of its own schedule alone;
* cancelled events are skipped when popped ("lazy deletion") and counted,
  and when they outnumber the live entries the heap is compacted in place --
  re-armed timers therefore cannot bloat the heap across a long run;
* ``peek_time``/``pending`` are O(1) amortized: popped-cancelled-head
  cleanup plus the live counter, never a scan or sort.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Iterable, Optional

from repro.sim.clock import Clock
from repro.sim.events import Event, EventKind

#: Compaction threshold: rebuild the heap once more than this many cancelled
#: entries are queued *and* they outnumber the live entries.  Small enough to
#: bound memory on timer-churn-heavy workloads, large enough that short runs
#: never pay a rebuild.
_COMPACT_MIN_CANCELLED = 64

#: Observability hook, installed by :func:`repro.obs.metrics.set_active`
#: (the kernel stays import-free of the obs layer).  Called once per
#: :meth:`Simulator.run` return with that run's deltas -- counters only,
#: gated exactly like the ``_tracing`` flags: when no registry is active
#: the hook is ``None`` and the cost is one ``is None`` check per run()
#: call, never per event.
_METRICS_HOOK: Optional[Callable[[int, int, int, int], None]] = None


def set_metrics_hook(
    hook: Optional[Callable[[int, int, int, int], None]]
) -> None:
    """Install (or clear, with ``None``) the per-run metrics callback.

    The hook receives ``(scheduled, executed, cancelled, compactions)``
    deltas of one :meth:`Simulator.run` call.
    """
    global _METRICS_HOOK
    _METRICS_HOOK = hook


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


class Simulator:
    """Event-driven simulator with deterministic tie-breaking.

    Args:
        seed: seed for the simulator-owned random number generator.  All
            stochastic components (latency models, workload generators) must
            draw from :attr:`rng` so that a run is reproducible from
            ``(configuration, seed)`` alone.
        start_time: initial clock value.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = Clock(start_time)
        self.seed = seed
        # Seeding a Mersenne Twister costs several microseconds -- real money
        # when a sweep builds one Simulator per scenario and deterministic
        # latency models never draw from it -- so the generator is built on
        # first access.
        self._rng: Optional[random.Random] = None
        # Heap of (time, priority, sequence, Event); the unique sequence
        # guarantees the comparison never falls through to the Event.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._cancelled_in_heap = 0
        self._cancelled_total = 0
        self._compactions = 0
        self._stopped = False
        self._events_executed = 0
        # High-water marks of what the metrics hook has already reported,
        # so schedules/cancellations between run() calls (arrivals queued
        # before the run, cross-run cancellations) are never lost.
        self._reported_sequence = 0
        self._reported_cancelled = 0
        self._reported_compactions = 0

    @property
    def rng(self) -> random.Random:
        """The simulator-owned random number generator (built lazily)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far."""
        return self._events_executed

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        *,
        kind: EventKind = EventKind.GENERIC,
        label: str = "",
        priority: int = 0,
        arg: Any = None,
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now.

        ``arg`` (when not ``None``) is passed to ``action`` at fire time;
        hot callers pass a bound method plus its argument instead of
        allocating a closure per event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past: delay={delay}")
        return self._push(self.clock._now + delay, action, kind, label, priority, arg)

    def schedule_at(
        self,
        when: float,
        action: Callable[..., Any],
        *,
        kind: EventKind = EventKind.GENERIC,
        label: str = "",
        priority: int = 0,
        arg: Any = None,
    ) -> Event:
        """Schedule ``action`` to run at absolute time ``when``."""
        if when < self.clock._now:
            raise SimulationError(
                f"cannot schedule an event in the past: now={self.now}, when={when}"
            )
        return self._push(when, action, kind, label, priority, arg)

    def _push(
        self,
        when: float,
        action: Callable[..., Any],
        kind: EventKind,
        label: str,
        priority: int,
        arg: Any,
    ) -> Event:
        sequence = self._sequence
        self._sequence = sequence + 1
        # Positional construction: this is the hottest allocation in a sweep.
        event = Event(when, priority, sequence, kind, action, label, False, arg, self)
        event._queued = True
        heapq.heappush(self._heap, (when, priority, sequence, event))
        return event

    # ------------------------------------------------------------------
    # cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event is still queued."""
        self._cancelled_total += 1
        count = self._cancelled_in_heap = self._cancelled_in_heap + 1
        if count > _COMPACT_MIN_CANCELLED and count * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (in place: aliases survive)."""
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that the run loop stop after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty.

        O(1) amortized: cancelled heads are popped (each such pop is paid
        for by the cancellation that created it) and then the heap root is
        inspected directly.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3]._queued = False
            self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    def step(self) -> Optional[Event]:
        """Execute the next live event and return it (``None`` if none left)."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            event._queued = False
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self.clock.advance_to(event.time)
            self._events_executed += 1
            event.fire()
            return event
        return None

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the event queue drains, ``until`` is reached, or stopped.

        Args:
            until: inclusive time horizon.  Events scheduled strictly after
                ``until`` are left in the queue.
            max_events: safety valve against runaway protocols; raises
                :class:`SimulationError` *before* executing event
                ``max_events + 1``, so exactly ``max_events`` events run.

        Returns:
            The simulated time at which the run loop stopped.
        """
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        executed = 0
        # `heap` stays valid across event actions: compaction mutates the
        # list in place and nothing else rebinds self._heap.
        while heap and not self._stopped:
            # Peek the next live event without executing it yet so that we
            # can honour the `until` horizon exactly.
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heappop(heap)
                event._queued = False
                self._cancelled_in_heap -= 1
                continue
            when = entry[0]
            if until is not None and when > until:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a protocol livelock"
                )
            heappop(heap)
            event._queued = False
            # Heap order makes `when` monotone, so the clock's backwards
            # check is redundant here; assign directly.
            clock._now = when
            self._events_executed += 1
            executed += 1
            action = event.action
            arg = event.arg
            if arg is None:
                action()
            else:
                action(arg)
        if until is not None and clock._now < until and not self._stopped:
            clock._now = float(until)
        if _METRICS_HOOK is not None:
            # Deltas since the last report (or simulator creation), so
            # events scheduled/cancelled outside the run loop still count.
            _METRICS_HOOK(
                self._sequence - self._reported_sequence,
                executed,
                self._cancelled_total - self._reported_cancelled,
                self._compactions - self._reported_compactions,
            )
            self._reported_sequence = self._sequence
            self._reported_cancelled = self._cancelled_total
            self._reported_compactions = self._compactions
        return clock._now

    def run_until_quiescent(self, *, max_events: int = 1_000_000) -> float:
        """Run until no events remain (with a safety cap)."""
        return self.run(until=None, max_events=max_events)

    def drain(self) -> Iterable[Event]:
        """Remove and return all still-queued live events.

        Queued events hold actions bound to the objects that scheduled them,
        which hold this simulator; :meth:`repro.sim.cluster.Cluster.close`
        drains the heap to break that cycle once a run is over.
        """
        events = [entry[3] for entry in self._heap if not entry[3].cancelled]
        for entry in self._heap:
            entry[3]._queued = False
        self._heap.clear()
        self._cancelled_in_heap = 0
        return events
