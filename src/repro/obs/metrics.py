"""Mergeable run metrics: counters, gauges and fixed-bucket histograms.

The observability layer's data model is built around one requirement: a
sweep's metrics must aggregate across worker processes, shards and re-runs
**without an ordering contract**.  Every instrument therefore folds into a
snapshot whose merge is *associative and commutative*:

* **counters** add -- order-independent by construction;
* **gauges** are high-watermark gauges: ``set`` tracks the latest value
  locally, but snapshots carry (and merges keep) the *maximum*, the only
  gauge semantics that survives reordering;
* **histograms** have fixed bucket bounds declared at creation; merging
  adds per-bucket counts and keeps min/max, so a merged histogram equals
  the histogram of the concatenated observations.

Snapshots are canonical JSON (sorted keys, compact separators -- the
:mod:`repro.core.canonical` contract), so two registries holding the same
data serialize byte-identically regardless of instrument creation order.

Metrics are **strictly out-of-band**: nothing here touches
:class:`~repro.engine.summary.RunSummary` bytes, cache files or golden
tables.  Enabling metrics must never change a result, only describe the
run that produced it.

Deep layers (the sim kernel, the result cache, the transaction scheduler)
are instrumented against the *active registry*: a module-level slot that
is ``None`` unless a caller opted in via :func:`activate`.  The disabled
path is one ``is None`` check at scenario granularity -- the same pattern
as ``NullTrace`` -- which keeps the metrics-off overhead far below the
3% budget enforced by ``tools/check_overhead.py`` (timed, like every other
number about this layer, by the ledger under ``bench/``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.core.canonical import canonical_json_bytes

#: Snapshot layout version, embedded in every snapshot.
SNAPSHOT_SCHEMA = 1

#: Default histogram bucket upper bounds for durations in seconds
#: (exponential: 1us .. ~16s, plus overflow).
TIME_BUCKETS: tuple[float, ...] = tuple(1e-6 * 4**i for i in range(13))

#: Default buckets for simulated-time waits (in T).
SIM_TIME_BUCKETS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)

#: Default buckets for counts per run (events, states, queue depths).
COUNT_BUCKETS: tuple[float, ...] = tuple(float(4**i) for i in range(12))


class Counter:
    """A monotonically increasing sum (merge: addition)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0 to keep merges monotone)."""
        self.value += amount


class Gauge:
    """A high-watermark gauge (merge: max).

    ``set`` remembers both the latest value (``value``, for local
    inspection) and the maximum ever set (``high``, the merged quantity).
    Only ``high`` enters snapshots: "latest" has no order-independent
    merge, the maximum does.
    """

    __slots__ = ("value", "high")

    def __init__(self) -> None:
        self.value = 0.0
        self.high = 0.0

    def set(self, value: float) -> None:
        """Record the gauge's current value."""
        self.value = value
        if value > self.high:
            self.high = value


class Histogram:
    """A fixed-bucket histogram (merge: per-bucket addition).

    ``bounds`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Two histograms merge only
    when their bounds are identical -- the engine guarantees this by
    creating every histogram through the registry's named defaults.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = TIME_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds!r}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first use (``registry.counter("x").inc()``)
    and snapshot into one canonical-JSON document.  Snapshots from any
    number of registries -- worker processes, shards, earlier runs --
    merge associatively and commutatively via :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = TIME_BUCKETS
    ) -> Histogram:
        """The histogram under ``name`` (created with ``bounds`` on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        return histogram

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The registry's state as a plain, canonically-orderable dict.

        Key order never matters (serialization sorts keys), so snapshots
        of registries built in different instrument orders are
        byte-identical.
        """
        histograms: dict[str, Any] = {}
        for name, histogram in self._histograms.items():
            histograms[name] = {
                "bounds": list(histogram.bounds),
                "counts": list(histogram.counts),
                "count": histogram.count,
                "total": histogram.total,
                "min": histogram.min,
                "max": histogram.max,
            }
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.high for n, g in self._gauges.items()},
            "histograms": histograms,
        }

    def to_json_bytes(self) -> bytes:
        """Canonical JSON bytes of :meth:`snapshot`."""
        return canonical_json_bytes(self.snapshot())

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Addition for counters and histogram buckets, max for gauges:
        associative and commutative, so any merge tree over the same
        snapshots yields the same registry.
        """
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"cannot merge snapshot schema {snapshot.get('schema')!r} "
                f"(this build speaks schema {SNAPSHOT_SCHEMA})"
            )
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if value > gauge.high:
                gauge.high = value
        for name, payload in snapshot.get("histograms", {}).items():
            bounds = tuple(payload["bounds"])
            histogram = self.histogram(name, bounds)
            if histogram.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r} bucket mismatch: "
                    f"{histogram.bounds} vs {bounds}"
                )
            for index, count in enumerate(payload["counts"]):
                histogram.counts[index] += count
            histogram.count += payload["count"]
            histogram.total += payload["total"]
            for attr, pick in (("min", min), ("max", max)):
                theirs = payload.get(attr)
                if theirs is not None:
                    ours = getattr(histogram, attr)
                    setattr(
                        histogram, attr, theirs if ours is None else pick(ours, theirs)
                    )

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """A fresh registry holding exactly ``snapshot``'s data."""
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry


# ----------------------------------------------------------------------
# the active registry (deep-instrumentation opt-in)
# ----------------------------------------------------------------------
_ACTIVE: Optional[MetricsRegistry] = None


def get_active() -> Optional[MetricsRegistry]:
    """The registry deep instrumentation records into (``None`` = off)."""
    return _ACTIVE


def set_active(registry: Optional[MetricsRegistry]) -> None:
    """Install (or clear) the active registry and the kernel's hook."""
    global _ACTIVE
    _ACTIVE = registry
    # The kernel cannot import obs (layering), so obs installs the hook.
    from repro.sim import kernel

    kernel.set_metrics_hook(_kernel_hook if registry is not None else None)


@contextmanager
def activate(
    registry: Optional[MetricsRegistry],
) -> Iterator[Optional[MetricsRegistry]]:
    """Make ``registry`` the active registry for the ``with`` body;
    ``None`` leaves the active registry as it is (metrics off)."""
    if registry is None:
        yield None
        return
    previous = _ACTIVE
    set_active(registry)
    try:
        yield registry
    finally:
        set_active(previous)


def _kernel_hook(scheduled: int, executed: int, cancelled: int, compactions: int) -> None:
    """Fold one kernel run's deltas into the active registry."""
    registry = _ACTIVE
    if registry is None:  # cleared mid-run; nothing to record
        return
    registry.counter("sim.events_scheduled").inc(scheduled)
    registry.counter("sim.events_executed").inc(executed)
    registry.counter("sim.events_cancelled").inc(cancelled)
    registry.counter("sim.heap_compactions").inc(compactions)
