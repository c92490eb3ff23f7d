"""Composable aggregation sinks for constant-memory streaming sweeps.

A sink consumes :class:`~repro.engine.summary.RunSummary` records one at a
time as :meth:`SweepEngine.run_streaming
<repro.engine.engine.SweepEngine.run_streaming>` delivers them, holding only
its aggregate state.  A million-scenario sweep therefore costs O(sinks)
memory instead of a million-element summary list.

Invariants every sink can rely on (and every sink must preserve):

* **Task order.** The engine delivers summaries in task order regardless of
  worker count or completion order, so sink state after a sweep is a pure
  function of the task list -- ``workers=1`` and ``workers=N`` produce
  identical (for :class:`JsonlSink`, byte-identical) aggregates.
* **Exactly once.** Every task index is delivered exactly once, whether the
  summary was executed or served from the result cache.
* **Bounded state.** The built-in sinks keep counts, sums, histograms or an
  explicitly bounded collection -- never the full summary stream (except
  :class:`ListSink`, which exists precisely to materialize small sweeps, and
  :class:`JsonlSink`, which spills to disk).

Paper anchor: the aggregates mirror the Section 2 resilience vocabulary --
atomicity violations, blocking, and the decision-time bounds of Figs. 5-9.
"""

from __future__ import annotations

import math
import os
import pathlib
from typing import IO, Any, Callable, Iterator, Optional, Union

from repro.analysis.atomicity import AtomicityReport
from repro.analysis.blocking import BlockingReport
from repro.engine.summary import RunSummary, summary_from_json_bytes


class SummarySink:
    """Base class for streaming aggregators.

    Subclasses override :meth:`accept`; :meth:`close` is called once after
    the final summary (even on an empty sweep) and may flush buffers.
    """

    def accept(self, index: int, summary: RunSummary) -> None:
        """Fold one summary (delivered in task order) into the aggregate."""
        raise NotImplementedError

    def close(self) -> None:
        """Finalize the aggregate after the last summary."""


class CallbackSink(SummarySink):
    """Adapts a plain ``fn(index, summary)`` callable into a sink."""

    def __init__(self, fn: Callable[[int, RunSummary], None]) -> None:
        self.fn = fn

    def accept(self, index: int, summary: RunSummary) -> None:
        self.fn(index, summary)


class ListSink(SummarySink):
    """Materializes the summary stream (what ``SweepEngine.run`` returns).

    Deliberately O(n): use it only when the sweep is small enough to hold,
    or in tests that need every summary.
    """

    def __init__(self) -> None:
        self.summaries: list[RunSummary] = []

    def accept(self, index: int, summary: RunSummary) -> None:
        self.summaries.append(summary)


class VerdictCounterSink(SummarySink):
    """Per-protocol counts of the Section 2 verdict classes.

    Folds one :class:`~repro.analysis.atomicity.AtomicityReport` per
    protocol seen (``reports``, in first-seen order); :meth:`rows` renders
    the columns of the ``repro sweep`` table from them, in O(protocols)
    memory.  No witnesses are kept.
    """

    def __init__(self) -> None:
        self.reports: dict[str, AtomicityReport] = {}

    def accept(self, index: int, summary: RunSummary) -> None:
        report = self.reports.get(summary.protocol)
        if report is None:
            report = self.reports[summary.protocol] = AtomicityReport(summary.protocol)
        report.observe(summary, max_witnesses=0)

    def rows(self) -> list[dict[str, Any]]:
        """One table row per protocol, in first-seen (= task) order."""
        return [
            {
                "protocol": protocol,
                "scenarios": report.total_runs,
                "violations": report.atomicity_violations,
                "blocked": report.blocked_runs,
                "committed": report.committed_runs,
                "aborted": report.aborted_runs,
                "resilient": "yes" if report.resilient else "NO",
            }
            for protocol, report in self.reports.items()
        ]


class DecisionTimeHistogramSink(SummarySink):
    """Per-protocol histogram of the slowest decision time, in units of T.

    Each decided run adds its worst per-site decision latency (normalized by
    the scenario's maximum message delay ``T``) to a fixed-width bin;
    undecided (blocked) runs are counted separately.  Memory is O(protocols
    x occupied bins) -- bins are a dict, so a sweep whose latencies cluster
    around the paper's 2T/3T/5T/6T bounds stays tiny.
    """

    def __init__(self, bin_width: float = 0.25) -> None:
        if bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {bin_width}")
        self.bin_width = bin_width
        self.bins: dict[str, dict[int, int]] = {}
        self.undecided: dict[str, int] = {}

    def accept(self, index: int, summary: RunSummary) -> None:
        protocol = summary.protocol
        latency = summary.max_decision_latency()
        if latency is None or summary.blocked:
            self.undecided[protocol] = self.undecided.get(protocol, 0) + 1
            return
        unit = summary.max_delay or 1.0
        bin_index = int(math.floor(latency / unit / self.bin_width))
        bins = self.bins.setdefault(protocol, {})
        bins[bin_index] = bins.get(bin_index, 0) + 1

    def histogram(self, protocol: str) -> list[tuple[float, float, int]]:
        """Sorted ``(bin_lo_T, bin_hi_T, count)`` triples for one protocol."""
        bins = self.bins.get(protocol, {})
        return [
            (round(i * self.bin_width, 10), round((i + 1) * self.bin_width, 10), count)
            for i, count in sorted(bins.items())
        ]

    def worst(self, protocol: str) -> Optional[float]:
        """Upper edge (in T) of the worst occupied bin, or ``None``."""
        bins = self.bins.get(protocol)
        if not bins:
            return None
        return round((max(bins) + 1) * self.bin_width, 10)


class ViolationCollectorSink(SummarySink):
    """Collects the summaries of atomicity-violating runs, up to a limit.

    Violations are the paper's headline failure (Lemma 3, SEC3); keeping the
    offending summaries (not just a count) preserves the witnesses needed to
    reproduce them, while ``limit`` keeps a pathological sweep from undoing
    the constant-memory guarantee.  ``total`` always counts every violation.
    """

    def __init__(self, limit: Optional[int] = 100) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0 or None, got {limit}")
        self.limit = limit
        self.total = 0
        self.violations: list[RunSummary] = []

    def accept(self, index: int, summary: RunSummary) -> None:
        if not summary.atomicity_violated:
            return
        self.total += 1
        if self.limit is None or len(self.violations) < self.limit:
            self.violations.append(summary)


class AtomicitySink(SummarySink):
    """Streams summaries into an :class:`~repro.analysis.atomicity.AtomicityReport`.

    The streamed report is identical to ``summarize_runs`` over the
    materialized list (same fold, same order).
    """

    def __init__(self, protocol: Optional[str] = None, *, max_witnesses: int = 5) -> None:
        self.max_witnesses = max_witnesses
        self.report = AtomicityReport(protocol=protocol or "unknown")

    def accept(self, index: int, summary: RunSummary) -> None:
        self.report.observe(summary, max_witnesses=self.max_witnesses)


class BlockingSink(SummarySink):
    """Streams summaries into a :class:`~repro.analysis.blocking.BlockingReport`."""

    def __init__(self, protocol: Optional[str] = None) -> None:
        self.report = BlockingReport(protocol=protocol or "unknown")

    def accept(self, index: int, summary: RunSummary) -> None:
        self.report.observe(summary)


class JsonlSink(SummarySink):
    """Spills every summary to disk as one canonical-JSON line.

    Because the engine delivers in task order, the spill file is
    byte-identical across worker counts and re-runs -- it doubles as a
    durable, diffable record of a sweep.  :func:`read_jsonl` round-trips it.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = pathlib.Path(path)
        self.count = 0
        self._handle: Optional[IO[bytes]] = None
        self._truncated = False

    def _ensure_open(self) -> IO[bytes]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # First open truncates (a sink is one spill); reuse across
            # several sweeps appends, keeping `count` == lines in the file.
            self._handle = open(self.path, "ab" if self._truncated else "wb")
            self._truncated = True
        return self._handle

    def accept(self, index: int, summary: RunSummary) -> None:
        self._ensure_open().write(summary.to_json_bytes() + b"\n")
        self.count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        elif not self._truncated:
            # Nothing was ever written (empty sweep, or a sweep that failed
            # before the first delivery): record that the sink closed by
            # ensuring the file exists, but never clobber a previous spill
            # at the same path.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()


def read_jsonl(path: Union[str, os.PathLike]) -> Iterator[RunSummary]:
    """Stream the summaries back out of a :class:`JsonlSink` spill file.

    Each line's ``kind`` tag selects the registered spec kind
    (:mod:`repro.engine.registry`) whose codec rebuilds the record, so a
    spill can mix any set of registered summary types.
    """
    with open(path, "rb") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield summary_from_json_bytes(line)
