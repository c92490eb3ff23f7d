"""Shared machinery for the per-figure experiments.

All sweep traffic funnels through the grid builders here and executes on
a serial :class:`~repro.engine.SweepEngine`.  The timing experiments
(FIG5-FIG9) and the availability harness consume their sweeps through the
engine's *streaming* surface (:func:`stream_protocol` /
:func:`stream_protocol_sinks`): summaries are folded one at a time, in task
order, and never materialized into a list.
:func:`sweep_protocol` remains for callers that want the list.  Single
diagnostic runs (:func:`run_once`) still return the full
:class:`~repro.protocols.runner.TransactionRunResult` with its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.engine import RunSummary, ScenarioGrid, StreamStats, SummarySink, SweepEngine
from repro.obs.report import format_table
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, TransactionRunResult, run_scenario


@dataclass
class ExperimentReport:
    """A titled, tabular experiment result.

    Attributes:
        experiment: identifier from DESIGN.md's experiment index (e.g.
            ``"FIG8"``).
        title: human-readable description.
        table: list of dict rows (rendered by :meth:`format`).
        headline: one-sentence conclusion (what the paper claims / what we
            measured).
        details: free-form extra facts used by tests and EXPERIMENTS.md.
    """

    experiment: str
    title: str
    table: list[dict[str, Any]] = field(default_factory=list)
    headline: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    def rows(self) -> list[dict[str, Any]]:
        """The tabular data of the experiment."""
        return self.table

    def format(self) -> str:
        """Printable report (title, table, headline)."""
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.table:
            parts.append(format_table(self.table))
        if self.headline:
            parts.append(self.headline)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.format()


def partition_grid(
    protocol_name: str,
    *,
    n_sites: int = 3,
    times: Optional[Iterable[float]] = None,
    heal_after: Optional[float] = None,
    no_voter_options: Sequence[frozenset[int]] = (frozenset(),),
    horizon: Optional[float] = None,
) -> ScenarioGrid:
    """The standard simple-partition grid of one protocol (Theorem 9 axes)."""
    return ScenarioGrid.from_partition_sweep(
        protocol_name,
        n_sites,
        times=list(times) if times is not None else None,
        heal_after=heal_after,
        no_voter_options=no_voter_options,
        horizon=horizon,
    )


def sweep_protocol(
    protocol_name: str,
    *,
    measures: Sequence[str] = (),
    **grid_kwargs: Any,
) -> list[RunSummary]:
    """Run ``protocol_name`` over a grid of simple-partition scenarios.

    Materializes the summary list -- use :func:`stream_protocol` or
    :func:`stream_protocol_sinks` for sweeps that should not.
    """
    grid = partition_grid(protocol_name, **grid_kwargs)
    return SweepEngine().run(grid, measures=measures).summaries


def stream_protocol(
    protocol_name: str,
    *,
    measures: Sequence[str] = (),
    stats: Optional[StreamStats] = None,
    **grid_kwargs: Any,
) -> Iterator[RunSummary]:
    """Stream ``protocol_name``'s partition sweep one summary at a time.

    Summaries arrive in task order and are dropped after each loop
    iteration, so the sweep runs in constant memory regardless of grid size.
    """
    grid = partition_grid(protocol_name, **grid_kwargs)
    return SweepEngine().stream(grid, measures=measures, stats=stats)


def stream_protocol_sinks(
    protocol_name: str,
    *,
    sinks: Union[SummarySink, Sequence[SummarySink]],
    measures: Sequence[str] = (),
    **grid_kwargs: Any,
) -> StreamStats:
    """Stream ``protocol_name``'s partition sweep into aggregation sinks."""
    grid = partition_grid(protocol_name, **grid_kwargs)
    return SweepEngine().run_streaming(grid, sinks=sinks, measures=measures)


def run_once(protocol_name: str, spec: Optional[ScenarioSpec] = None, **overrides: Any) -> TransactionRunResult:
    """Run a single scenario for ``protocol_name`` (full result, with trace)."""
    return run_scenario(create_protocol(protocol_name), spec, **overrides)
