"""The one grid-verb path: ``sweep`` / ``throughput`` / ``modelcheck`` and
``shard`` all execute through :func:`run_grid`, streaming summaries through
sinks in task order (constant memory; nothing is materialized).
"""

from __future__ import annotations

import argparse
from functools import partial
from typing import Callable, Optional

from repro.cli.common import (
    add_engine_options,
    cache_text,
    check,
    make_obs,
    stats_payload,
    write_obs,
    write_stats_json,
)
from repro.cli.kinds import GRID_KINDS, GridKind
from repro.engine.sink import SummarySink


def add_grid_parsers(sub) -> None:
    """Register one subcommand per grid kind."""
    for kind in GRID_KINDS:
        parser = sub.add_parser(
            kind.verb, help=kind.help, description=kind.description
        )
        kind.add_axes(parser)
        add_engine_options(parser, chunk_size=kind.chunk_size)
        parser.add_argument(
            "--progress",
            action="store_true",
            help="live stderr progress line (done/total, scenarios/s, "
            "cache-hit rate, ETA)",
        )
        parser.add_argument(
            "--jsonl",
            default=None,
            metavar="PATH",
            help="spill every summary to PATH as JSON lines",
        )
        if kind.traces:
            parser.add_argument(
                "--no-traces",
                action="store_true",
                help="suppress counterexample traces (table and stats only)",
            )
        parser.set_defaults(
            run=partial(run_grid, build_tasks=kind.build_tasks, kind=kind)
        )


def _progress_sink(total: int, stats, label: str):
    """A sink that repaints the ``--progress`` line per in-order delivery.

    Reads ``executed`` / ``cache_hits`` live off the engine-shared
    :class:`~repro.engine.StreamStats`, so the line's cache-hit rate is
    current even while chunks are still in flight.  Appended *after* the
    aggregating sinks so a repaint never precedes the delivery it reports.
    """
    from repro.obs.progress import ProgressLine

    class _ProgressSink(SummarySink):
        def __init__(self) -> None:
            self.line = ProgressLine(total, label=label)
            self.done = 0

        def accept(self, index: int, summary) -> None:
            self.done += 1
            self.line.update(
                self.done, executed=stats.executed, cache_hits=stats.cache_hits
            )

        def close(self) -> None:
            self.line.update(
                self.done,
                executed=stats.executed,
                cache_hits=stats.cache_hits,
                force=True,
            )
            self.line.close()

    return _ProgressSink()


class _CounterexampleSink(SummarySink):
    """Keeps the summaries that carry counterexample traces."""

    def __init__(self) -> None:
        self.refuted: list = []

    def accept(self, index: int, summary) -> None:
        if getattr(summary, "counterexamples", None):
            self.refuted.append(summary)

    def report(self) -> None:
        """Print every refuted configuration's minimal traces."""
        for summary in self.refuted:
            print()
            print(summary.summary())
            for name in sorted(summary.counterexamples):
                print(f"counterexample [{name}]:")
                print(summary.format_counterexample(name))


def run_grid(
    args: argparse.Namespace,
    build_tasks: Callable[[argparse.Namespace], list],
    *,
    kind: Optional[GridKind] = None,
    shard_label: str = "",
) -> int:
    """Execute one task list for a grid verb (or ``shard``) and report it.

    With ``kind`` the tasks stream through ``[kind sink, traces?, JSONL?,
    progress?]`` and the kind's table is printed; without it (``repro
    shard``) this machine's slice is appended to the result log ``args.log``.
    Either way this is the one place that checks the engine flags, builds
    the engine and writes ``--stats-json`` and the observability files.
    Failures propagate to :func:`repro.cli.main`, which prints them as one
    ``<verb> failed: ...`` line.
    """
    from repro.engine import JsonlSink, StreamStats, SweepEngine
    from repro.engine.registry import kind_by_name
    from repro.engine.resultlog import DEFAULT_SEGMENT_RECORDS, run_shard_log
    from repro.obs.report import format_table

    verb = kind.verb if kind is not None else "shard"
    chunk_size = getattr(args, "chunk_size", None)
    check(args.workers >= 1, f"--workers must be >= 1, got {args.workers}")
    check(
        chunk_size is None or chunk_size >= 1,
        f"--chunk-size must be >= 1, got {chunk_size}",
    )
    tasks = build_tasks(args)
    metrics, spans = make_obs(args)
    extra: dict = {}
    # The workers are gone before the summary line is printed.
    with SweepEngine(
        workers=args.workers,
        cache=args.cache,
        chunk_size=chunk_size,
        metrics=metrics,
        spans=spans,
    ) as engine:
        if kind is None:
            result = run_shard_log(
                tasks,
                args.shard_index,
                args.shard_count,
                args.log,
                engine=engine,
                segment_records=args.segment_records or DEFAULT_SEGMENT_RECORDS,
            )
            stats = result.stats
            print(
                f"shard {args.shard_index}/{args.shard_count} ({shard_label} "
                f"grid): {result.appended} of {result.shard_tasks} task(s) "
                f"appended to {args.log} ({result.skipped} already sealed, "
                f"{result.segments_sealed} segment(s) sealed)"
            )
            extra = {
                "kind": shard_label,
                "shard_index": args.shard_index,
                "shard_count": args.shard_count,
                "total_tasks": len(tasks),
                "resumed_skips": result.skipped,
                "records_appended": result.appended,
                "segments_sealed": result.segments_sealed,
            }
        else:
            table = kind_by_name(kind.registry_kind).make_sink()
            traces = (
                _CounterexampleSink() if kind.traces and not args.no_traces else None
            )
            spill = JsonlSink(args.jsonl) if args.jsonl is not None else None
            stats = StreamStats(workers=args.workers)
            progress = (
                _progress_sink(len(tasks), stats, verb) if args.progress else None
            )
            sinks = [s for s in (table, traces, spill, progress) if s is not None]
            stats = engine.run_streaming(tasks, sinks=sinks, stats=stats)
            print(format_table(table.rows()))
            if traces is not None:
                traces.report()
            if spill is not None:
                print(f"spilled {spill.count} summaries to {args.jsonl}")
    print(
        f"{stats.total} scenarios in {stats.elapsed:.2f}s "
        f"({args.workers} worker(s), {stats.throughput:.0f} scenarios/s, "
        f"{stats.executed} executed, "
        f"{cache_text(engine.cache, stats.cache_hits, stats.total)})"
    )
    header = {
        "total": stats.total,
        "workers": stats.workers,
        "elapsed": round(stats.elapsed, 6),
    }
    # CI asserts on executed / cache_hits here instead of grepping the
    # human completion line above.
    write_stats_json(
        args.stats_json,
        stats_payload(
            verb,
            **header,
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            chunk_count=stats.chunk_count,
            scenarios_per_second=round(stats.throughput, 3),
            cache_enabled=engine.cache is not None,
            **extra,
        ),
    )
    write_obs(args, verb, metrics, spans, **header)
    return 0
