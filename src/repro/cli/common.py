"""What every verb shares: the usage-error type, the engine / observability
options, protocol and vote-pattern resolution, and the machine-readable
``--stats-json`` / ``--metrics-json`` / ``--trace-ndjson`` writers.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Optional

from repro.core.canonical import canonical_json_bytes


class UsageError(Exception):
    """A flag value a verb rejects; the message names the flag and
    :func:`repro.cli.main` prints it as one stderr line (exit 2)."""


def check(ok: bool, message: str) -> None:
    """Raise :class:`UsageError` with ``message`` unless ``ok``."""
    if not ok:
        raise UsageError(message)


def add_obs_options(parser: argparse.ArgumentParser) -> None:
    """The observability flags (run metrics, phase traces)."""
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="record run metrics (counters/gauges/histograms) to PATH as "
        "canonical JSON; render with 'repro report'",
    )
    parser.add_argument(
        "--trace-ndjson",
        default=None,
        metavar="PATH",
        help="record phase spans to PATH as NDJSON (one span per line)",
    )


def add_pool_options(parser: argparse.ArgumentParser) -> None:
    """The worker-pool / result-cache options of every engine-backed verb."""
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1, in-process)"
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory (re-runs become incremental)",
    )


def add_engine_options(parser: argparse.ArgumentParser, *, chunk_size: bool) -> None:
    """The engine-facing options every grid-executing subcommand shares."""
    add_pool_options(parser)
    if chunk_size:
        parser.add_argument(
            "--chunk-size",
            type=int,
            default=None,
            metavar="N",
            help="scenarios per worker submission (default: auto)",
        )
    parser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write run statistics to PATH as canonical JSON",
    )
    add_obs_options(parser)


def add_protocol_axes(parser: argparse.ArgumentParser) -> None:
    """The single-transaction axes ``sweep``, ``boundaries`` and
    ``modelcheck`` share: site count, protocols, vote patterns."""
    parser.add_argument("--sites", type=int, default=3, help="number of sites (default 3)")
    parser.add_argument(
        "--protocol",
        action="append",
        default=None,
        metavar="NAME",
        help="protocol registry name (repeatable); 'all' = every protocol "
        "the verb supports",
    )
    parser.add_argument(
        "--no-voters",
        action="append",
        default=None,
        metavar="SITES",
        help="comma-separated no-voting sites; repeatable, 'none' = all yes",
    )


def add_split_axes(parser: argparse.ArgumentParser) -> None:
    """The simple-partition axes ``sweep`` and ``boundaries`` share."""
    add_protocol_axes(parser)
    parser.add_argument(
        "--heal-after",
        type=float,
        default=None,
        metavar="DT",
        help="heal every partition DT after onset (transient partitioning)",
    )


def resolve_split_axes(args: argparse.Namespace) -> tuple:
    """Validated ``(protocols, vote patterns)`` of the :func:`add_split_axes`
    flags (single-transaction default protocol: the terminating one)."""
    check(args.sites >= 2, f"--sites must be >= 2, got {args.sites}")
    check(
        args.heal_after is None or args.heal_after > 0,
        f"--heal-after must be > 0, got {args.heal_after}",
    )
    return (
        resolve_protocol_names(
            args.protocol, default=["terminating-three-phase-commit"]
        ),
        resolve_no_voters(args),
    )


def resolve_protocol_names(names: Optional[list[str]], *, default: list[str]) -> list[str]:
    """Validated protocol list ('all' expands)."""
    from repro.protocols.registry import available_protocols

    protocols = names or default
    if any(p == "all" for p in protocols):
        protocols = available_protocols()
    unknown = [p for p in protocols if p not in available_protocols()]
    check(
        not unknown,
        f"unknown protocol(s): {', '.join(unknown)} "
        f"(available: {', '.join(available_protocols())})",
    )
    return list(protocols)


def resolve_no_voters(args: argparse.Namespace) -> tuple[frozenset[int], ...]:
    """Validated ``--no-voters`` options: each occurrence is a
    comma-separated site list; 'none' = all vote yes."""
    options: list[frozenset[int]] = []
    try:
        for value in args.no_voters or []:
            if value.strip().lower() in ("", "none"):
                options.append(frozenset())
            else:
                options.append(frozenset(int(site) for site in value.split(",")))
    except ValueError:
        raise UsageError(
            f"--no-voters expects comma-separated site numbers (or 'none'), "
            f"got {args.no_voters}"
        ) from None
    out_of_range = sorted(
        site for option in options for site in option if not 1 <= site <= args.sites
    )
    check(
        not out_of_range,
        f"--no-voters names site(s) {out_of_range} outside 1..{args.sites}",
    )
    return tuple(options) if options else (frozenset(),)


def cache_text(cache, hits: int, total: int) -> str:
    """The cache-effectiveness fragment shared by every completion line."""
    if cache is None:
        return "cache disabled"
    return f"cache: {hits} hit(s) / {total - hits} miss(es)"


def write_stats_json(path: Optional[str], payload: dict) -> None:
    """Write a stats payload as one canonical-JSON line (machine-readable)."""
    if path is None:
        return
    target = pathlib.Path(path)
    if target.parent != pathlib.Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(canonical_json_bytes(payload) + b"\n")


#: Version tag of every machine-readable document this CLI writes
#: (``--stats-json`` and ``--metrics-json`` alike); bumped on
#: incompatible payload-layout changes so CI parsers can key on it.
STATS_SCHEMA_VERSION = 1


def stats_payload(command: str, **fields) -> dict:
    """Base of every machine-readable payload this CLI emits.

    One construction point so sweep / throughput / shard / merge (and the
    metrics documents) all carry the same ``schema_version`` field.
    """
    return {"command": command, "schema_version": STATS_SCHEMA_VERSION, **fields}


def make_obs(args):
    """The ``(metrics, spans)`` pair the obs flags ask for (``None`` = off)."""
    from repro.obs import MetricsRegistry, SpanRecorder

    metrics = MetricsRegistry() if args.metrics_json else None
    spans = SpanRecorder() if args.trace_ndjson else None
    return metrics, spans


def write_obs(args, command: str, metrics, spans, **fields) -> None:
    """Write the ``--metrics-json`` / ``--trace-ndjson`` outputs (if on);
    ``fields`` are the run-header entries beside the metrics snapshot."""
    if metrics is not None:
        write_stats_json(
            args.metrics_json,
            stats_payload(command, **fields, metrics=metrics.snapshot()),
        )
    if spans is not None:
        spans.write_ndjson(args.trace_ndjson)
