"""``repro shard`` / ``repro merge``: the distribution surface.

``shard`` parses its grid flags with *only* the chosen kind's flags
(:meth:`~repro.cli.kinds.GridKind.tasks_from_argv`), on the command line
and in every ``--manifest`` entry, so a flag foreign to the kind is an
ordinary usage error naming the flag.
"""

from __future__ import annotations

import argparse

from repro.cli.common import (
    UsageError,
    add_engine_options,
    add_obs_options,
    check,
    make_obs,
    write_obs,
)
from repro.cli.grid import run_grid
from repro.cli.kinds import GRID_KINDS, grid_kind


def add_shard_parsers(sub) -> None:
    """Register the ``shard`` and ``merge`` subcommands."""
    kinds = [kind.verb for kind in GRID_KINDS]
    shard = sub.add_parser(
        "shard",
        help="run one deterministic shard of a grid into a result log",
        description=(
            "Partition a grid into --shard-count "
            "content-addressed slices (stable under task reordering, "
            "cache-compatible with single-machine runs), execute slice "
            "--shard-index on this machine, and append its summaries to a "
            "result-log directory as sealed segments that 'repro merge' "
            "folds back into single-machine-identical aggregates.  The "
            f"grid is --kind {'|'.join(kinds)} plus that kind's grid flags "
            "(see 'repro <kind> --help'), or a --manifest of such grids."
        ),
    )
    shard.add_argument(
        "--shard-index",
        type=int,
        required=True,
        metavar="I",
        help="which slice to run, in [0, --shard-count)",
    )
    shard.add_argument(
        "--shard-count",
        type=int,
        required=True,
        metavar="N",
        help="total number of slices the grid is partitioned into",
    )
    shard.add_argument(
        "--log",
        required=True,
        metavar="DIR",
        help="result-log directory the shard appends its sealed segments "
        "to; an interrupted shard re-run against the same DIR resumes from "
        "its last sealed segment",
    )
    shard.add_argument(
        "--segment-records",
        type=int,
        default=None,
        metavar="N",
        help="records per sealed segment (default 64; the shard's "
        "durability granularity)",
    )
    shard.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="build a heterogeneous task list from a JSON manifest "
        "({\"grids\": [{\"kind\": ..., \"args\": [...]}, ...]}) instead of "
        "the command-line grid axes; grids concatenate in manifest order",
    )
    shard.add_argument(
        "--kind",
        choices=kinds,
        default=kinds[0],
        help="which grid the remaining flags describe; they are exactly the "
        "grid flags of 'repro KIND' (ignored with --manifest, where each "
        "entry names its kind)",
    )
    add_engine_options(shard, chunk_size=True)
    # Filled by main() with the argv this parser did not recognize: the
    # grid flags, parsed by the chosen kind's own axes parser.
    shard.set_defaults(run=_run_shard, grid_argv=[])

    merge = sub.add_parser(
        "merge",
        help="fold a result log into single-machine-identical aggregates",
        description=(
            "Read the sealed segments of a 'repro shard' result log, "
            "restore global task order, and fold every summary exactly "
            "once through each spec kind's default aggregation sink.  "
            "The resulting tables (and the optional --jsonl spill) are "
            "byte-identical to a single-machine streaming run of the whole "
            "grid."
        ),
    )
    merge.add_argument(
        "--log",
        required=True,
        metavar="DIR",
        help="the 'repro shard --log' result-log directory to merge",
    )
    merge.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted merge from its checkpoint "
        "(committed prefix is replayed, merged JSONL bytes are kept)",
    )
    merge.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="merge-checkpoint location (default: DIR/merge-checkpoint.json)",
    )
    merge.add_argument(
        "--batch-records",
        type=int,
        default=None,
        metavar="N",
        help="records folded between checkpoint commits (default 256)",
    )
    merge.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="write the merged summaries to PATH (byte-identical to a "
        "single-machine 'sweep --jsonl' spill)",
    )
    merge.add_argument(
        "--allow-partial",
        action="store_true",
        help="merge even when some shards are missing (partial aggregates)",
    )
    add_obs_options(merge)
    merge.set_defaults(run=_run_merge)


def _manifest_tasks(args: argparse.Namespace) -> list:
    """Build the concatenated task list a ``--manifest`` file describes.

    The manifest is ``{"grids": [{"kind": ..., "args": [...]}, ...]}``;
    each entry goes through its kind's own parser and task builder, so it
    accepts exactly the flags the kind's verb does and fails with the same
    messages, prefixed with the entry (``grids[i]``).
    """
    import json
    import pathlib

    try:
        payload = json.loads(pathlib.Path(args.manifest).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read manifest {args.manifest}: {exc}") from None
    entries = payload.get("grids") if isinstance(payload, dict) else None
    check(
        isinstance(entries, list) and bool(entries),
        f"{args.manifest}: manifest needs a non-empty 'grids' list",
    )
    kinds = [kind.verb for kind in GRID_KINDS]
    tasks: list = []
    for position, entry in enumerate(entries):
        where = f"{args.manifest}: grids[{position}]"
        verb = entry.get("kind") if isinstance(entry, dict) else None
        check(
            verb in kinds,
            f"{where} needs \"kind\": {'|'.join(kinds)}, got {verb!r}",
        )
        extra = entry.get("args", [])
        check(
            isinstance(extra, list) and all(isinstance(item, str) for item in extra),
            f"{where} \"args\" must be a list of strings",
        )
        try:
            tasks.extend(grid_kind(verb).tasks_from_argv(f"{where} ({verb})", extra))
        except UsageError as exc:
            raise UsageError(f"{where} ({verb}): {exc}") from None
    return tasks


def _run_shard(args: argparse.Namespace) -> int:
    check(args.shard_count >= 1, f"--shard-count must be >= 1, got {args.shard_count}")
    check(
        0 <= args.shard_index < args.shard_count,
        f"--shard-index must be in [0, {args.shard_count}), got {args.shard_index}",
    )
    check(
        args.segment_records is None or args.segment_records >= 1,
        f"--segment-records must be >= 1, got {args.segment_records}",
    )
    if args.manifest is not None:
        # Command-line grid flags alongside --manifest would be silently
        # ignored; insist the manifest owns the whole grid definition.
        check(
            not args.grid_argv,
            f"{' '.join(args.grid_argv)} cannot be combined with "
            f"--manifest; put grid flags in the manifest entries",
        )
        return run_grid(args, _manifest_tasks, shard_label="manifest")
    prog = f"python -m repro shard --kind {args.kind}"
    return run_grid(
        args,
        lambda args: grid_kind(args.kind).tasks_from_argv(prog, args.grid_argv),
        shard_label=args.kind,
    )


def _run_merge(args: argparse.Namespace) -> int:
    from repro.engine.resultlog import DEFAULT_BATCH_RECORDS, merge_result_log
    from repro.obs.report import format_table
    from repro.obs.metrics import activate

    check(
        args.batch_records is None or args.batch_records >= 1,
        f"--batch-records must be >= 1, got {args.batch_records}",
    )
    obs_metrics = make_obs(args)
    with activate(obs_metrics):
        result = merge_result_log(
            args.log,
            jsonl=args.jsonl,
            checkpoint=args.checkpoint,
            resume=args.resume,
            require_complete=not args.allow_partial,
            batch_records=args.batch_records or DEFAULT_BATCH_RECORDS,
        )
    for sink in result.kind_sinks.values():
        rows = sink.rows() if hasattr(sink, "rows") else []
        if rows:
            print(format_table(rows))
    if args.jsonl is not None:
        print(f"spilled {result.records} merged summaries to {args.jsonl}")
    print(
        f"merged {result.records} record(s) from {result.segments} "
        f"sealed segment(s) across {len(result.shard_records)} shard(s) "
        f"(grid of {result.total_tasks} task(s), {result.deduped} "
        f"deduped, {result.replayed} replayed from checkpoint, "
        f"{result.elapsed:.2f}s)"
    )
    # The header holds properties of the log only, so a resumed merge's
    # header equals an uninterrupted one's (modulo elapsed); the counts,
    # replayed records included, are instruments in the snapshot.
    write_obs(
        args,
        "merge",
        obs_metrics,
        total=result.records,
        elapsed=round(result.elapsed, 6),
        shard_count=result.shard_count,
        total_tasks=result.total_tasks,
        kinds=sorted(result.kind_sinks),
    )
    return 0
