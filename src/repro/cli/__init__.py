"""The ``python -m repro`` command line.

:mod:`~repro.cli.kinds` declares the three grid kinds once each;
:mod:`~repro.cli.grid` runs them (and ``shard``) through one path;
:mod:`~repro.cli.shard` holds ``shard`` / ``merge`` / ``--manifest``;
:mod:`~repro.cli.verbs` the experiment, ``boundaries`` and ``report``
verbs; :mod:`~repro.cli.faults` the ``--faults`` grammar.  The CLI depends
on the spec-kind registry, never the reverse.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import STATS_SCHEMA_VERSION, UsageError
from repro.cli.grid import add_grid_parsers
from repro.cli.shard import add_shard_parsers
from repro.cli.verbs import EXPERIMENTS, add_verb_parsers
from repro.core.reachability import ExplorationError
from repro.engine.engine import WorkerCrashedError
from repro.engine.registry import UnknownSpecKindError
from repro.engine.resultlog import ResultLogError
from repro.sim.kernel import SimulationError
from repro.sim.partition import PartitionError

__all__ = ["EXPERIMENTS", "STATS_SCHEMA_VERSION", "build_parser", "main", "parse_args"]


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` parser; every subcommand sets ``run``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from Huang & Li (ICDE 1987).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_verb_parsers(sub)
    add_grid_parsers(sub)
    add_shard_parsers(sub)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a full command line; ``shard`` keeps the argv it did not
    recognize as ``grid_argv`` for its kind's own parser."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if hasattr(args, "grid_argv"):
        args.grid_argv = extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    The one place failures become an exit code: a rejected flag value or a
    failed run (unwritable path, exhausted exploration budget, invalid
    result log, dead worker ...) prints a single stderr line and exits 2.
    """
    args = parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
    except ExplorationError as exc:
        print(
            f"{args.command} failed: exploration budget exceeded: {exc} "
            "(raise --max-states, or bound the graph with --max-depth)",
            file=sys.stderr,
        )
    except (
        OSError,
        SimulationError,
        PartitionError,
        ResultLogError,
        UnknownSpecKindError,
        WorkerCrashedError,
    ) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
    return 2
