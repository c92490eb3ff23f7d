"""The three grid kinds' CLI declarations: one per kind, used by its verb,
by ``repro shard --kind`` and by every ``--manifest`` entry.

``repro shard`` parses grid flags with only the chosen kind's axes parser,
so a flag of another kind is an ordinary usage error naming the flag -- a
shard can never quietly cover a different grid than a single-machine run of
the same flags (the merge-vs-single-machine identity).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Callable

from repro.cli.common import (
    UsageError,
    add_protocol_axes,
    add_split_axes,
    check,
    resolve_no_voters,
    resolve_protocol_names,
    resolve_split_axes,
)
from repro.cli.faults import (
    add_fault_options,
    modelcheck_envelopes,
    resolve_fault_plan,
)


@dataclass(frozen=True)
class GridKind:
    """One grid kind's CLI declaration.

    Attributes:
        verb: the subcommand name and the ``shard --kind`` value.
        registry_kind: name of the :class:`~repro.engine.registry.SpecKind`
            whose ``make_sink`` builds the verb's table.
        help: one-line subcommand help.
        description: the subcommand's ``--help`` description.
        add_axes: declares the kind's grid flags on a parser.
        build_tasks: validates a parsed namespace and returns the task
            list; raises :class:`~repro.cli.common.UsageError` naming the
            offending flag.
        chunk_size: whether the verb takes ``--chunk-size``.
        traces: whether the verb prints traces (and takes ``--no-traces``).
    """

    verb: str
    registry_kind: str
    help: str
    description: str
    add_axes: Callable[[argparse.ArgumentParser], None]
    build_tasks: Callable[[argparse.Namespace], list]
    chunk_size: bool = True
    traces: bool = False

    def tasks_from_argv(self, prog: str, argv: list[str]) -> list:
        """Parse ``argv`` with only this kind's grid flags and build its
        tasks (for ``repro shard``; ``prog`` labels usage errors)."""
        parser = argparse.ArgumentParser(prog=prog, add_help=False)
        self.add_axes(parser)
        return self.build_tasks(parser.parse_args(argv))


def _add_sweep_axes(parser: argparse.ArgumentParser) -> None:
    """The partition-sweep grid axes (shared by ``sweep`` and ``shard``)."""
    add_split_axes(parser)
    parser.add_argument(
        "--times",
        type=float,
        nargs="+",
        default=None,
        metavar="T",
        help="partition onset times (default: the standard 0.25T grid)",
    )
    add_fault_options(parser)


def _sweep_tasks(args: argparse.Namespace) -> list:
    """The sweep grid: one task list (and thus one worker pool / shard
    partition) across all protocols."""
    from repro.engine import ScenarioGrid

    protocols, no_voter_options = resolve_split_axes(args)
    check(
        all(math.isfinite(t) and t >= 0 for t in args.times or ()),
        f"--times must be finite and >= 0, got {args.times}",
    )
    faults = resolve_fault_plan(args.faults, args.sites)
    base_spec = None
    if faults is not None:
        from repro.protocols.runner import ScenarioSpec

        base_spec = ScenarioSpec(n_sites=args.sites, faults=faults)
    tasks: list = []
    for protocol in protocols:
        grid = ScenarioGrid.from_partition_sweep(
            protocol,
            args.sites,
            times=args.times,
            heal_after=args.heal_after,
            no_voter_options=no_voter_options,
            base_spec=base_spec,
        )
        tasks.extend(grid.tasks())
    return tasks


def _add_throughput_axes(parser: argparse.ArgumentParser) -> None:
    """The throughput grid axes (shared by ``throughput`` and ``shard``)."""
    parser.add_argument("--sites", type=int, default=3, help="number of sites (default 3)")
    parser.add_argument(
        "--protocols",
        action="append",
        default=None,
        metavar="NAME",
        help="protocol registry name (repeatable); 'all' runs every protocol",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=200,
        metavar="N",
        help="transactions offered per scenario (default 200)",
    )
    parser.add_argument(
        "--tx-rate",
        type=float,
        default=1.0,
        metavar="R",
        help="offered load in transactions per T (default 1.0)",
    )
    parser.add_argument(
        "--read-fraction",
        type=float,
        default=0.2,
        metavar="F",
        help="fraction of operations that are reads, in [0, 1] (default 0.2)",
    )
    parser.add_argument(
        "--ops-per-site",
        type=int,
        default=1,
        metavar="K",
        help="data operations per participating site (default 1)",
    )
    parser.add_argument(
        "--keys",
        type=int,
        default=8,
        metavar="K",
        help="keyspace size; fewer keys = more contention (default 8)",
    )
    parser.add_argument(
        "--op-delay",
        type=float,
        default=0.05,
        metavar="DT",
        help="execution time per data operation, in T (default 0.05)",
    )
    parser.add_argument(
        "--partition-at",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="partition onset as a fraction of the admission span (default 0.5)",
    )
    parser.add_argument(
        "--heal-after",
        type=float,
        default=8.0,
        metavar="DT",
        help="heal the partition DT after onset (default 8.0)",
    )
    parser.add_argument(
        "--permanent",
        action="store_true",
        help="never heal the partition",
    )
    parser.add_argument(
        "--no-partition",
        action="store_true",
        help="failure-free run (contention only)",
    )
    parser.add_argument(
        "--deadlock",
        choices=("cycles", "timeout", "both", "none"),
        default="cycles",
        help="deadlock handling: waits-for detection, lock-wait timeouts, both or none",
    )
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=10.0,
        metavar="DT",
        help="lock-wait timeout in T, for --deadlock timeout/both (default 10.0)",
    )
    parser.add_argument(
        "--victim",
        choices=("youngest", "oldest", "fewest-locks", "most-retries-wins"),
        default="youngest",
        help="which waits-for cycle member the detector aborts (default youngest)",
    )
    parser.add_argument(
        "--arrival",
        choices=("uniform", "poisson"),
        default="uniform",
        help="arrival process: evenly spaced or open-loop seeded Poisson",
    )
    parser.add_argument(
        "--hotspot",
        type=float,
        default=0.0,
        metavar="S",
        help="zipf-like key-skew exponent; 0 = uniform keys (default 0)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry budget: re-admit aborted victims up to N times (default 0)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="DT",
        help="first-retry backoff in T, doubling per attempt (default 0.5)",
    )
    parser.add_argument(
        "--lock-transport",
        choices=("direct", "network"),
        default="direct",
        help=(
            "how execution-phase lock requests travel: placed directly at "
            "the sites (historical default) or as network messages that "
            "partitions and message faults can cut; auto-upgraded to "
            "'network' when --faults carries message faults"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0],
        metavar="S",
        help="workload / simulator seeds, one scenario per seed (default: 0)",
    )
    add_fault_options(parser)


def _throughput_tasks(args: argparse.Namespace) -> list:
    """The throughput grid's task list.

    Shared by ``repro throughput`` and ``repro shard --kind throughput`` so
    sharded runs execute exactly the grid a single-machine run would.
    """
    from repro.experiments.throughput import DEFAULT_PROTOCOLS, throughput_tasks
    from repro.txn import DeadlockPolicy, RetryPolicy, VictimPolicy

    # Every check names the offending flag so workload mistakes are
    # self-explanatory (the satellite contract of the txn subsystem).
    checks = [
        (args.sites < 2, f"--sites must be >= 2, got {args.sites}"),
        (args.transactions < 1, f"--transactions must be >= 1, got {args.transactions}"),
        (args.tx_rate <= 0, f"--tx-rate must be > 0, got {args.tx_rate}"),
        (
            not 0.0 <= args.read_fraction <= 1.0,
            f"--read-fraction must be in [0, 1], got {args.read_fraction}",
        ),
        (args.ops_per_site < 1, f"--ops-per-site must be >= 1, got {args.ops_per_site}"),
        (args.keys < 1, f"--keys must be >= 1, got {args.keys}"),
        (args.op_delay < 0, f"--op-delay must be >= 0, got {args.op_delay}"),
        (args.lock_timeout <= 0, f"--lock-timeout must be > 0, got {args.lock_timeout}"),
        (args.hotspot < 0, f"--hotspot must be >= 0, got {args.hotspot}"),
        (args.retries < 0, f"--retries must be >= 0, got {args.retries}"),
        (
            args.retry_backoff <= 0,
            f"--retry-backoff must be > 0, got {args.retry_backoff}",
        ),
        (
            not 0.0 < args.partition_at <= 1.0,
            f"--partition-at must be in (0, 1], got {args.partition_at}",
        ),
        (args.heal_after <= 0, f"--heal-after must be > 0, got {args.heal_after}"),
        (
            args.no_partition and args.permanent,
            "--no-partition cannot be combined with --permanent",
        ),
    ]
    for failed, message in checks:
        check(not failed, message)
    faults = resolve_fault_plan(args.faults, args.sites)
    protocols = resolve_protocol_names(args.protocols, default=list(DEFAULT_PROTOCOLS))
    policy = DeadlockPolicy(
        detect_cycles=args.deadlock in ("cycles", "both"),
        wait_timeout=args.lock_timeout if args.deadlock in ("timeout", "both") else None,
        victim=VictimPolicy(args.victim),
    )
    retry = RetryPolicy(
        max_attempts=args.retries + 1, backoff=args.retry_backoff
    )
    return throughput_tasks(
        protocols,
        n_sites=args.sites,
        n_transactions=args.transactions,
        tx_rates=(args.tx_rate,),
        read_fractions=(args.read_fraction,),
        onset_fractions=(None if args.no_partition else args.partition_at,),
        heal_after=None if args.permanent else args.heal_after,
        operations_per_site=args.ops_per_site,
        n_keys=args.keys,
        op_delay=args.op_delay,
        arrival=args.arrival,
        hotspot=args.hotspot,
        deadlock=policy,
        retry=retry,
        faults=faults,
        lock_transport=args.lock_transport,
        seeds=args.seeds,
    )


def _add_modelcheck_axes(parser: argparse.ArgumentParser) -> None:
    """The model-checking grid axes (shared by ``modelcheck`` and ``shard``)."""
    add_protocol_axes(parser)
    parser.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        metavar="N",
        help="abort exploration beyond N global states (default 200000)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="D",
        help="truncate exploration at depth D (default: unbounded)",
    )
    add_fault_options(parser)


def _modelcheck_tasks(args: argparse.Namespace) -> list:
    """The model-checking grid's task list.

    Shared by ``repro modelcheck`` and ``repro shard --kind modelcheck`` so
    sharded runs explore exactly the grid a single-machine run would.
    """
    from repro.experiments.modelcheck import modelcheck_tasks
    from repro.modelcheck.protocols import (
        UncheckableProtocolError, checkable_plan, checkable_protocols,
    )

    check(args.sites >= 2, f"--sites must be >= 2, got {args.sites}")
    check(args.max_states >= 1, f"--max-states must be >= 1, got {args.max_states}")
    check(
        args.max_depth is None or args.max_depth >= 1,
        f"--max-depth must be >= 1, got {args.max_depth}",
    )
    protocols = args.protocol or ["all"]
    if any(p == "all" for p in protocols):
        protocols = checkable_protocols()
    for protocol in protocols:
        try:
            checkable_plan(protocol, args.sites)
        except UncheckableProtocolError as exc:
            raise UsageError(
                f"uncheckable protocol: {exc}; checkable protocols: "
                f"{', '.join(checkable_protocols())}"
            ) from None
    faults = modelcheck_envelopes(args)
    no_voter_options = resolve_no_voters(args)
    if any(1 in option for option in no_voter_options):
        raise UsageError(
            "--no-voters cannot include site 1: a no-voting master aborts "
            "unilaterally before any message is sent, so there is no "
            "protocol execution to check"
        )
    return modelcheck_tasks(
        protocols,
        n_sites=args.sites,
        faults=faults,
        no_voter_options=no_voter_options,
        max_states=args.max_states,
        max_depth=args.max_depth,
    )


#: The grid kinds, in ``--help`` order; the first is ``shard``'s default.
GRID_KINDS: tuple[GridKind, ...] = (
    GridKind(
        verb="sweep",
        registry_kind="scenario",
        help="run a partition sweep on the parallel engine",
        description=(
            "Sweep partition onset times x simple splits x vote patterns for "
            "one or more protocols, executing scenarios across worker "
            "processes and summarizing atomicity / blocking per protocol."
        ),
        add_axes=_add_sweep_axes,
        build_tasks=_sweep_tasks,
    ),
    GridKind(
        verb="throughput",
        registry_kind="throughput",
        help="run a contended multi-transaction workload per protocol",
        description=(
            "Offer a stream of update transactions to one cluster per "
            "protocol, strike a partition mid-run, and compare goodput, "
            "abort rate and lock-wait: blocking protocols keep the "
            "partition's locks and collapse, the terminating protocols "
            "release them and recover."
        ),
        add_axes=_add_throughput_axes,
        build_tasks=_throughput_tasks,
        chunk_size=False,
    ),
    GridKind(
        verb="modelcheck",
        registry_kind="modelcheck",
        help="exhaustively model-check protocols against the paper's invariants",
        description=(
            "Enumerate every reachable global state of each protocol under "
            "a fault envelope (failure-free, a single crash, or a simple "
            "partition at any point) and check the paper's invariants -- "
            "same-decision, no-commit-after-abort, commit-requires-votes "
            "and non-blocking -- over all interleavings, printing a "
            "minimal counterexample trace for every violated invariant."
        ),
        add_axes=_add_modelcheck_axes,
        build_tasks=_modelcheck_tasks,
        traces=True,
    ),
)


def grid_kind(verb: str) -> GridKind:
    """The declaration whose verb is ``verb``."""
    return next(kind for kind in GRID_KINDS if kind.verb == verb)
