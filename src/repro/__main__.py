"""Command-line entry point: regenerate experiments, or run custom sweeps.

Usage::

    python -m repro list
    python -m repro run FIG8
    python -m repro run SEC6 FIG5 AVAIL
    python -m repro all
    python -m repro sweep --workers 4 --sites 4 --protocol all
    python -m repro sweep --protocol terminating-three-phase-commit \\
        --times 0.5 1.5 2.5 --heal-after 2.0 --cache .sweep-cache
    python -m repro sweep --protocol all --stream --jsonl sweep.jsonl
    python -m repro sweep --protocol terminating-three-phase-commit --refine \\
        --resolution 0.01 --cache .sweep-cache
    python -m repro boundaries --protocol terminating-three-phase-commit \\
        --sites 3 --lo 0.25 --hi 8.0 --resolution 0.01
    python -m repro throughput --protocols all --transactions 200
    python -m repro throughput --protocols two-phase-commit \\
        --tx-rate 2.0 --read-fraction 0.5 --ops-per-site 2 --deadlock both
    python -m repro throughput --arrival poisson --retries 3 --hotspot 0.2 \\
        --faults crash=3:20:28 --deadlock both --lock-timeout 4
    python -m repro throughput --faults loss=0.3,retransmit=on \\
        --lock-transport network
    python -m repro sweep --protocol all --faults byzantine=3:equivocate
    python -m repro modelcheck --protocol all --sites 3
    python -m repro modelcheck --protocol two-phase-commit \\
        --faults single-crash --no-voters 3 --jsonl modelcheck.jsonl
    python -m repro modelcheck --protocol all --faults loss=0.5 \\
        --faults loss=0.5,retransmit=on
    python -m repro shard --shard-index 0 --shard-count 3 \\
        --log results/ --protocol all --cache .sweep-cache
    python -m repro shard --shard-index 0 --shard-count 3 \\
        --log results/ --manifest grids.json --segment-records 64
    python -m repro merge --log results/ --jsonl merged.jsonl \\
        --stats-json merge-stats.json
    python -m repro merge --log results/ --resume --jsonl merged.jsonl

``sweep --stream`` executes through the constant-memory streaming path
(summaries are folded into aggregation sinks in task order, never
materialized); ``sweep --refine`` and the ``boundaries`` subcommand locate
the onset times where the verdict class flips by adaptive bisection instead
of a uniform grid; ``throughput`` offers a contended multi-transaction
workload per protocol and compares goodput / abort rate / lock-wait under
a mid-run partition.  ``modelcheck`` replaces sampled schedules with
bounded-exhaustive exploration: every reachable global state of a protocol
under a fault envelope is enumerated and the paper's invariants checked,
printing minimal counterexample traces for the ones that fail.  ``shard``
runs one deterministic slice of a sweep, throughput or modelcheck
grid (or of a mixed-kind ``--manifest`` task list), appending it to the
durable result log ``--log DIR`` as atomically sealed segments, so an
interrupted shard re-run resumes from its last sealed segment.  ``merge``
folds a whole result log (checkpointing its progress so ``--resume``
continues an interrupted merge exactly-once) back into
aggregates byte-identical to a single-machine run -- the distribution
surface the matrix-sharded CI pipeline drives.  Every mode reports cache hit/miss counts and
scenarios/sec at completion; ``--stats-json PATH`` additionally writes the
statistics as canonical JSON for machine consumers (CI assertions,
benchmark trackers).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from repro import experiments as ex

EXPERIMENTS: dict[str, Callable[[], "ex.ExperimentReport"]] = {
    "FIG1": ex.run_fig1_two_phase,
    "FIG2": ex.run_fig2_extended_two_phase,
    "FIG3": ex.run_fig3_three_phase,
    "FIG5": ex.run_fig5_timeouts,
    "FIG6": ex.run_fig6_probe_window,
    "FIG7": ex.run_fig7_wait_in_w,
    "FIG8": ex.run_fig8_termination,
    "FIG9": ex.run_fig9_wait_in_p,
    "SEC3": ex.run_sec3_counterexamples,
    "LEMMA12": ex.run_lemma_checks,
    "LEMMA3": ex.run_lemma3_sweep,
    "SEC6": ex.run_sec6_cases,
    "SEC7": ex.run_sec7_assumptions,
    "THM10": ex.run_thm10_generalization,
    "AVAIL": ex.run_availability_comparison,
    "MSG": ex.run_message_overhead,
    "MULTI": ex.run_multiple_partitioning,
    "TPUT": ex.run_throughput_comparison,
    "RETRY": ex.run_retry_recovery_comparison,
    "MODELCHECK": ex.run_modelcheck_verification,
    "DIFF": ex.run_differential_validation,
    "FAULTS": ex.run_fault_survival,
}


def _parse_crash_schedule(values: list[str]):
    """Each occurrence is ``SITE:AT[:RECOVER_AT]``; empty list = no crashes.

    Returns a :class:`~repro.sim.failures.CrashSchedule` or ``None``;
    raises :class:`ValueError` (with the offending token) on bad input.
    """
    from repro.sim.failures import CrashEvent, CrashSchedule

    if not values:
        return None
    schedule = CrashSchedule()
    for value in values:
        parts = value.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"expected SITE:AT[:RECOVER_AT], got {value!r}")
        site, at = int(parts[0]), float(parts[1])
        recover_at = float(parts[2]) if len(parts) == 3 else None
        schedule.add(CrashEvent(time=at, site=site, recover_at=recover_at))
    return schedule


def _parse_fault_clauses(values: list[str]):
    """The unified ``--faults`` grammar: ``KIND=ARGS`` clauses, comma-joined.

    Every fault-taking subcommand (``sweep``, ``throughput``, ``modelcheck``,
    ``shard``) shares this parser, so one spelling describes the same faults
    everywhere.  Clauses (repeatable, within one occurrence or across
    several)::

        crash=SITE:AT[:RECOVER_AT]       crash SITE at AT (recover later)
        loss=P[:SRC-DST]                 drop matching messages w.p. P
        dup=P[:SRC-DST]                  deliver matching messages twice w.p. P
        reorder=P[:WINDOW]               delay w.p. P by uniform(0, WINDOW*T)
        send-omission=SITE[:P]           SITE's sends vanish w.p. P (default 1)
        recv-omission=SITE[:P]           SITE's receives vanish w.p. P
        byzantine=SITE[:MODE]            MODE: equivocate (default) | arbitrary
        retransmit=on|off|MAX[:INTERVAL] at-least-once retransmission layer
        seed=N                           fault-injection RNG seed

    ``SRC-DST`` names one directed link; ``*`` (or ``0``) wildcards a side.
    Returns a :class:`~repro.sim.failures.FaultPlan`, or ``None`` for no
    values / a plan that normalizes to the identity; raises
    :class:`ValueError` naming the offending clause.
    """
    from repro.sim.failures import (
        BYZANTINE_MODES,
        ByzantineSpec,
        CrashEvent,
        EQUIVOCATE,
        FaultPlan,
        LinkFault,
        OmissionFault,
        RECEIVE_OMISSION,
        RetransmitPolicy,
        SEND_OMISSION,
        normalize_fault_plan,
    )

    if not values:
        return None

    def _site(token: str) -> int:
        return 0 if token == "*" else int(token)

    def _link_sides(token: str) -> tuple[int, int]:
        src, sep, dst = token.partition("-")
        if not sep:
            raise ValueError(f"expected SRC-DST (use '*' to wildcard), got {token!r}")
        return _site(src), _site(dst)

    crashes: list = []
    links: list = []
    omissions: list = []
    byzantine: list = []
    retransmit = None
    seed = 0
    for value in values:
        for clause in value.split(","):
            clause = clause.strip()
            if not clause:
                continue
            kind, sep, rest = clause.partition("=")
            if not sep or not rest:
                raise ValueError(f"expected KIND=ARGS, got {clause!r}")
            parts = rest.split(":")
            try:
                if kind == "crash":
                    if len(parts) not in (2, 3):
                        raise ValueError("expected SITE:AT[:RECOVER_AT]")
                    crashes.append(
                        CrashEvent(
                            time=float(parts[1]),
                            site=int(parts[0]),
                            recover_at=float(parts[2]) if len(parts) == 3 else None,
                        )
                    )
                elif kind in ("loss", "dup"):
                    if len(parts) not in (1, 2):
                        raise ValueError("expected P[:SRC-DST]")
                    src, dst = _link_sides(parts[1]) if len(parts) == 2 else (0, 0)
                    probability = float(parts[0])
                    if kind == "loss":
                        links.append(LinkFault(src=src, dst=dst, loss=probability))
                    else:
                        links.append(LinkFault(src=src, dst=dst, duplicate=probability))
                elif kind == "reorder":
                    if len(parts) not in (1, 2):
                        raise ValueError("expected P[:WINDOW]")
                    links.append(
                        LinkFault(
                            reorder=float(parts[0]),
                            reorder_window=float(parts[1]) if len(parts) == 2 else 1.0,
                        )
                    )
                elif kind in ("send-omission", "recv-omission"):
                    if len(parts) not in (1, 2):
                        raise ValueError("expected SITE[:P]")
                    omissions.append(
                        OmissionFault(
                            site=int(parts[0]),
                            kind=SEND_OMISSION if kind == "send-omission" else RECEIVE_OMISSION,
                            probability=float(parts[1]) if len(parts) == 2 else 1.0,
                        )
                    )
                elif kind == "byzantine":
                    if len(parts) not in (1, 2):
                        raise ValueError("expected SITE[:MODE]")
                    mode = parts[1] if len(parts) == 2 else EQUIVOCATE
                    if mode not in BYZANTINE_MODES:
                        raise ValueError(
                            f"mode must be one of {'/'.join(BYZANTINE_MODES)}, got {mode!r}"
                        )
                    byzantine.append(ByzantineSpec(site=int(parts[0]), mode=mode))
                elif kind == "retransmit":
                    if parts[0] == "off":
                        retransmit = None
                    elif parts[0] == "on":
                        retransmit = RetransmitPolicy()
                    else:
                        if len(parts) not in (1, 2):
                            raise ValueError("expected on|off|MAX_ATTEMPTS[:INTERVAL]")
                        retransmit = RetransmitPolicy(
                            max_attempts=int(parts[0]),
                            interval=float(parts[1]) if len(parts) == 2 else 0.8,
                        )
                elif kind == "seed":
                    seed = int(rest)
                else:
                    raise ValueError(
                        "unknown fault kind (expected crash, loss, dup, reorder, "
                        "send-omission, recv-omission, byzantine, retransmit or seed)"
                    )
            except ValueError as exc:
                raise ValueError(f"clause {clause!r}: {exc}") from None
    return normalize_fault_plan(
        FaultPlan(
            crashes=tuple(crashes),
            links=tuple(links),
            omissions=tuple(omissions),
            byzantine=tuple(byzantine),
            retransmit=retransmit,
            seed=seed,
        )
    )


#: Sentinel distinguishing "--faults parse failed" from "no faults given"
#: (both would otherwise be None) in _resolve_fault_plan.
_FAULTS_ERROR = object()


def _resolve_fault_plan(args: argparse.Namespace):
    """The validated ``--faults`` plan (``None`` = fault-free), or the
    :data:`_FAULTS_ERROR` sentinel after printing the error."""
    try:
        plan = _parse_fault_clauses(args.faults or [])
        if plan is not None:
            plan.validate(args.sites)
    except ValueError as exc:
        print(f"--faults: {exc}", file=sys.stderr)
        return _FAULTS_ERROR
    return plan


def _parse_no_voters(values: list[str]) -> tuple[frozenset[int], ...]:
    """Each occurrence is a comma-separated site list; 'none' = all vote yes."""
    options: list[frozenset[int]] = []
    for value in values:
        if value.strip().lower() in ("", "none"):
            options.append(frozenset())
        else:
            options.append(frozenset(int(site) for site in value.split(",")))
    return tuple(options) if options else (frozenset(),)


def _add_obs_options(
    parser: argparse.ArgumentParser, *, progress: bool = False
) -> None:
    """The observability flags (run metrics, phase traces, live progress)."""
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
    if progress:
        parser.add_argument(
            "--progress",
            action="store_true",
            help="live stderr progress line (done/total, scenarios/s, "
            "cache-hit rate, ETA)",
        )


def _add_engine_options(
    parser: argparse.ArgumentParser,
    *,
    chunk_size: bool = False,
    progress: bool = False,
) -> None:
    """The engine-facing options every grid-executing subcommand shares."""
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1, in-process)"
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory (re-runs become incremental)",
    )
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
    _add_obs_options(parser, progress=progress)


def _add_partition_axes(parser: argparse.ArgumentParser) -> None:
    """The partition-sweep grid axes (shared by ``sweep`` and ``shard``)."""
    parser.add_argument(
        "--protocol",
        action="append",
        default=None,
        metavar="NAME",
        help="protocol registry name (repeatable); 'all' sweeps every protocol",
    )
    parser.add_argument(
        "--times",
        type=float,
        nargs="+",
        default=None,
        metavar="T",
        help="partition onset times (default: the standard 0.25T grid)",
    )
    parser.add_argument(
        "--heal-after",
        type=float,
        default=None,
        metavar="DT",
        help="heal every partition DT after onset (transient partitioning)",
    )
    parser.add_argument(
        "--no-voters",
        action="append",
        default=None,
        metavar="SITES",
        help="comma-separated no-voting sites; repeatable, 'none' = all yes",
    )


# The throughput grid's heal default, shared by the `throughput` parser and
# `shard --kind throughput` (whose parser leaves --heal-after unset because
# the sweep axes own the flag) so both always build the same grid.
_TPUT_HEAL_DEFAULT = 8.0

# Defaults of the throughput-only axes, keyed by argparse dest.  Single
# source shared by the parser declarations and `shard --kind sweep`'s
# cross-kind flag rejection, so changing a default can never desync the
# "flag belongs to the other grid" detection.
_TPUT_ONLY_DEFAULTS: dict = {
    "protocols": None,
    "arrival": "uniform",
    "hotspot": 0.0,
    "retries": 0,
    "retry_backoff": 0.5,
    "victim": "youngest",
    "crash_schedule": None,
    "lock_transport": "direct",
}


# Defaults of the modelcheck-only axes, keyed by argparse dest.  Same
# single-source contract as _TPUT_ONLY_DEFAULTS: the parser declarations
# and the shard cross-kind flag rejection both read from here.  (--faults
# is NOT modelcheck-only any more: the unified fault grammar applies to
# every grid kind, so _add_fault_options owns it.)
_MC_ONLY_DEFAULTS: dict = {
    "max_states": 200_000,
    "max_depth": None,
}


def _add_fault_options(
    parser: argparse.ArgumentParser, *, envelopes: bool = False
) -> None:
    """The unified ``--faults`` flag (one grammar across every subcommand)."""
    help_text = (
        "fault clauses KIND=ARGS, comma-separated and repeatable: "
        "crash=SITE:AT[:RECOVER_AT], loss=P[:SRC-DST], dup=P[:SRC-DST], "
        "reorder=P[:WINDOW], send-omission=SITE[:P], recv-omission=SITE[:P], "
        "byzantine=SITE[:equivocate|arbitrary], "
        "retransmit=on|off|MAX[:INTERVAL], seed=N"
    )
    if envelopes:
        help_text += (
            "; modelcheck additionally accepts exhaustive envelope names "
            "(failure-free, single-crash, partition, lossy, "
            "lossy-retransmit, all) and maps clause plans onto them"
        )
    parser.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="KIND=ARGS[,...]",
        help=help_text,
    )


def _add_modelcheck_axes(parser: argparse.ArgumentParser) -> None:
    """The model-checking grid axes (shared by ``modelcheck`` and ``shard``)."""
    parser.add_argument(
        "--max-states",
        type=int,
        default=_MC_ONLY_DEFAULTS["max_states"],
        metavar="N",
        help="abort exploration beyond N global states (default 200000)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=_MC_ONLY_DEFAULTS["max_depth"],
        metavar="D",
        help="truncate exploration at depth D (default: unbounded)",
    )


def _add_throughput_axes(
    parser: argparse.ArgumentParser, *, include_heal: bool = True
) -> None:
    """The throughput grid axes (shared by ``throughput`` and ``shard``)."""
    parser.add_argument(
        "--protocols",
        action="append",
        default=_TPUT_ONLY_DEFAULTS["protocols"],
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
    if include_heal:
        parser.add_argument(
            "--heal-after",
            type=float,
            default=_TPUT_HEAL_DEFAULT,
            metavar="DT",
            help=f"heal the partition DT after onset (default {_TPUT_HEAL_DEFAULT})",
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
        default=_TPUT_ONLY_DEFAULTS["victim"],
        help="which waits-for cycle member the detector aborts (default youngest)",
    )
    parser.add_argument(
        "--arrival",
        choices=("uniform", "poisson"),
        default=_TPUT_ONLY_DEFAULTS["arrival"],
        help="arrival process: evenly spaced or open-loop seeded Poisson",
    )
    parser.add_argument(
        "--hotspot",
        type=float,
        default=_TPUT_ONLY_DEFAULTS["hotspot"],
        metavar="S",
        help="zipf-like key-skew exponent; 0 = uniform keys (default 0)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=_TPUT_ONLY_DEFAULTS["retries"],
        metavar="N",
        help="retry budget: re-admit aborted victims up to N times (default 0)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=_TPUT_ONLY_DEFAULTS["retry_backoff"],
        metavar="DT",
        help="first-retry backoff in T, doubling per attempt (default 0.5)",
    )
    parser.add_argument(
        "--crash-schedule",
        action="append",
        default=_TPUT_ONLY_DEFAULTS["crash_schedule"],
        metavar="SITE:AT[:RECOVER_AT]",
        help=(
            "deprecated alias of --faults crash=SITE:AT[:RECOVER_AT]: crash "
            "SITE at time AT, recovering at RECOVER_AT (omit for a "
            "permanent crash); repeatable"
        ),
    )
    parser.add_argument(
        "--lock-transport",
        choices=("direct", "network"),
        default=_TPUT_ONLY_DEFAULTS["lock_transport"],
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from Huang & Li (ICDE 1987).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiment ids")
    run = sub.add_parser("run", help="run one or more experiments by id")
    run.add_argument("ids", nargs="+", metavar="ID", help="experiment ids (see 'list')")
    _add_obs_options(run)
    all_parser = sub.add_parser("all", help="run every experiment")
    _add_obs_options(all_parser)

    sweep = sub.add_parser(
        "sweep",
        help="run a partition sweep on the parallel engine",
        description=(
            "Sweep partition onset times x simple splits x vote patterns for "
            "one or more protocols, executing scenarios across worker "
            "processes and summarizing atomicity / blocking per protocol."
        ),
    )
    sweep.add_argument("--sites", type=int, default=3, help="number of sites (default 3)")
    _add_partition_axes(sweep)
    _add_fault_options(sweep)
    _add_engine_options(sweep, chunk_size=True, progress=True)
    sweep.add_argument(
        "--stream",
        action="store_true",
        help="constant-memory streaming execution (aggregate via sinks)",
    )
    sweep.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="with --stream: spill every summary to PATH as JSON lines",
    )
    sweep.add_argument(
        "--refine",
        action="store_true",
        help=(
            "adaptively refine verdict boundaries instead of a uniform sweep "
            "(--times then only bounds the interval: [min, max])"
        ),
    )
    sweep.add_argument(
        "--resolution",
        type=float,
        default=0.01,
        metavar="DT",
        help="with --refine: boundary bracketing floor (default 0.01 T)",
    )

    throughput = sub.add_parser(
        "throughput",
        help="run a contended multi-transaction workload per protocol",
        description=(
            "Offer a stream of update transactions to one cluster per "
            "protocol, strike a partition mid-run, and compare goodput, "
            "abort rate and lock-wait: blocking protocols keep the "
            "partition's locks and collapse, the terminating protocols "
            "release them and recover."
        ),
    )
    throughput.add_argument(
        "--sites", type=int, default=3, help="number of sites (default 3)"
    )
    _add_throughput_axes(throughput)
    _add_fault_options(throughput)
    _add_engine_options(throughput, progress=True)
    throughput.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="spill every scenario summary to PATH as JSON lines",
    )

    modelcheck = sub.add_parser(
        "modelcheck",
        help="exhaustively model-check protocols against the paper's invariants",
        description=(
            "Enumerate every reachable global state of each protocol under "
            "a fault envelope (failure-free, a single crash, or a simple "
            "partition at any point) and check the paper's invariants -- "
            "same-decision, no-commit-after-abort, commit-requires-votes "
            "and non-blocking -- over all interleavings, printing a "
            "minimal counterexample trace for every violated invariant."
        ),
    )
    modelcheck.add_argument(
        "--sites", type=int, default=3, help="number of sites (default 3)"
    )
    modelcheck.add_argument(
        "--protocol",
        action="append",
        default=None,
        metavar="NAME",
        help="protocol to check (repeatable); 'all' checks every checkable one",
    )
    modelcheck.add_argument(
        "--no-voters",
        action="append",
        default=None,
        metavar="SITES",
        help="comma-separated no-voting slave sites; repeatable, 'none' = all yes",
    )
    _add_modelcheck_axes(modelcheck)
    _add_fault_options(modelcheck, envelopes=True)
    _add_engine_options(modelcheck, chunk_size=True, progress=True)
    modelcheck.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="spill every checker summary to PATH as JSON lines",
    )
    modelcheck.add_argument(
        "--no-traces",
        action="store_true",
        help="suppress counterexample traces (table and stats only)",
    )

    shard = sub.add_parser(
        "shard",
        help="run one deterministic shard of a grid into a result log",
        description=(
            "Partition a sweep or throughput grid into --shard-count "
            "content-addressed slices (stable under task reordering, "
            "cache-compatible with single-machine runs), execute slice "
            "--shard-index on this machine, and append its summaries to a "
            "result-log directory as sealed segments that 'repro merge' "
            "folds back into single-machine-identical aggregates."
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
        choices=("sweep", "throughput", "modelcheck"),
        default="sweep",
        help="which grid to shard: partition sweep, throughput or modelcheck "
        "(ignored with --manifest, where each entry names its kind)",
    )
    shard.add_argument("--sites", type=int, default=3, help="number of sites (default 3)")
    _add_partition_axes(shard)
    _add_throughput_axes(shard, include_heal=False)
    _add_modelcheck_axes(shard)
    _add_fault_options(shard, envelopes=True)
    _add_engine_options(shard, chunk_size=True)

    merge = sub.add_parser(
        "merge",
        help="fold a result log into single-machine-identical aggregates",
        description=(
            "Read the sealed segments of a 'repro shard' result log, "
            "restore global task order, and fold every summary exactly "
            "once through the registered spec kinds' aggregation sinks.  "
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
        "single-machine 'sweep --stream --jsonl' spill)",
    )
    merge.add_argument(
        "--allow-partial",
        action="store_true",
        help="merge even when some shards are missing (partial aggregates)",
    )
    merge.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write merge statistics to PATH as canonical JSON",
    )
    _add_obs_options(merge)

    report = sub.add_parser(
        "report",
        help="render a --metrics-json file as phase/worker breakdown tables",
        description=(
            "Read the canonical-JSON metrics document a run wrote with "
            "--metrics-json and render its run header, phase breakdown "
            "(every *_seconds histogram with its share of wall clock), "
            "per-worker utilization with the dispatch-overhead share, and "
            "the remaining counters and gauges."
        ),
    )
    report.add_argument(
        "metrics", metavar="METRICS_JSON", help="metrics document to render"
    )

    boundaries = sub.add_parser(
        "boundaries",
        help="locate verdict boundaries along the partition-onset axis",
        description=(
            "Run a coarse onset grid per (protocol x simple split x vote "
            "pattern), then recursively bisect only the intervals where the "
            "verdict class flips, bracketing each boundary to --resolution "
            "with a fraction of the scenarios of a uniform grid."
        ),
    )
    boundaries.add_argument(
        "--protocol",
        action="append",
        default=None,
        metavar="NAME",
        help="protocol registry name (repeatable); 'all' refines every protocol",
    )
    boundaries.add_argument("--sites", type=int, default=3, help="number of sites (default 3)")
    boundaries.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1, in-process)"
    )
    boundaries.add_argument(
        "--lo", type=float, default=0.25, metavar="T", help="interval start (default 0.25)"
    )
    boundaries.add_argument(
        "--hi", type=float, default=8.0, metavar="T", help="interval end (default 8.0)"
    )
    boundaries.add_argument(
        "--coarse-step",
        type=float,
        default=0.25,
        metavar="DT",
        help="coarse scan spacing (default 0.25, the classic grid)",
    )
    boundaries.add_argument(
        "--resolution",
        type=float,
        default=0.01,
        metavar="DT",
        help="boundary bracketing floor (default 0.01 T)",
    )
    boundaries.add_argument(
        "--heal-after",
        type=float,
        default=None,
        metavar="DT",
        help="heal every partition DT after onset (transient partitioning)",
    )
    boundaries.add_argument(
        "--no-voters",
        action="append",
        default=None,
        metavar="SITES",
        help="comma-separated no-voting sites; repeatable, 'none' = all yes",
    )
    boundaries.add_argument(
        "--decision-bounds",
        action="store_true",
        help="also split classes by the whole-T decision bound (2T/3T/5T/6T flips)",
    )
    boundaries.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory (refinement rounds become incremental)",
    )
    _add_obs_options(boundaries)
    return parser


def _resolve_protocol_names(
    names: Optional[list[str]], *, default: list[str]
) -> Optional[list[str]]:
    """Validated protocol list ('all' expands), or ``None`` after the error."""
    from repro.protocols.registry import available_protocols

    protocols = names or default
    if any(p == "all" for p in protocols):
        protocols = available_protocols()
    unknown = [p for p in protocols if p not in available_protocols()]
    if unknown:
        print(f"unknown protocol(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(available_protocols())}", file=sys.stderr)
        return None
    return list(protocols)


def _resolve_protocols(args: argparse.Namespace) -> Optional[list[str]]:
    """Validated protocol list, or ``None`` after printing the error."""
    return _resolve_protocol_names(
        args.protocol, default=["terminating-three-phase-commit"]
    )


def _resolve_no_voters(args: argparse.Namespace) -> Optional[tuple[frozenset[int], ...]]:
    """Validated vote-pattern options, or ``None`` after printing the error."""
    try:
        no_voter_options = _parse_no_voters(args.no_voters or [])
    except ValueError:
        print(
            f"--no-voters expects comma-separated site numbers (or 'none'), "
            f"got {args.no_voters}",
            file=sys.stderr,
        )
        return None
    out_of_range = sorted(
        site
        for option in no_voter_options
        for site in option
        if not 1 <= site <= args.sites
    )
    if out_of_range:
        print(
            f"--no-voters names site(s) {out_of_range} outside 1..{args.sites}",
            file=sys.stderr,
        )
        return None
    return no_voter_options


def _cache_text(cache, hits: int, total: int) -> str:
    """The cache-effectiveness fragment shared by every completion line."""
    if cache is None:
        return "cache disabled"
    return f"cache: {hits} hit(s) / {total - hits} miss(es)"


def _print_stats(stats, workers: int, cache) -> None:
    """The completion line: throughput plus cache effectiveness."""
    print(
        f"{stats.total} scenarios in {stats.elapsed:.2f}s "
        f"({workers} worker(s), {stats.throughput:.0f} scenarios/s, "
        f"{stats.executed} executed, "
        f"{_cache_text(cache, stats.cache_hits, stats.total)})"
    )


def _write_stats_json(path: Optional[str], payload: dict) -> None:
    """Write a stats payload as one canonical-JSON line (machine-readable)."""
    if path is None:
        return
    import pathlib

    from repro.core.canonical import canonical_json_bytes

    target = pathlib.Path(path)
    if target.parent != pathlib.Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(canonical_json_bytes(payload) + b"\n")


#: Version tag of every machine-readable document this CLI writes
#: (``--stats-json`` and ``--metrics-json`` alike); bumped on
#: incompatible payload-layout changes so CI parsers can key on it.
STATS_SCHEMA_VERSION = 1


def _stats_payload(command: str, **fields) -> dict:
    """Base of every machine-readable payload this CLI emits.

    One construction point so sweep / throughput / shard / merge (and the
    metrics documents) all carry the same ``schema_version`` field.
    """
    return {"command": command, "schema_version": STATS_SCHEMA_VERSION, **fields}


def _run_stats_payload(command: str, stats, cache) -> dict:
    """The ``--stats-json`` payload of one grid execution.

    Works for both :class:`~repro.engine.StreamStats` and
    :class:`~repro.engine.SweepResult` (same statistics surface).  CI
    asserts on ``executed`` / ``cache_hits`` instead of grepping the human
    completion line.
    """
    return _stats_payload(
        command,
        total=stats.total,
        executed=stats.executed,
        cache_hits=stats.cache_hits,
        workers=stats.workers,
        chunk_count=stats.chunk_count,
        elapsed=round(stats.elapsed, 6),
        scenarios_per_second=round(stats.throughput, 3),
        cache_enabled=cache is not None,
    )


def _make_obs(args):
    """The ``(metrics, spans)`` pair the obs flags ask for (``None`` = off)."""
    from repro.obs import MetricsRegistry, SpanRecorder

    metrics = MetricsRegistry() if getattr(args, "metrics_json", None) else None
    spans = SpanRecorder() if getattr(args, "trace_ndjson", None) else None
    return metrics, spans


def _write_obs(args, command: str, metrics, spans, stats=None) -> None:
    """Write the ``--metrics-json`` / ``--trace-ndjson`` outputs (if on)."""
    if metrics is not None:
        fields: dict = {"metrics": metrics.snapshot()}
        if stats is not None:
            fields.update(
                total=stats.total,
                workers=stats.workers,
                elapsed=round(stats.elapsed, 6),
            )
        _write_stats_json(args.metrics_json, _stats_payload(command, **fields))
    if spans is not None:
        spans.write_ndjson(args.trace_ndjson)


def _progress_sink(total: int, stats, label: str):
    """A sink that repaints the ``--progress`` line per in-order delivery.

    Reads ``executed`` / ``cache_hits`` live off the engine-shared
    :class:`~repro.engine.StreamStats`, so the line's cache-hit rate is
    current even while chunks are still in flight.  Appended *after* the
    aggregating sinks so a repaint never precedes the delivery it reports.
    """
    from repro.engine.sink import SummarySink
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


def _sweep_grid_tasks(args: argparse.Namespace):
    """The sweep grid's task list plus per-protocol spans, or ``None``.

    One task list (and thus one worker pool / shard partition) across all
    protocols; ``spans`` lets the materializing path slice per-protocol
    tables back out of the ordered summaries.
    """
    from repro.engine import ScenarioGrid

    no_voter_options = _resolve_no_voters(args)
    if no_voter_options is None:
        return None
    protocols = _resolve_protocols(args)
    if protocols is None:
        return None
    faults = _resolve_fault_plan(args)
    if faults is _FAULTS_ERROR:
        return None
    base_spec = None
    if faults is not None:
        from repro.protocols.runner import ScenarioSpec

        base_spec = ScenarioSpec(n_sites=args.sites, faults=faults)
    tasks = []
    spans: list[tuple[str, int, int]] = []
    for protocol in protocols:
        grid = ScenarioGrid.from_partition_sweep(
            protocol,
            args.sites,
            times=args.times,
            heal_after=args.heal_after,
            no_voter_options=no_voter_options,
            base_spec=base_spec,
        )
        protocol_tasks = list(grid.tasks())
        spans.append((protocol, len(tasks), len(tasks) + len(protocol_tasks)))
        tasks.extend(protocol_tasks)
    return tasks, spans


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.atomicity import summarize_runs
    from repro.engine import JsonlSink, StreamStats, SweepEngine, VerdictCounterSink
    from repro.metrics.reporting import format_table

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print(f"--chunk-size must be >= 1, got {args.chunk_size}", file=sys.stderr)
        return 2
    if args.jsonl is not None and not args.stream:
        print("--jsonl requires --stream", file=sys.stderr)
        return 2
    if args.refine and (args.stream or args.jsonl or args.stats_json):
        print(
            "--refine cannot be combined with --stream/--jsonl/--stats-json",
            file=sys.stderr,
        )
        return 2

    obs_metrics, obs_spans = _make_obs(args)
    engine = SweepEngine(
        workers=args.workers,
        cache=args.cache,
        chunk_size=args.chunk_size,
        metrics=obs_metrics,
        spans=obs_spans,
    )

    if args.refine:
        no_voter_options = _resolve_no_voters(args)
        if no_voter_options is None:
            return 2
        protocols = _resolve_protocols(args)
        if protocols is None:
            return 2
        # With --refine, --times only delimits the interval: refinement
        # places its own (coarse + bisected) points inside [min, max].
        lo = min(args.times) if args.times else 0.25
        hi = max(args.times) if args.times else 8.0
        if hi <= lo:
            print(
                "--refine needs an onset interval: give two distinct --times "
                "(their min/max become the bounds) or use "
                "'repro boundaries --lo ... --hi ...'",
                file=sys.stderr,
            )
            return 2
        code = _refine_and_report(
            engine,
            protocols,
            n_sites=args.sites,
            no_voter_options=no_voter_options,
            heal_after=args.heal_after,
            resolution=args.resolution,
            lo=lo,
            hi=hi,
            coarse_step=0.25,
            classify_bounds=False,
        )
        _write_obs(args, "sweep", obs_metrics, obs_spans)
        return code

    built = _sweep_grid_tasks(args)
    if built is None:
        return 2
    tasks, spans = built

    if args.stream:
        # Constant-memory path: summaries flow through sinks in task order
        # and are never materialized.
        sinks = [VerdictCounterSink()]
        if args.jsonl is not None:
            sinks.append(JsonlSink(args.jsonl))
        stats = StreamStats(workers=args.workers)
        if args.progress:
            sinks.append(_progress_sink(len(tasks), stats, "sweep"))
        stats = engine.run_streaming(tasks, sinks=sinks, stats=stats)
        print(format_table(sinks[0].rows()))
        if args.jsonl is not None:
            print(f"spilled {sinks[1].count} summaries to {args.jsonl}")
        _print_stats(stats, args.workers, engine.cache)
        _write_stats_json(
            args.stats_json, _run_stats_payload("sweep", stats, engine.cache)
        )
        _write_obs(args, "sweep", obs_metrics, obs_spans, stats=stats)
        return 0

    if args.progress:
        # The materializing path pulls through the ordered generator so the
        # progress line can tick per summary; the result surface
        # (StreamStats) carries the same statistics fields.
        from repro.obs.progress import ProgressLine

        result = StreamStats(workers=args.workers)
        line = ProgressLine(len(tasks), label="sweep")
        summaries = []
        for summary in engine.stream(tasks, stats=result):
            summaries.append(summary)
            line.update(
                len(summaries),
                executed=result.executed,
                cache_hits=result.cache_hits,
            )
        line.update(
            len(summaries),
            executed=result.executed,
            cache_hits=result.cache_hits,
            force=True,
        )
        line.close()
    else:
        result = engine.run(tasks)
        summaries = result.summaries
    rows = []
    for protocol, start, end in spans:
        summary = summarize_runs(summaries[start:end], protocol=protocol)
        rows.append(
            {
                "protocol": protocol,
                "scenarios": summary.total_runs,
                "violations": summary.atomicity_violations,
                "blocked": summary.blocked_runs,
                "committed": summary.committed_runs,
                "aborted": summary.aborted_runs,
                "resilient": "yes" if summary.resilient else "NO",
            }
        )
    print(format_table(rows))
    _print_stats(result, args.workers, engine.cache)
    _write_stats_json(
        args.stats_json, _run_stats_payload("sweep", result, engine.cache)
    )
    _write_obs(args, "sweep", obs_metrics, obs_spans, stats=result)
    return 0


def _throughput_grid_tasks(args: argparse.Namespace):
    """The throughput grid's task list, or ``None`` after a printed error.

    Shared by ``repro throughput`` and ``repro shard --kind throughput`` so
    sharded runs execute exactly the grid a single-machine run would.
    """
    from repro.experiments.throughput import DEFAULT_PROTOCOLS, throughput_tasks
    from repro.txn import DeadlockPolicy, RetryPolicy, VictimPolicy

    # Every check names the offending flag so workload mistakes are
    # self-explanatory (the satellite contract of the txn subsystem).
    checks = [
        (args.sites < 1, f"--sites must be >= 1, got {args.sites}"),
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
        if failed:
            print(message, file=sys.stderr)
            return None
    if args.crash_schedule:
        print(
            "warning: --crash-schedule is deprecated; use "
            "--faults crash=SITE:AT[:RECOVER_AT]",
            file=sys.stderr,
        )
    try:
        crashes = _parse_crash_schedule(args.crash_schedule or [])
    except ValueError as exc:
        print(f"--crash-schedule: {exc}", file=sys.stderr)
        return None
    if crashes is not None:
        try:
            crashes.validate(args.sites)
        except ValueError as exc:
            print(f"--crash-schedule: {exc}", file=sys.stderr)
            return None
    faults = _resolve_fault_plan(args)
    if faults is _FAULTS_ERROR:
        return None
    protocols = _resolve_protocol_names(args.protocols, default=list(DEFAULT_PROTOCOLS))
    if protocols is None:
        return None
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
        crashes=crashes,
        faults=faults,
        lock_transport=args.lock_transport,
        seeds=args.seeds,
    )


def _run_throughput(args: argparse.Namespace) -> int:
    from repro.engine import JsonlSink, StreamStats, SweepEngine
    from repro.metrics.reporting import format_table
    from repro.txn.sink import ThroughputSink

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    tasks = _throughput_grid_tasks(args)
    if tasks is None:
        return 2
    obs_metrics, obs_spans = _make_obs(args)
    engine = SweepEngine(
        workers=args.workers,
        cache=args.cache,
        metrics=obs_metrics,
        spans=obs_spans,
    )
    sinks: list = [ThroughputSink()]
    if args.jsonl is not None:
        sinks.append(JsonlSink(args.jsonl))
    stats = StreamStats(workers=args.workers)
    if args.progress:
        sinks.append(_progress_sink(len(tasks), stats, "throughput"))
    stats = engine.run_streaming(tasks, sinks=sinks, stats=stats)
    print(format_table(sinks[0].rows()))
    if args.jsonl is not None:
        print(f"spilled {sinks[1].count} summaries to {args.jsonl}")
    _print_stats(stats, args.workers, engine.cache)
    _write_stats_json(
        args.stats_json, _run_stats_payload("throughput", stats, engine.cache)
    )
    _write_obs(args, "throughput", obs_metrics, obs_spans, stats=stats)
    return 0


def _envelope_for_plan(plan) -> Optional[str]:
    """The exhaustive fault envelope covering a ``--faults`` clause plan.

    The checker abstracts probabilities away: any loss clause maps onto the
    ``lossy`` envelope (one adversarial silent loss, anywhere), loss with
    retransmission onto ``lossy-retransmit``, a crash clause onto
    ``single-crash``.  Fault classes with no exhaustive envelope (dup /
    reorder / omission / byzantine) print an error and return ``None``.
    """
    from repro.core.reachability import (
        FAILURE_FREE,
        LOSSY,
        LOSSY_RETRANSMIT,
        SINGLE_CRASH,
    )

    classes = set(plan.fault_classes()) if plan is not None else set()
    unsupported = sorted(classes - {"loss", "crash"})
    if unsupported or classes == {"loss", "crash"}:
        print(
            f"--faults: no exhaustive envelope covers "
            f"{unsupported or sorted(classes)}; the checker maps crash=..., "
            f"loss=... and loss=...,retransmit=on (use the simulator -- "
            f"repro sweep / repro throughput -- for the other fault classes)",
            file=sys.stderr,
        )
        return None
    if "loss" in classes:
        if plan.retransmit is not None:
            return LOSSY_RETRANSMIT
        return LOSSY
    if "crash" in classes:
        return SINGLE_CRASH
    # A bare retransmit=on plan: retransmission restores assumption 1, so
    # the graph is the failure-free one by construction.
    return FAILURE_FREE


def _modelcheck_envelopes(args: argparse.Namespace) -> Optional[list[str]]:
    """``--faults`` values as fault envelopes, or ``None`` after the error.

    Accepts envelope names (``failure-free`` ... ``lossy-retransmit``,
    ``all`` = the classic trio) directly and maps clause-grammar plans via
    :func:`_envelope_for_plan`, so the unified ``--faults`` spelling works
    against the exhaustive checker too.
    """
    from repro.core.reachability import ALL_FAULT_ENVELOPES
    from repro.experiments.modelcheck import DEFAULT_FAULTS

    values = args.faults or ["all"]
    envelopes: list[str] = []
    for value in values:
        if value == "all":
            envelopes.extend(DEFAULT_FAULTS)
        elif value in ALL_FAULT_ENVELOPES:
            envelopes.append(value)
        else:
            try:
                plan = _parse_fault_clauses([value])
                if plan is not None:
                    plan.validate(args.sites)
            except ValueError as exc:
                print(f"--faults: {exc}", file=sys.stderr)
                return None
            envelope = _envelope_for_plan(plan)
            if envelope is None:
                return None
            envelopes.append(envelope)
    return list(dict.fromkeys(envelopes))


def _modelcheck_grid_tasks(args: argparse.Namespace):
    """The model-checking grid's task list, or ``None`` after a printed error.

    Shared by ``repro modelcheck`` and ``repro shard --kind modelcheck`` so
    sharded runs explore exactly the grid a single-machine run would.
    """
    from repro.experiments.modelcheck import modelcheck_tasks
    from repro.modelcheck.protocols import checkable_protocols

    checks = [
        (args.sites < 2, f"--sites must be >= 2, got {args.sites}"),
        (
            args.max_states < 1,
            f"--max-states must be >= 1, got {args.max_states}",
        ),
        (
            args.max_depth is not None and args.max_depth < 1,
            f"--max-depth must be >= 1, got {args.max_depth}",
        ),
    ]
    for failed, message in checks:
        if failed:
            print(message, file=sys.stderr)
            return None
    protocols = args.protocol or ["all"]
    if any(p == "all" for p in protocols):
        protocols = checkable_protocols()
    unknown = [p for p in protocols if p not in checkable_protocols()]
    if unknown:
        print(f"uncheckable protocol(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            f"checkable (FSA-modelled): {', '.join(checkable_protocols())}",
            file=sys.stderr,
        )
        return None
    faults = _modelcheck_envelopes(args)
    if faults is None:
        return None
    no_voter_options = _resolve_no_voters(args)
    if no_voter_options is None:
        return None
    if any(1 in option for option in no_voter_options):
        print(
            "--no-voters cannot include site 1: a no-voting master aborts "
            "unilaterally before any message is sent, so there is no "
            "protocol execution to check",
            file=sys.stderr,
        )
        return None
    return modelcheck_tasks(
        protocols,
        n_sites=args.sites,
        faults=faults,
        no_voter_options=no_voter_options,
        max_states=args.max_states,
        max_depth=args.max_depth,
    )


def _run_modelcheck(args: argparse.Namespace) -> int:
    from repro.core.reachability import ExplorationError
    from repro.engine import JsonlSink, StreamStats, SweepEngine
    from repro.engine.sink import SummarySink
    from repro.metrics.reporting import format_table
    from repro.modelcheck.sink import ModelCheckSink
    from repro.modelcheck.summary import ModelCheckSummary

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print(f"--chunk-size must be >= 1, got {args.chunk_size}", file=sys.stderr)
        return 2
    tasks = _modelcheck_grid_tasks(args)
    if tasks is None:
        return 2
    obs_metrics, obs_spans = _make_obs(args)
    engine = SweepEngine(
        workers=args.workers,
        cache=args.cache,
        chunk_size=args.chunk_size,
        metrics=obs_metrics,
        spans=obs_spans,
    )

    refuted: list[ModelCheckSummary] = []

    class _CounterexampleCollector(SummarySink):
        """Keeps the summaries that carry counterexample traces."""

        def accept(self, index: int, summary) -> None:
            if isinstance(summary, ModelCheckSummary) and summary.counterexamples:
                refuted.append(summary)

    sinks: list = [ModelCheckSink(), _CounterexampleCollector()]
    if args.jsonl is not None:
        sinks.append(JsonlSink(args.jsonl))
    stats = StreamStats(workers=args.workers)
    if args.progress:
        sinks.append(_progress_sink(len(tasks), stats, "modelcheck"))
    try:
        stats = engine.run_streaming(tasks, sinks=sinks, stats=stats)
    except ExplorationError as exc:
        print(
            f"exploration budget exceeded: {exc} "
            "(raise --max-states, or bound the graph with --max-depth)",
            file=sys.stderr,
        )
        return 2
    print(format_table(sinks[0].rows()))
    if not args.no_traces:
        for summary in refuted:
            print()
            print(summary.summary())
            for name in sorted(summary.counterexamples):
                print(f"counterexample [{name}]:")
                print(summary.format_counterexample(name))
    if args.jsonl is not None:
        print(f"spilled {sinks[2].count} summaries to {args.jsonl}")
    _print_stats(stats, args.workers, engine.cache)
    _write_stats_json(
        args.stats_json, _run_stats_payload("modelcheck", stats, engine.cache)
    )
    _write_obs(args, "modelcheck", obs_metrics, obs_spans, stats=stats)
    return 0


def _shard_kind_tasks(args: argparse.Namespace):
    """Validate one shard namespace's grid flags and build its task list.

    Returns the task list, or ``None`` after printing the failure (exit
    code 2 territory).  Shared by the command-line grid axes and each
    ``--manifest`` entry, so both reject cross-kind flags the same way.
    """
    # Flags belonging to another grid would be silently ignored -- the
    # shard would quietly cover a different grid than the user asked for,
    # breaking the merge-vs-single-machine identity.  Name the mistake.
    def _foreign_flags(defaults: dict) -> list[str]:
        return [
            "--" + dest.replace("_", "-")
            for dest, default in defaults.items()
            if getattr(args, dest) != default
        ]

    foreign_by_owner = {
        "throughput": _foreign_flags(_TPUT_ONLY_DEFAULTS),
        "modelcheck": _foreign_flags(_MC_ONLY_DEFAULTS),
    }
    for owner, foreign in foreign_by_owner.items():
        if owner != args.kind and foreign:
            print(
                f"{', '.join(foreign)} appl"
                f"{'y' if len(foreign) > 1 else 'ies'} to "
                f"--kind {owner}, not --kind {args.kind}",
                file=sys.stderr,
            )
            return None
    if args.kind == "throughput":
        for provided, flag in (
            (args.protocol, "--protocol"),
            (args.times, "--times"),
            (args.no_voters, "--no-voters"),
        ):
            if provided is not None:
                print(
                    f"{flag} applies to --kind sweep/modelcheck; "
                    f"the throughput grid takes --protocols",
                    file=sys.stderr,
                )
                return None
    if args.kind == "modelcheck":
        for provided, flag in (
            (args.times, "--times"),
            (args.heal_after, "--heal-after"),
        ):
            if provided is not None:
                print(
                    f"{flag} applies to --kind sweep; "
                    f"the modelcheck grid has no timing axis",
                    file=sys.stderr,
                )
                return None
    if args.kind == "sweep":
        built = _sweep_grid_tasks(args)
        return None if built is None else built[0]
    if args.kind == "modelcheck":
        return _modelcheck_grid_tasks(args)
    # The shard parser leaves --heal-after unset by default (the sweep
    # axes own the flag); apply the throughput subcommand's default so
    # both build the same grid.
    if args.heal_after is None:
        args.heal_after = _TPUT_HEAL_DEFAULT
    return _throughput_grid_tasks(args)


def _manifest_tasks(args: argparse.Namespace):
    """Build the concatenated task list a ``--manifest`` file describes.

    The manifest is ``{"grids": [{"kind": ..., "args": [...]}, ...]}``;
    each entry's args are parsed through the shard grammar itself, so a
    manifest grid accepts exactly the flags the command line does and
    fails with the same messages.  Returns ``None`` after printing the
    failure.
    """
    import json
    import os
    import pathlib

    try:
        payload = json.loads(pathlib.Path(args.manifest).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest {args.manifest}: {exc}", file=sys.stderr)
        return None
    entries = payload.get("grids") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        print(
            f"{args.manifest}: manifest needs a non-empty 'grids' list",
            file=sys.stderr,
        )
        return None
    parser = _build_parser()
    tasks: list = []
    for position, entry in enumerate(entries):
        kind = entry.get("kind") if isinstance(entry, dict) else None
        if kind not in ("sweep", "throughput", "modelcheck"):
            print(
                f"{args.manifest}: grids[{position}] needs "
                f"\"kind\": sweep|throughput|modelcheck, got {kind!r}",
                file=sys.stderr,
            )
            return None
        extra = entry.get("args", [])
        if not isinstance(extra, list) or not all(
            isinstance(item, str) for item in extra
        ):
            print(
                f"{args.manifest}: grids[{position}] \"args\" must be a "
                f"list of strings",
                file=sys.stderr,
            )
            return None
        try:
            entry_args = parser.parse_args(
                [
                    "shard",
                    "--shard-index",
                    "0",
                    "--shard-count",
                    "1",
                    "--log",
                    os.devnull,
                    "--kind",
                    kind,
                    *extra,
                ]
            )
        except SystemExit:
            print(
                f"{args.manifest}: grids[{position}] ({kind}): invalid "
                f"arguments",
                file=sys.stderr,
            )
            return None
        built = _shard_kind_tasks(entry_args)
        if built is None:
            print(
                f"{args.manifest}: grids[{position}] ({kind}): invalid grid",
                file=sys.stderr,
            )
            return None
        tasks.extend(built)
    return tasks


def _run_shard_cmd(args: argparse.Namespace) -> int:
    from repro.engine import SweepEngine
    from repro.engine.resultlog import (
        DEFAULT_SEGMENT_RECORDS,
        ResultLogError,
        run_shard_log,
    )

    checks = [
        (args.workers < 1, f"--workers must be >= 1, got {args.workers}"),
        (
            args.chunk_size is not None and args.chunk_size < 1,
            f"--chunk-size must be >= 1, got {args.chunk_size}",
        ),
        (args.shard_count < 1, f"--shard-count must be >= 1, got {args.shard_count}"),
        (
            not 0 <= args.shard_index < max(args.shard_count, 1),
            f"--shard-index must be in [0, {args.shard_count}), got {args.shard_index}",
        ),
        (
            args.segment_records is not None and args.segment_records < 1,
            f"--segment-records must be >= 1, got {args.segment_records}",
        ),
    ]
    for failed, message in checks:
        if failed:
            print(message, file=sys.stderr)
            return 2
    if args.manifest is not None:
        # Command-line grid axes alongside --manifest would be silently
        # ignored; insist the manifest owns the whole grid definition.
        grid_axes = {
            **_TPUT_ONLY_DEFAULTS,
            **_MC_ONLY_DEFAULTS,
            "protocol": None,
            "times": None,
            "no_voters": None,
            "heal_after": None,
            "faults": None,
        }
        set_flags = [
            "--" + dest.replace("_", "-")
            for dest, default in grid_axes.items()
            if getattr(args, dest) != default
        ]
        if set_flags:
            print(
                f"{', '.join(set_flags)} cannot be combined with "
                f"--manifest; put grid flags in the manifest entries",
                file=sys.stderr,
            )
            return 2
        tasks = _manifest_tasks(args)
        kind_label = "manifest"
    else:
        tasks = _shard_kind_tasks(args)
        kind_label = args.kind
    if tasks is None:
        return 2
    obs_metrics, obs_spans = _make_obs(args)
    engine = SweepEngine(
        workers=args.workers,
        cache=args.cache,
        chunk_size=args.chunk_size,
        metrics=obs_metrics,
        spans=obs_spans,
    )
    try:
        result = run_shard_log(
            tasks,
            args.shard_index,
            args.shard_count,
            args.log,
            engine=engine,
            segment_records=args.segment_records or DEFAULT_SEGMENT_RECORDS,
        )
    except (ResultLogError, OSError) as exc:
        print(f"shard failed: {exc}", file=sys.stderr)
        return 2
    stats = result.stats
    print(
        f"shard {args.shard_index}/{args.shard_count} ({kind_label} "
        f"grid): {result.appended} of {result.shard_tasks} task(s) "
        f"appended to {args.log} ({result.skipped} already sealed, "
        f"{result.segments_sealed} segment(s) sealed)"
    )
    _print_stats(stats, args.workers, engine.cache)
    payload = _run_stats_payload("shard", stats, engine.cache)
    payload.update(
        {
            "kind": kind_label,
            "shard_index": args.shard_index,
            "shard_count": args.shard_count,
            "total_tasks": len(tasks),
            "resumed_skips": result.skipped,
            "records_appended": result.appended,
            "segments_sealed": result.segments_sealed,
        }
    )
    _write_stats_json(args.stats_json, payload)
    _write_obs(args, "shard", obs_metrics, obs_spans, stats=stats)
    return 0


def _run_merge(args: argparse.Namespace) -> int:
    import os
    from contextlib import nullcontext

    from repro.engine.registry import UnknownSpecKindError
    from repro.engine.resultlog import (
        DEFAULT_BATCH_RECORDS,
        InjectedMergeCrash,
        ResultLogError,
        merge_result_log,
    )
    from repro.metrics.reporting import format_table
    from repro.obs.metrics import activate

    if args.batch_records is not None and args.batch_records < 1:
        print(
            f"--batch-records must be >= 1, got {args.batch_records}",
            file=sys.stderr,
        )
        return 2
    crash_env = os.environ.get("REPRO_MERGE_CRASH_AFTER")
    try:
        crash_after = int(crash_env) if crash_env else None
    except ValueError:
        print(
            f"REPRO_MERGE_CRASH_AFTER must be an integer, got {crash_env!r}",
            file=sys.stderr,
        )
        return 2
    obs_metrics, obs_spans = _make_obs(args)
    try:
        with (
            activate(obs_metrics) if obs_metrics is not None else nullcontext()
        ), (
            obs_spans.span("merge", log=str(args.log))
            if obs_spans is not None
            else nullcontext()
        ):
            result = merge_result_log(
                args.log,
                jsonl=args.jsonl,
                checkpoint=args.checkpoint,
                resume=args.resume,
                require_complete=not args.allow_partial,
                batch_records=args.batch_records or DEFAULT_BATCH_RECORDS,
                crash_after=crash_after,
            )
    except InjectedMergeCrash as exc:
        print(f"merge interrupted: {exc}", file=sys.stderr)
        return 3
    except (ResultLogError, UnknownSpecKindError, OSError) as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 2
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
    # Deliberately excluded from the stats payload: the replayed count,
    # which differs between a resumed and an uninterrupted merge of the
    # same log -- everything written here is a property of the log itself,
    # so resumed stats match single-shot stats (modulo elapsed).
    _write_stats_json(
        args.stats_json,
        _stats_payload(
            "merge",
            shards=len(result.shard_records),
            shard_count=result.shard_count,
            records=result.records,
            total_tasks=result.total_tasks,
            kinds=sorted(result.kind_sinks),
            elapsed=round(result.elapsed, 6),
            segments=result.segments,
            records_deduped=result.deduped,
        ),
    )
    if obs_metrics is not None:
        _write_stats_json(
            args.metrics_json,
            _stats_payload(
                "merge",
                total=result.records,
                elapsed=round(result.elapsed, 6),
                metrics=obs_metrics.snapshot(),
            ),
        )
    if obs_spans is not None:
        obs_spans.write_ndjson(args.trace_ndjson)
    return 0


def _refine_and_report(
    engine,
    protocols: list[str],
    *,
    n_sites: int,
    no_voter_options: tuple[frozenset[int], ...],
    heal_after: Optional[float],
    resolution: float,
    lo: float,
    hi: float,
    coarse_step: float,
    classify_bounds: bool,
) -> int:
    """Shared implementation of ``sweep --refine`` and ``boundaries``."""
    from repro.engine import RefinementDriver, verdict_class, verdict_class_with_bound
    from repro.metrics.reporting import format_table

    if resolution <= 0:
        print(f"--resolution must be > 0, got {resolution}", file=sys.stderr)
        return 2
    if hi <= lo:
        print(f"need --lo < --hi, got [{lo}, {hi}]", file=sys.stderr)
        return 2
    if coarse_step <= 0:
        print(f"--coarse-step must be > 0, got {coarse_step}", file=sys.stderr)
        return 2
    driver = RefinementDriver(
        engine,
        resolution=resolution,
        classify=verdict_class_with_bound if classify_bounds else verdict_class,
    )
    rows = []
    scenarios_run = 0
    executed = 0
    cache_hits = 0
    uniform = 0
    for protocol in protocols:
        results = driver.refine_partition_boundaries(
            protocol,
            n_sites,
            no_voter_options=no_voter_options,
            heal_after=heal_after,
            lo=lo,
            hi=hi,
            coarse_step=coarse_step,
        )
        for result in results:
            rows.extend(result.rows())
            scenarios_run += result.scenarios_run
            executed += result.executed
            cache_hits += result.cache_hits
            uniform += result.uniform_equivalent()
    if uniform == 0:
        # No refinement lines at all (e.g. a single site has no simple splits).
        print(f"no partition lines to refine for {args_desc(protocols, n_sites)}")
        return 0
    if rows:
        print(
            format_table(rows, title=f"verdict boundaries bracketed to {resolution:g} T")
        )
    else:
        print(f"no verdict flips in [{lo:g}, {hi:g}] (every onset classifies alike)")
    print(
        f"{scenarios_run} scenarios evaluated ({executed} executed, "
        f"{_cache_text(engine.cache, cache_hits, scenarios_run)}) "
        f"vs {uniform} for the uniform {resolution:g} T grid "
        f"({scenarios_run / uniform:.1%} of uniform cost)"
    )
    return 0


def args_desc(protocols: list[str], n_sites: int) -> str:
    """Short description of a refinement request, for empty-result messages."""
    return f"{', '.join(protocols)} at {n_sites} site(s)"


def _run_boundaries(args: argparse.Namespace) -> int:
    from repro.engine import SweepEngine

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    no_voter_options = _resolve_no_voters(args)
    if no_voter_options is None:
        return 2
    protocols = _resolve_protocols(args)
    if protocols is None:
        return 2
    obs_metrics, obs_spans = _make_obs(args)
    engine = SweepEngine(
        workers=args.workers,
        cache=args.cache,
        metrics=obs_metrics,
        spans=obs_spans,
    )
    code = _refine_and_report(
        engine,
        protocols,
        n_sites=args.sites,
        no_voter_options=no_voter_options,
        heal_after=args.heal_after,
        resolution=args.resolution,
        lo=args.lo,
        hi=args.hi,
        coarse_step=args.coarse_step,
        classify_bounds=args.decision_bounds,
    )
    _write_obs(args, "boundaries", obs_metrics, obs_spans)
    return code


def _run_report(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.obs.report import render_metrics_document

    try:
        document = json.loads(pathlib.Path(args.metrics).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 2
    if not isinstance(document, dict):
        print(
            f"report failed: {args.metrics} is not a metrics document "
            f"(expected a JSON object)",
            file=sys.stderr,
        )
        return 2
    print(render_metrics_document(document))
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    """The ``run`` / ``all`` subcommands (with optional obs recording)."""
    from contextlib import nullcontext

    from repro.obs.metrics import activate

    ids = list(EXPERIMENTS) if args.command == "all" else [i.upper() for i in args.ids]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    obs_metrics, obs_spans = _make_obs(args)
    with activate(obs_metrics) if obs_metrics is not None else nullcontext():
        for experiment_id in ids:
            with (
                obs_spans.span(experiment_id)
                if obs_spans is not None
                else nullcontext()
            ):
                report = EXPERIMENTS[experiment_id]()
            print(report.format())
            print()
    _write_obs(args, args.command, obs_metrics, obs_spans)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "throughput":
        return _run_throughput(args)
    if args.command == "modelcheck":
        return _run_modelcheck(args)
    if args.command == "shard":
        return _run_shard_cmd(args)
    if args.command == "merge":
        return _run_merge(args)
    if args.command == "boundaries":
        return _run_boundaries(args)
    if args.command == "report":
        return _run_report(args)
    return _run_experiments(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
