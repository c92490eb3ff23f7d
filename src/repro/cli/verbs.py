"""The non-grid verbs: ``list`` / ``run`` / ``all`` (the paper's experiments),
``boundaries`` (adaptive onset-boundary refinement) and ``report`` (render a
``--metrics-json`` document).
"""

from __future__ import annotations

import argparse
import time
from typing import Callable

from repro import experiments as ex
from repro.cli.common import (
    UsageError,
    add_obs_options,
    add_pool_options,
    add_split_axes,
    cache_text,
    check,
    make_obs,
    resolve_split_axes,
    write_obs,
)

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


def add_verb_parsers(sub) -> None:
    """Register ``list`` / ``run`` / ``all`` / ``report`` / ``boundaries``."""
    listing = sub.add_parser("list", help="list available experiment ids")
    listing.set_defaults(run=_run_list)
    run = sub.add_parser("run", help="run one or more experiments by id")
    run.add_argument("ids", nargs="+", metavar="ID", help="experiment ids (see 'list')")
    all_parser = sub.add_parser("all", help="run every experiment")
    for parser in (run, all_parser):
        add_obs_options(parser)
        parser.set_defaults(run=_run_experiments)

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
    report.set_defaults(run=_run_report)

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
    add_split_axes(boundaries)
    add_pool_options(boundaries)
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
        "--decision-bounds",
        action="store_true",
        help="also split classes by the whole-T decision bound (2T/3T/5T/6T flips)",
    )
    add_obs_options(boundaries)
    boundaries.set_defaults(run=_run_boundaries)


def _run_list(args: argparse.Namespace) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    """The ``run`` / ``all`` subcommands; with ``--metrics-json`` each
    experiment's wall clock is one ``experiment.<ID>_seconds`` phase."""
    from repro.obs.metrics import activate

    ids = list(EXPERIMENTS) if args.command == "all" else [i.upper() for i in args.ids]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    check(
        not unknown,
        f"unknown experiment id(s): {', '.join(unknown)} "
        f"(available: {', '.join(EXPERIMENTS)})",
    )
    obs_metrics = make_obs(args)
    started = time.perf_counter()
    with activate(obs_metrics):
        for experiment_id in ids:
            before = time.perf_counter()
            report = EXPERIMENTS[experiment_id]()
            if obs_metrics is not None:
                obs_metrics.histogram(f"experiment.{experiment_id}_seconds").observe(
                    time.perf_counter() - before
                )
            print(report.format())
            print()
    write_obs(
        args,
        args.command,
        obs_metrics,
        elapsed=round(time.perf_counter() - started, 6),
    )
    return 0


def _run_report(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.obs.report import render_metrics_document

    try:
        document = json.loads(pathlib.Path(args.metrics).read_text("utf-8"))
    except ValueError as exc:
        raise UsageError(f"report failed: {args.metrics} is not JSON ({exc})") from None
    try:
        text = render_metrics_document(document)
    except ValueError as exc:
        raise UsageError(
            f"report failed: {args.metrics} is not a metrics document ({exc})"
        ) from None
    print(text)
    return 0


def _run_boundaries(args: argparse.Namespace) -> int:
    from repro.engine import (
        RefinementDriver,
        SweepEngine,
        verdict_class,
        verdict_class_with_bound,
    )
    from repro.obs.report import format_table

    check(args.workers >= 1, f"--workers must be >= 1, got {args.workers}")
    protocols, no_voter_options = resolve_split_axes(args)
    check(args.resolution > 0, f"--resolution must be > 0, got {args.resolution}")
    check(args.lo >= 0, f"--lo must be >= 0, got {args.lo}")
    check(args.hi > args.lo, f"need --lo < --hi, got [{args.lo}, {args.hi}]")
    check(args.coarse_step > 0, f"--coarse-step must be > 0, got {args.coarse_step}")
    obs_metrics = make_obs(args)
    started = time.perf_counter()
    rows = []
    scenarios_run = 0
    executed = 0
    cache_hits = 0
    uniform = 0
    # The workers are gone before anything is printed.
    with SweepEngine(
        workers=args.workers,
        cache=args.cache,
        metrics=obs_metrics,
    ) as engine:
        driver = RefinementDriver(
            engine,
            resolution=args.resolution,
            classify=(
                verdict_class_with_bound if args.decision_bounds else verdict_class
            ),
        )
        for protocol in protocols:
            results = driver.refine_partition_boundaries(
                protocol,
                args.sites,
                no_voter_options=no_voter_options,
                heal_after=args.heal_after,
                lo=args.lo,
                hi=args.hi,
                coarse_step=args.coarse_step,
            )
            for result in results:
                rows.extend(result.rows())
                scenarios_run += result.scenarios_run
                executed += result.executed
                cache_hits += result.cache_hits
                uniform += result.uniform_equivalent()
    if uniform == 0:
        # No refinement lines at all (e.g. a single site has no simple splits).
        print(
            f"no partition lines to refine for {', '.join(protocols)} "
            f"at {args.sites} site(s)"
        )
    else:
        if rows:
            print(
                format_table(
                    rows, title=f"verdict boundaries bracketed to {args.resolution:g} T"
                )
            )
        else:
            print(
                f"no verdict flips in [{args.lo:g}, {args.hi:g}] "
                f"(every onset classifies alike)"
            )
        print(
            f"{scenarios_run} scenarios evaluated ({executed} executed, "
            f"{cache_text(engine.cache, cache_hits, scenarios_run)}) "
            f"vs {uniform} for the uniform {args.resolution:g} T grid "
            f"({scenarios_run / uniform:.1%} of uniform cost)"
        )
    write_obs(
        args,
        "boundaries",
        obs_metrics,
        elapsed=round(time.perf_counter() - started, 6),
    )
    return 0
